"""Entry point of the price-kit benchmark.

    python3 perfbench/run.py --workload report_large --seed 1 --seconds 20 --trace 0

Pins BLAS to one thread before numpy is imported, makes sure price-kit is
imported from this checkout's ``src``, and hands over to
``perfbench.bench``.  Without ``src/pricekit`` it exits with an error and
prints no result.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:1] = [str(SRC), str(ROOT)]

if __name__ == "__main__":
    try:
        import pricekit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pricekit from {SRC}: {exc}")
    if Path(pricekit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: pricekit was imported from {pricekit.__file__}, not {SRC}")

    from perfbench.bench import main

    sys.exit(main())
