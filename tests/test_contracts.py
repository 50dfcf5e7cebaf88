"""Package-wide contracts: each benchmark workload, run on its recorded
seed-0 inputs, gives the recorded outputs field by field
(``perfbench/reference``), and no source module outside ``config.py`` holds
a threshold literal."""

import io
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, gen  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reference_outputs_are_reproduced(workload, tmp_path):
    tally = bench.Tally()
    ran = bench.reference_check(workload, tmp_path, tally)
    assert ran["ops"] > 0 and tally.attempted == ran["ops"]
    assert tally.failed == 0, tally.problems


def test_tolerances_live_only_in_config():
    """A float literal with a negative exponent is a threshold; config.py owns
    them all.  Docstrings and comments are not NUMBER tokens."""
    found = []
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        if path.name == "config.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        found += [f"{path.name}:{tok.start[0]}: {tok.string}" for tok in tokens
                  if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()]
    assert found == []
