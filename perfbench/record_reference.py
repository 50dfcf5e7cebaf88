"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs each workload's ops once on the inputs of ``REFERENCE_SEED`` (all 200
pairs for ``screen_small``) and writes ``perfbench/reference/<workload>.json.gz``.
The checked-in files were recorded at the seed commit of price-kit;
re-record only when an output is meant to change, and say why in the change
that does it.
"""

import gzip
import io
import os
import shutil
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

import json  # noqa: E402

from perfbench import bench, gen, workloads  # noqa: E402

REFERENCE_SEED = 0


def record(workload: str, directory: str) -> dict:
    digest = gen.write_inputs(gen.generate(workload, REFERENCE_SEED), os.path.join(directory, "in"))
    ops = workloads.prepare(workload, os.path.join(directory, "in"),
                            os.path.join(directory, "out"))
    outputs = {}
    for op in ops:
        flat = op.output(op.run())
        problems = op.check(flat)
        if problems:
            raise SystemExit(f"{workload} {op.label} fails its checks: {problems}")
        outputs[op.label] = flat
    return {"seed": REFERENCE_SEED, "inputs_sha256": digest, "ops": outputs}


def main() -> int:
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in gen.WORKLOADS:
        work_dir = bench.WORK / f"record-{workload}"
        try:
            ref = record(workload, str(work_dir))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        path = bench.reference_path(workload)
        # mtime=0 keeps the file's bytes a function of its content alone.
        with gzip.GzipFile(path, "wb", mtime=0) as raw, io.TextIOWrapper(raw) as fh:
            json.dump(ref, fh, sort_keys=True)
            fh.write("\n")
        print(f"{path.relative_to(ROOT)}: {len(ref['ops'])} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
