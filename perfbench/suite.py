"""Run every workload and print every metric by name with its unit.

    python3 perfbench/suite.py --seeds 1 2 3 --seconds 20 [--out results.json]

Each workload runs in a process of its own, once per seed with tracing off
(end-to-end metrics) and once with tracing on for the first seed (per-layer
metrics).  With several seeds each end-to-end metric is summarised by its
median and quartiles.  Next to each time, which is at reference host speed
(see calibrate.py), the median of its raw wall-clock figure is printed, so
a change whose scaled and raw figures disagree shows.  ``--out`` writes
every run's result and metadata (without the per-op lists), the machine
information and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:1] = [str(ROOT)]

from perfbench.gen import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600
PER_OP_FIELDS = ("latencies_s", "factors")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    meta = json.loads(lines[-2])
    for per_op in PER_OP_FIELDS:  # kept in the run's own output only
        meta.pop(per_op, None)
    return meta, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", help="write all results to this JSON file")
    args = ap.parse_args()

    results = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            meta, result = run_one(workload, seed, args.seconds, 0)
            runs.append({"meta": meta, "result": result})
            results.setdefault("machine", meta["machine"])
            print(f"{workload} seed {seed}: {meta['samples']} ops, "
                  f"{meta['failed']} of {meta['attempted']} failed", file=sys.stderr)
        entry = {"runs": runs, "summary": {}}
        for name, m in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["summary"][name] = dict(summarise(values), unit=m["unit"])
            if "wall_" + name in runs[0]["meta"]:
                entry["summary"][name]["wall_median"] = statistics.median(
                    r["meta"]["wall_" + name] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry["summary"]["fail_ratio"] = {"value": failed / attempted, "failed": failed,
                                          "attempted": attempted, "unit": "ratio"}
        meta, result = run_one(workload, args.seeds[0], args.seconds, 1)
        entry["traced"] = {"meta": meta, "result": result}
        results["workloads"][workload] = entry

        for name, s in entry["summary"].items():
            if name == "fail_ratio":
                print(f"{workload:20s} {name:40s} {s['value']:<14.6g} {s['unit']} "
                      f"({s['failed']} of {s['attempted']} ops)")
            else:
                spread = f"  IQR/median {s['iqr_over_median']:.4f}" if s["n"] > 1 else ""
                wall = f"  (wall clock {s['wall_median']:.6g})" if "wall_median" in s else ""
                print(f"{workload:20s} {name:40s} {s['median']:<14.6g} {s['unit']}{spread}{wall}")
        for name, m in entry["traced"]["result"]["metrics"].items():
            print(f"{workload:20s} {name:40s} {m['value']:<14.6g} {m['unit']}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
