"""One run of one price-kit benchmark workload; ``run.py`` is the entry point.

Each workload is a closed loop: one client, one process, one thread (BLAS
pinned to one thread by ``run.py``), the next op starting only after the
previous one returned.  Inputs are generated from ``--seed`` and written as
files before the loop; only the files (and, on the library path, arrays
loaded from them) reach the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the ops
under in-memory spans and prints the per-layer metrics (see README.md).
Every op's output is checked, and after the loop the inputs of seed 0 are
run and compared field by field with outputs recorded at the seed commit.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed, sample
counts, failures and machine information.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import gen, spans, workloads
from .calibrate import SETUP_REFERENCE_S, Calibrator
from .machine import machine_info

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
CALIBRATE_SCRIPT = Path(__file__).resolve().parent / "calibrate.py"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 10
# Calibration kernel samples at the start of a loop.
CAL_WARMUP = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Executing and checking ops


class Tally:
    """Attempted and failed ops, plus the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op, seen: dict, call=None, reference: dict | None = None):
        """Run one op (timed), then check it (untimed).

        ``seen`` maps op labels to the first output of that input in this
        run, so repeated inputs must keep giving the same output.  Returns
        the op's duration in seconds and whether it passed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = call(op.run) if call is not None else op.run()
        except Exception:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t0
            return dt, self.fail(op.label, traceback.format_exc(limit=3).strip())
        dt = time.perf_counter() - t0
        try:
            flat = op.output(raw)
            problems = op.check(flat)
            if op.label in seen:
                problems += workloads.compare(seen[op.label], flat)
            else:
                seen[op.label] = flat
            if reference is not None:
                problems += workloads.compare(reference, flat)
        except Exception:  # a malformed output can break a check
            problems = [traceback.format_exc(limit=3).strip()]
        if problems:
            return dt, self.fail(op.label, "; ".join(problems))
        return dt, True

    def fail(self, label: str, message: str) -> bool:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{label}: {message}")
        return False


def set_up(workload: str, seed: int, directory: Path):
    digest = gen.write_inputs(gen.generate(workload, seed), str(directory / "in"))
    ops = workloads.prepare(workload, str(directory / "in"), str(directory / "out"))
    return ops, digest


def timed_loop(ops, seconds: float, tally: Tally, cal: Calibrator):
    """Cycle through the ops until ``seconds`` of wall time have passed and
    the last pass over the inputs is complete, so every input is timed.

    The calibration kernel runs between ops, outside their timing.  Returns
    ``(seconds, passed, host-speed factor)`` per op and the loop's wall time.
    """
    seen: dict = {}
    timed = []
    start = time.perf_counter()
    cal.sample(CAL_WARMUP)
    i = 0
    while True:
        t0 = time.perf_counter()
        dt, ok = tally.execute(ops[i % len(ops)], seen)
        timed.append((t0, dt, ok))
        cal.after_op(dt)
        i += 1
        if i % len(ops) == 0 and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return [(dt, ok, cal.factor(t0, t0 + dt)) for t0, dt, ok in timed], wall


def _p90(values: list[float]) -> float:
    # "inclusive" interpolates between samples; the default "exclusive"
    # extrapolates past the largest one when there are fewer than nine.
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(samples) -> tuple[dict, dict]:
    """End-to-end latency metrics over the passing ops at reference host
    speed (each wall time times its op's factor), and the raw figures."""
    passed = [dt * f for dt, ok, f in samples if ok]
    busy = sum(dt * f for dt, _, f in samples)
    latencies = passed or [dt * f for dt, _, f in samples]  # all failed: the run is incorrect
    metrics = {
        "ops_per_s": (len(passed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (_p90(latencies) * 1e3, "ms"),
    }
    wall = [dt for dt, ok, _ in samples if ok] or [dt for dt, _, _ in samples]
    wall_busy = sum(dt for dt, _, _ in samples)
    raw = {"samples": len(samples), "passed_samples": len(passed), "timed_s": wall_busy,
           "wall_ops_per_s": len(passed) / wall_busy,
           "wall_op_p50_ms": statistics.median(wall) * 1e3, "wall_op_p90_ms": _p90(wall) * 1e3,
           "latencies_s": [dt for dt, _, _ in samples],
           "factors": [f for _, _, f in samples]}
    return metrics, raw


def traced_loop(ops, seconds: float, tally: Tally, spans_path: Path):
    """Whole passes over the ops under spans for half of ``seconds``, then
    the same ops untraced; returns the per-layer metrics (times at
    reference host speed), the number of traced ops and the calibration
    summaries of both phases."""
    seen: dict = {}
    tracer = spans.Tracer()
    cal_traced, cal_untraced = Calibrator(), Calibrator()
    cal_traced.sample(CAL_WARMUP)
    traced = 0.0
    n = 0
    start = time.perf_counter()
    tracer.install()
    try:
        while True:
            for op in ops:
                op_id = n
                dt, _ = tally.execute(op, seen, call=lambda f: tracer.run_op(op_id, f))
                cal_traced.after_op(dt)
                traced += dt
                n += 1
            if time.perf_counter() - start >= seconds / 2:
                break
    finally:
        tracer.uninstall()
    untraced = 0.0
    for i in range(n):
        dt, _ = tally.execute(ops[i % len(ops)], seen)
        cal_untraced.after_op(dt)
        untraced += dt

    speed = cal_traced.factor()
    metrics = spans.layer_metrics(tracer.spans, n)
    for name, (value, unit) in metrics.items():
        if unit == "s/op":
            metrics[name] = (value * speed, unit)
    metrics["trace.overhead_ratio"] = (traced * speed / (untraced * cal_untraced.factor()),
                                       "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op", "cells"],
                   "spans": [[s.name, s.start, s.end, s.parent, s.op, s.cells]
                             for s in tracer.spans]}, fh)
    return metrics, n, {"traced": cal_traced.summary(), "untraced": cal_untraced.summary()}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def reference_check(workload: str, directory: Path, tally: Tally) -> dict:
    """Run the recorded reference inputs and compare every output field."""
    with gzip.open(reference_path(workload), "rt") as fh:
        ref = json.load(fh)
    digest = gen.write_inputs(gen.generate(workload, ref["seed"]), str(directory / "in"))
    if digest != ref["inputs_sha256"]:
        tally.attempted += 1
        tally.fail("reference", f"generated inputs differ from the recorded ones ({digest})")
        return {"seed": ref["seed"], "ops": 0}
    ops = workloads.prepare(workload, str(directory / "in"), str(directory / "out"))
    for op in ops:
        tally.execute(op, {}, reference=ref["ops"][op.label])
    return {"seed": ref["seed"], "ops": len(ops)}


def _child(args: list[str]) -> tuple[float, dict]:
    """Run a fresh Python process; return the seconds from just before its
    start to the ``done`` time it prints, and its last stdout line."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} failed in a set-up probe: {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["done"] - started, line


def setup_probes(workload: str, seed: int, n: int, inputs: Path) -> list[tuple[float, float, str]]:
    """Set-up time of fresh processes: interpreter start, imports, input
    generation, writing and loading the files, up to where the first op
    would start.  Each probe is followed by the set-up control job
    (``calibrate.setup_control``) on the run's ``inputs``.  Returns
    (probe seconds, control seconds, input digest) per probe."""
    timed = []
    for _ in range(n):
        probe, line = _child([str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed),
                              "--setup-probe"])
        control, _ = _child([str(CALIBRATE_SCRIPT), str(inputs),
                             str(WORK / f"control-{os.getpid()}")])
        timed.append((probe, control, line["inputs_sha256"]))
    return timed


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args, work: Path) -> tuple[dict, dict]:
    tally = Tally()
    ops, digest = set_up(args.workload, args.seed, work / "run")
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "inputs_sha256": digest, "ops_per_pass": len(ops)}
    if args.trace:
        metrics, n, host = traced_loop(ops, args.seconds, tally,
                                       WORK / f"spans-{args.workload}-seed{args.seed}.json")
        meta.update(traced_ops=n, host_speed=host)
    else:
        cal = Calibrator()
        samples, wall = timed_loop(ops, args.seconds, tally, cal)
        metrics, raw = latency_metrics(samples)
        meta.update(raw, loop_wall_s=wall, host_speed={"loop": cal.summary()})
        # Read before the reference outputs are loaded, which are the
        # benchmark's memory, not the program's.
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    meta["reference"] = reference_check(args.workload, work / "reference", tally)
    if not args.trace:
        probes = setup_probes(args.workload, args.seed, SETUP_PROBES, work / "run" / "in")
        if any(d != digest for _, _, d in probes):
            tally.attempted += 1
            tally.fail("setup", "a set-up probe generated different input bytes for this seed")
        meta.update(setup_samples_s=[t for t, _, _ in probes],
                    setup_control_s=[c for _, c, _ in probes],
                    wall_setup_s=statistics.median(t for t, _, _ in probes))
        reference = SETUP_REFERENCE_S[args.workload]
        metrics["setup_s"] = (statistics.median(t * reference / c for t, c, _ in probes), "s")
        order = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
        metrics = {k: metrics[k] for k in order}
    meta.update({"attempted": tally.attempted, "failed": tally.failed,
                 "fail_ratio": tally.failed / tally.attempted, "problems": tally.problems,
                 "machine": machine_info()})
    return meta, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, digest = set_up(args.workload, args.seed, work)
            print(json.dumps({"done": time.monotonic(), "inputs_sha256": digest}), flush=True)
            return 0
        meta, metrics = run(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in meta["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {meta['fail_ratio']:.6g} "
          f"({meta['failed']} of {meta['attempted']} ops)")
    print(json.dumps(meta, sort_keys=True))
    result = {
        "correct": meta["failed"] == 0,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0

