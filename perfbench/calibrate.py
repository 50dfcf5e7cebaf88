"""Host-speed calibration for the benchmark's timings.

    python3 perfbench/calibrate.py INPUTS DIRECTORY    # a set-up control job

On a shared VM the host's speed drifts by up to ~1.7x over tens of seconds
to minutes, and a process cannot tell the slowdown apart from its own work:
its CPU time grows with its wall time.  Ten runs of 20 s then spread by
11-39 % (IQR over median) whatever latency statistic is taken, beyond any
useful regression bound.

The benchmark therefore times fixed work of its own next to the program's
and reports every time at reference host speed:

- Ops: a kernel that does what price-kit's hot paths do (fancy indexing,
  masks, logs and dot products on 64-element arrays) runs between ops, in
  the same process.  Each op's time is multiplied by ``REFERENCE_S /
  mean(kernel times within WINDOW_S of the op)``.  On a 200 s trace this
  cut the spread of 20 s windows of ``report_large`` from 0.17 to 0.04 and
  of ``screen_small`` from 0.20 to 0.02.
- Set-up: each set-up probe, a fresh process, is followed by the control
  job below, another fresh process that does what the set-up does without
  price-kit: it starts an interpreter, imports numpy, writes the run's
  input files again and parses them back.  The probe's time is multiplied
  by ``SETUP_REFERENCE_S[workload] / control time``.  Interpreter start,
  imports and file creation drift differently from compute, and each
  workload has its own share of them, so a fixed job tracks set-up worse
  than this copy does.

Neither calls price-kit code, but the scaled figures are not purely the
program's own: the kernel runs in whatever state the op leaves behind
(heap growth, caches and TLB filled by larger arrays), so a change that
leaves such state can move the kernel and with it every scaled op time;
and a change to numpy or the interpreter moves both sides.  The raw
wall-clock figures are therefore kept in every run's metadata, and
``suite.py`` prints their medians next to the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

# Kernel time that defines the reported units: the kernel's typical time on
# the machine the first baseline was measured on.
REFERENCE_S = 0.004
# Set-up control job time per workload that defines the reported set-up
# units: the job's typical time on the machine the first baseline was
# measured on.  It differs by workload because the job writes the
# workload's input files (one or two, or 400 for screen_small).
SETUP_REFERENCE_S = {"report_large": 0.16, "simulate_long": 0.16,
                     "screen_small": 0.36, "library_crosscheck": 0.16}
# One kernel sample per this much op time, so long ops are bracketed by
# several samples.
SAMPLE_EVERY_S = 0.2
# An op's factor averages the kernel timings within this many seconds of it.
WINDOW_S = 2.5

_K = 64
_rng = np.random.default_rng(20220221)
_KERNEL = _rng.random((_K, _K)) * (_rng.random((_K, _K)) < 0.5)
_WEIGHTS = _rng.uniform(0.5, 2.0, size=_K)
_ROWS = np.arange(_K)


def kernel() -> float:
    """The fixed calibration work; returns a value so nothing is skipped."""
    total = 0.0
    row_sums = _KERNEL.sum(axis=1)
    for j in range(150):
        w_ab = np.zeros(_K)
        w_ab[_ROWS] = _KERNEL[np.ix_(_ROWS, np.array([j % _K]))].sum(axis=1)
        flow = w_ab * _WEIGHTS
        support = (flow > 1e-12) & (row_sums > 1e-12)
        d = np.zeros(_K)
        d[support] = w_ab[support] / row_sums[support]
        log_d = np.zeros(_K)
        log_d[support] = np.log(d[support])
        total += float(_WEIGHTS @ (-w_ab * log_d))
    return total


class Calibrator:
    """Kernel timings, with their start times, taken during one phase of a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.samples.append(time.perf_counter() - t0)

    def after_op(self, op_seconds: float) -> None:
        self.sample(max(1, round(op_seconds / SAMPLE_EVERY_S)))

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply a wall time by this to get it at reference speed.

        With ``start`` and ``end`` (``perf_counter`` times of an op), only
        kernel timings within ``WINDOW_S`` of the op count: one timing is
        noisy at the millisecond scale, while the host drifts over seconds.
        Without them the whole phase counts.
        """
        lo, hi = 0, len(self.samples)
        if start is not None:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_S / statistics.mean(self.samples[lo:hi])

    def summary(self) -> dict:
        return {"factor": self.factor(), "kernel_mean_s": statistics.mean(self.samples),
                "kernel_samples": len(self.samples)}


def setup_control(inputs: str, directory: str) -> None:
    """The set-up control job: write the files in ``inputs`` again, into
    ``directory``, and parse them back, as a set-up writes and loads them."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(os.listdir(inputs))
    for name in names:
        with open(os.path.join(inputs, name), "rb") as src, \
                open(os.path.join(directory, name), "wb") as dst:
            dst.write(src.read())
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            json.load(fh)


if __name__ == "__main__":
    setup_control(sys.argv[1], sys.argv[2])
    print(json.dumps({"done": time.monotonic()}), flush=True)
    shutil.rmtree(sys.argv[2])
