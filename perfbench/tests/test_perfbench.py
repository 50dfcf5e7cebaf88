"""Tests of the benchmark itself: inputs, spans and the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import gzip
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pricekit  # noqa: E402
from perfbench import bench, calibrate, gen, spans, workloads  # noqa: E402


def _screen_ops(tmp_path, pairs, seed=5):
    gen.write_inputs(gen.generate("screen_small", seed), str(tmp_path / "in"))
    return workloads.prepare("screen_small", str(tmp_path / "in"), str(tmp_path / "out"),
                             pairs=pairs)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.write_inputs(gen.generate(workload, 3), str(tmp_path / "a"))
    second = gen.write_inputs(gen.generate(workload, 3), str(tmp_path / "b"))
    assert first == second
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert gen.write_inputs(gen.generate(workload, 4), str(tmp_path / "c")) != first


def test_setup_control_writes_the_same_input_bytes(tmp_path):
    gen.write_inputs(gen.generate("library_crosscheck", 1), str(tmp_path / "in"))
    calibrate.setup_control(str(tmp_path / "in"), str(tmp_path / "copy"))
    originals = sorted((tmp_path / "in").iterdir())
    assert [p.name for p in originals] == sorted(p.name for p in (tmp_path / "copy").iterdir())
    for path in originals:
        assert (tmp_path / "copy" / path.name).read_bytes() == path.read_bytes()


def test_screen_mix_has_childless_and_injective_pairs():
    docs = gen.generate("screen_small", 0)
    childless = injective = 0
    for i in range(gen.SCREEN_PAIRS):
        kernel = docs[f"p{i:03d}.json"]["kernel"]
        if any(sum(row) == 0 for row in kernel):
            childless += 1
        if all(sum(v > 0 for v in row) == 1 for row in kernel) and \
                all(sum(row[j] > 0 for row in kernel) == 1 for j in range(len(kernel[0]))):
            injective += 1
        assert "quantum" in docs[f"p{i:03d}.json"]
    assert childless == gen.SCREEN_PAIRS // gen.CHILDLESS_EVERY
    assert injective == gen.SCREEN_PAIRS // gen.INJECTIVE_EVERY


def test_spans_nest_and_self_times_fit_in_the_op(tmp_path):
    ops = _screen_ops(tmp_path, pairs=4)
    original = pricekit.entropy.environmental_profile
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            assert tracer.run_op(op_id, op.run) == 0
    finally:
        tracer.uninstall()
    assert pricekit.entropy.environmental_profile is original
    assert pricekit.cli.third_law is pricekit.entropy.third_law

    recorded = tracer.spans
    roots = [s for s in recorded if s.parent < 0]
    assert [s.name for s in roots] == [spans.OP_SPAN] * len(ops)
    for s in recorded:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = recorded[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.op == s.op
    # Internal calls through module globals are seen, not only CLI calls.
    parents = {recorded[s.parent].name for s in recorded
               if s.name == "entropy.environmental_profile"}
    assert {"entropy.third_law", "entropy.generating_profile"} <= parents

    selfs = spans.self_times(recorded)
    for root in roots:
        total = sum(t for s, t in zip(recorded, selfs) if s.op == root.op)
        assert all(t >= -1e-9 for s, t in zip(recorded, selfs) if s.op == root.op)
        assert total <= root.duration + 1e-9

    metrics = spans.layer_metrics(recorded, len(ops))
    assert metrics["cli.calls"][0] > 0 and metrics["quantum.QuantumProcess.calls"][0] == 1
    assert metrics["entropy.cells"][0] > 0


def test_inclusive_time_counts_outermost_spans_only():
    recorded = [spans.Span("bench.op", 0.0, 10.0, -1, 0),
                spans.Span("entropy.third_law", 1.0, 5.0, 0, 0),
                spans.Span("entropy.third_law", 2.0, 3.0, 1, 0)]
    assert spans.inclusive_time(recorded, "entropy.third_law") == 4.0
    assert spans.self_times(recorded) == [6.0, 3.0, 1.0]


def _tamper(op, out_path, edit):
    """Let the op run, then rewrite its output file as a wrong build might."""
    run = op.run

    def corrupted():
        code = run()
        report = json.loads(out_path.read_text())
        edit(report)
        out_path.write_text(json.dumps(report))
        return code

    op.run = corrupted


def test_corrupted_output_is_a_failed_op(tmp_path):
    ops = _screen_ops(tmp_path, pairs=3)

    def shift_entropy(report):
        report["entropy"]["s_ec"] += 1e-3

    _tamper(ops[1], tmp_path / "out" / "report.json", shift_entropy)
    tally = bench.Tally()
    results = [tally.execute(op, {})[1] for op in ops]
    assert results == [True, False, True]
    assert tally.attempted == 3 and tally.failed == 1
    assert "S_EC" in tally.problems[0]

    # The timed loop counts it too, and leaves it out of the latency samples.
    tally = bench.Tally()
    samples, _ = bench.timed_loop(ops[1:2], 0.0, tally, bench.Calibrator())
    assert [ok for _, ok, _ in samples] == [False] and tally.failed == 1


def test_latency_metrics_time_only_passing_ops():
    samples = [(0.2, True, 0.5), (0.4, True, 0.5), (0.1, True, 2.0), (0.3, False, 0.5)]
    metrics, raw = bench.latency_metrics(samples)
    assert metrics["op_p50_ms"][0] == pytest.approx(200.0)
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 0.65)
    assert raw["wall_op_p50_ms"] == pytest.approx(200.0)
    assert (raw["samples"], raw["passed_samples"]) == (4, 3)


def test_output_differing_from_reference_is_a_failed_op(tmp_path):
    ops = _screen_ops(tmp_path, pairs=1)
    op = ops[0]
    reference = op.output(op.run())
    assert op.check(reference) == []

    def nudge_p_star(report):
        report["fitness"]["p_star"] *= 1 + 1e-6

    _tamper(op, tmp_path / "out" / "report.json", nudge_p_star)
    tally = bench.Tally()
    dt, ok = tally.execute(op, {}, reference=reference)
    assert not ok and tally.failed == 1
    assert "fitness.p_star" in tally.problems[0]


def test_changed_output_for_a_repeated_input_is_a_failed_op(tmp_path):
    op = _screen_ops(tmp_path, pairs=1)[0]
    tally = bench.Tally()
    seen = {}
    assert tally.execute(op, seen)[1]

    def drop_a_law(report):
        del report["laws"]["zeroth_law"]

    _tamper(op, tmp_path / "out" / "report.json", drop_a_law)
    assert not tally.execute(op, seen)[1]
    assert tally.attempted == 2 and tally.failed == 1


def test_compare_tolerates_rounding_only():
    ref = {"a": 1.0, "b": 0.0, "c": True, "d": "x"}
    assert workloads.compare(ref, {"a": 1.0 + 1e-13, "b": 1e-15, "c": True, "d": "x"}) == []
    assert workloads.compare(ref, {"a": 1.0 + 1e-6, "b": 0.0, "c": True, "d": "x"})
    assert workloads.compare(ref, {"a": 1.0, "b": 0.0, "c": False, "d": "x"})
    assert workloads.compare(ref, {"a": 1.0, "b": 0.0, "c": True})


def test_reference_files_match_the_generator(tmp_path):
    for workload in gen.WORKLOADS:
        with gzip.open(bench.reference_path(workload), "rt") as fh:
            ref = json.load(fh)
        digest = gen.write_inputs(gen.generate(workload, ref["seed"]), str(tmp_path / workload))
        assert digest == ref["inputs_sha256"], workload
        ops = workloads.prepare(workload, str(tmp_path / workload), str(tmp_path / "out"))
        assert sorted(ref["ops"]) == sorted(op.label for op in ops), workload
