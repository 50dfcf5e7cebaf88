import csv
import json

import numpy as np
import pytest

from pricekit import (
    Observable,
    Population,
    TypeSet,
    generating_profile,
    price,
    process,
    second_law,
    selective_entropy,
)
from pricekit.cli import main

F5_DOC = {
    "types": ["a", "b"],
    "weights": [1, 2],
    "kernel": [[1, 1], [0.5, 0]],
    "observables": {"trait": [1, 0], "offspring_trait": [1, 0]},
}


@pytest.fixture
def f5_file(tmp_path):
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(F5_DOC))
    return str(path)


class TestValidate:
    def test_valid_file_exits_zero(self, f5_file, capsys):
        assert main(["validate", f5_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_mismatched_target_exits_one(self, tmp_path, capsys):
        doc = dict(F5_DOC, target_weights=[2, 5])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "residual" in out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_missing_field_exits_two(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"types": ["a"], "weights": [1]}))
        assert main(["validate", str(path)]) == 2

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        doc = dict(F5_DOC, target_weights=[2.0, 1.0 + 5e-7])
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        monkeypatch.setenv("PRICEKIT_TOLERANCE", "1e-3")
        assert main(["validate", str(path)]) == 0


class TestValidationGate:
    """report, report --next and simulate analyze only documents that pass
    validation at the tolerance in force."""

    def _write(self, tmp_path, name, **fields):
        path = tmp_path / name
        path.write_text(json.dumps(dict(F5_DOC, **fields)))
        return str(path)

    def test_report_rejects_invalid_document(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.json", target_weights=[2, 5])
        assert main(["report", bad]) == 1
        err = capsys.readouterr().err
        assert bad in err and "residual" in err

    def test_report_rejects_invalid_follow_up(self, f5_file, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.json", target_weights=[2, 5])
        assert main(["report", f5_file, "--next", bad]) == 1
        assert bad in capsys.readouterr().err

    def test_simulate_rejects_invalid_document(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.json", target_types=["a", "b"], target_weights=[2, 5])
        assert main(["simulate", bad]) == 1
        assert bad in capsys.readouterr().err

    def test_report_reads_tolerance_env(self, tmp_path, monkeypatch):
        loose = self._write(tmp_path, "loose.json", target_weights=[2.0, 1.0 + 5e-7])
        out = str(tmp_path / "out.json")
        assert main(["report", loose, "--json", out]) == 1
        monkeypatch.setenv("PRICEKIT_TOLERANCE", "1e-3")
        assert main(["report", loose, "--json", out]) == 0


class TestReport:
    def test_values_match_library(self, f5_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["report", f5_file, "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())

        src = Population(TypeSet(["a", "b"]), [1, 2])
        p = process(src, [[1, 1], [0.5, 0]])
        d = price(p, Observable(src.types, [1, 0]), Observable(p.target.types, [1, 0]))
        got = report["price"]["trait->offspring_trait"]
        assert got["delta"] == d.delta and got["ns"] == d.ns and got["ec"] == d.ec

        rep = second_law(p)
        assert report["laws"]["second_law"]["lhs"] == rep.lhs
        assert report["laws"]["second_law"]["bounds"] == list(rep.bounds)

        prof = generating_profile(p)
        assert report["entropy"]["s_ns"] == prof.s_ns
        assert report["entropy"]["s_ec"] == prof.s_ec
        assert report["purity"] == "mixed"
        assert report["schema_version"] == 1

    def test_report_round_trips(self, f5_file, tmp_path):
        out_path = tmp_path / "report.json"
        main(["report", f5_file, "--json", str(out_path)])
        report = json.loads(out_path.read_text())
        again = json.loads(json.dumps(report))
        assert again == report

    def test_flag_selects_sections(self, f5_file, capsys):
        assert main(["report", f5_file, "--laws"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "laws" in report and "entropy" not in report

    def test_second_process_adds_stationarity(self, f5_file, tmp_path, capsys):
        follow = {
            "types": ["c0", "c1"],
            "weights": [2, 1],
            "kernel": [[0.5, 0.5], [0.5, 0.5]],
        }
        follow_path = tmp_path / "follow.json"
        follow_path.write_text(json.dumps(follow))
        assert main(["report", f5_file, "--next", str(follow_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "stationarity" in report
        assert "ec_variance_bound" in report["laws"]

    def test_kgs_section(self, tmp_path, capsys):
        doc = dict(F5_DOC)
        doc["open"] = {"orphan_weights": [0.5, 0.25]}
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--kgs"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["kgs"]["residual"]) < 1e-10

    def test_quantum_section(self, tmp_path, capsys):
        doc = dict(F5_DOC)
        doc["quantum"] = {
            "rho": [[1.0, 0.0], [0.0, 1.0]],
            "kraus": [[[1.4142135623730951, 0.0], [0.0, 0.0]]],
        }
        path = tmp_path / "quantum.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--quantum"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quantum"]["p_star"] == pytest.approx(0.5)
        assert report["quantum"]["left_residual"] < 1e-9
        assert report["quantum"]["laws"]["second"]["lhs"] == pytest.approx(-np.log(2))

    def test_bernoulli_entropy_values_in_report(self, tmp_path, capsys):
        doc = {"types": ["o"], "weights": [1.0], "kernel": [[0.3, 0.7]]}
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--entropy"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert report["entropy"]["s_dis"] == pytest.approx(expected, abs=1e-12)
        assert report["entropy"]["s_mix"] == pytest.approx(0.0, abs=1e-12)


class TestSimulate:
    def _write(self, tmp_path, kernel, weights):
        doc = {
            "types": [f"t{i}" for i in range(len(weights))],
            "target_types": [f"t{i}" for i in range(len(weights))],
            "weights": weights,
            "target_weights": list(np.asarray(kernel).T @ np.asarray(weights)),
            "kernel": kernel,
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _rows(self, path):
        with open(path) as fh:
            reader = csv.DictReader(fh)
            return list(reader)

    def test_markov_kernel_keeps_zero_selective_entropy(self, tmp_path):
        path = self._write(tmp_path, [[0.3, 0.7], [0.6, 0.4]], [1.0, 1.0])
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "6", "--out", str(out)]) == 0
        rows = self._rows(out)
        assert len(rows) == 7
        assert all(abs(float(r["S_NS"])) < 1e-12 for r in rows)

    def test_diagonal_kernel_grows_geometrically(self, tmp_path):
        path = self._write(tmp_path, [[2.0, 0.0], [0.0, 2.0]], [1.0, 3.0])
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "5", "--out", str(out)]) == 0
        rows = self._rows(out)
        sizes = [float(r["N"]) for r in rows]
        for t, n in enumerate(sizes):
            assert n == pytest.approx(4.0 * 2.0**t, rel=1e-12)

    def test_mixed_kernel_slacks_nonnegative(self, tmp_path):
        path = self._write(tmp_path, [[1.0, 0.8], [0.2, 0.7]], [1.0, 2.0])
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "8", "--out", str(out)]) == 0
        for row in self._rows(out):
            assert float(row["second_law_slack"]) >= -1e-9
            assert float(row["speed_limit_slack"]) >= -1e-9

    def test_floats_round_trip_exactly(self, tmp_path):
        path = self._write(tmp_path, [[1.0, 0.8], [0.2, 0.7]], [1.0, 2.0])
        out = tmp_path / "traj.csv"
        main(["simulate", path, "--generations", "2", "--out", str(out)])
        rows = self._rows(out)
        p = process(
            Population(TypeSet(["t0", "t1"]), [1.0, 2.0]),
            [[1.0, 0.8], [0.2, 0.7]],
        )
        assert float(rows[0]["S_NS"]) == selective_entropy(p)

    def test_non_endomorphic_rejected(self, f5_file):
        assert main(["simulate", f5_file]) == 1

    def test_generation_guard(self, tmp_path):
        path = self._write(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert main(["simulate", path, "--generations", "65"]) == 1
