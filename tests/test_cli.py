import ast
import csv
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import pricekit
from pricekit import (
    Observable,
    Population,
    Process,
    TypeSet,
    generating_profile,
    multilevel_second_law,
    price,
    process,
    second_law,
    selective_entropy,
)
from pricekit.cli import main
from pricekit.config import IdentityViolation

PRICE_MODULE = importlib.import_module("pricekit.price")  # pricekit.price is the function

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
        # Stated child mass 1e-4 off the kernel image: report analyzes what
        # validate accepts, since U has unit mean whatever N' is stated.
        looser = self._write(tmp_path, "looser.json", target_weights=[2.0002, 1.0])
        assert main(["validate", looser]) == 0
        assert main(["report", looser, "--json", out]) == 0

    def test_kernel_without_child_mass_exits_one(self, tmp_path, monkeypatch, capsys):
        empty = self._write(tmp_path, "empty.json", kernel=[[0, 0], [0, 0]],
                            target_weights=[2, 1])
        monkeypatch.setenv("PRICEKIT_TOLERANCE", "10")
        assert main(["validate", empty]) == 0
        assert main(["report", empty]) == 1
        assert "no child mass" in capsys.readouterr().err


class TestErrorMapping:
    def test_source_has_no_asserts(self):
        """Failures are typed: no assert statement or AssertionError in src."""
        for path in sorted(Path(pricekit.__file__).parent.glob("*.py")):
            text = path.read_text()
            assert "AssertionError" not in text, path.name
            assert not any(isinstance(n, ast.Assert) for n in ast.walk(ast.parse(text))), path.name

    def test_identity_violation_exits_one_with_its_residual(self, f5_file, tmp_path,
                                                            monkeypatch, capsys):
        # A two-level variance split off by 1e-3 breaks multilevel_second_law's
        # check that both variance routes give the same bound.
        follow = tmp_path / "follow.json"
        follow.write_text(json.dumps(
            {"types": ["c0", "c1"], "weights": [2, 1], "kernel": [[0.5, 1.5], [1.0, 0.0]]}))
        true_split = PRICE_MODULE.multilevel_variance
        monkeypatch.setattr(PRICE_MODULE, "multilevel_variance",
                            lambda p, q: np.add(true_split(p, q), (1e-3, 0.0)))
        p = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1, 1], [0.5, 0]])
        with pytest.raises(IdentityViolation) as info:
            multilevel_second_law(p, process(p.target, [[0.5, 1.5], [1.0, 0.0]]))
        exc = info.value
        assert exc.name == "multilevel_variance_routes" and exc.residual > exc.tolerance
        assert main(["report", f5_file, "--laws", "--next", str(follow)]) == 1
        err = capsys.readouterr().err
        for part in (exc.name, f"{exc.residual:.3e}", f"{exc.tolerance:.3e}"):
            assert part in err


REJECTED_INPUTS = [
    # (document, argv after the file, PRICEKIT_TOLERANCE, message on stderr)
    pytest.param(F5_DOC, ["validate"], "loose", "bad PRICEKIT_TOLERANCE value: 'loose'",
                 id="tolerance"),
    # a stated target 0.8 off the kernel image fails validation at any tolerance >= 0
    pytest.param(dict(F5_DOC, target_weights=[2, 5]), ["report"], "nan",
                 "PRICEKIT_TOLERANCE must be a number >= 0, got 'nan'", id="tolerance-nan"),
    pytest.param(F5_DOC, ["validate"], "-1e-9",
                 "PRICEKIT_TOLERANCE must be a number >= 0, got '-1e-9'", id="tolerance-negative"),
    pytest.param([F5_DOC], ["validate"], None, "top-level JSON value must be an object",
                 id="not-an-object"),
    pytest.param(dict(F5_DOC, kernel=[[1, 1]]), ["validate"], None,
                 "kernel must have one row per source type", id="kernel-rows"),
    pytest.param(dict(F5_DOC, target_types=["x"]), ["validate"], None,
                 "kernel must have one column per target type", id="kernel-columns"),
    pytest.param(dict(F5_DOC, observables={"odd": [1, 2, 3]}), ["report"], None,
                 "observable 'odd' matches neither type set", id="observable"),
    pytest.param(F5_DOC, ["report", "--quantum"], None, "no quantum block in the input file",
                 id="no-quantum-block"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]]}), ["report", "--quantum"],
                 None, "quantum block needs a superoperator or kraus list", id="no-map"),
    pytest.param(F5_DOC, ["report", "--kgs"], None, "no open block in the input file",
                 id="no-open-block"),
    pytest.param(dict(F5_DOC, open={"orphan_weights": [0.5]}), ["report", "--kgs"], None,
                 "orphan weights must match the target type set", id="orphan-length"),
]


# Values a document may hold but no process can: exit 1, as any ValueError.
# json writes and reads NaN and Infinity as bare tokens.
NON_FINITE_INPUTS = [
    pytest.param(dict(F5_DOC, kernel=[[1.0, float("nan")], [0.5, 0.0]]), ["report"], None,
                 "kernel entries must be finite, got nan at [0, 1]", id="kernel-nan"),
    pytest.param(dict(F5_DOC, kernel=[[1.0, float("nan")], [0.5, 0.0]]), ["validate"], None,
                 "kernel entries must be finite, got nan at [0, 1]", id="kernel-nan-validate"),
    pytest.param(dict(F5_DOC, kernel=[[1.0, 1.0], [float("inf"), 0.0]], target_weights=[3, 2]),
                 ["report"], None, "kernel entries must be finite, got inf at [1, 0]",
                 id="kernel-inf-stated-target"),
    pytest.param(dict(F5_DOC, weights=[1, float("nan")]), ["simulate"], None,
                 "population weights must be finite, got nan at [1]", id="weights-nan"),
    pytest.param(dict(F5_DOC, target_weights=[float("-inf"), 1]), ["validate"], None,
                 "population weights must be finite, got -inf at [0]", id="target-weights-inf"),
    pytest.param(dict(F5_DOC, observables={"trait": [float("nan"), 0], "off": [1, 0]}),
                 ["report"], None, "observable values must be finite, got nan at [0]",
                 id="observable-nan"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[float("nan"), 0], [0, 1]],
                                       "kraus": [[[1, 0], [0, 1]]]}),
                 ["report"], None, "density operator entries must be finite, got (nan+0j) at [0, 0]",
                 id="quantum-rho-nan"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "kraus": [[[1, float("nan")], [0, 1]]]}),
                 ["report"], None, "Kraus operator entries must be finite, got (nan+0j) at [0, 0, 1]",
                 id="quantum-kraus-nan"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "superoperator": np.diag([1, 0, 0, float("inf")]).tolist()}),
                 ["report"], None, "superoperator entries must be finite, got (inf+0j) at [3, 3]",
                 id="quantum-superoperator-inf"),
]


def _exit_and_error(tmp_path, monkeypatch, capsys, doc, argv, tolerance):
    if tolerance is not None:
        monkeypatch.setenv("PRICEKIT_TOLERANCE", tolerance)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main([argv[0], str(path), *argv[1:]]), capsys.readouterr().err


@pytest.mark.parametrize("doc, argv, tolerance, message", REJECTED_INPUTS)
def test_rejected_input_exits_two(tmp_path, monkeypatch, capsys, doc, argv, tolerance, message):
    assert _exit_and_error(tmp_path, monkeypatch, capsys, doc, argv, tolerance) == (
        2, f"error: {message}\n")


@pytest.mark.parametrize("doc, argv, tolerance, message", NON_FINITE_INPUTS)
def test_non_finite_input_exits_one(tmp_path, monkeypatch, capsys, doc, argv, tolerance, message):
    assert _exit_and_error(tmp_path, monkeypatch, capsys, doc, argv, tolerance) == (
        1, f"error: {message}\n")


def test_non_finite_report_value_is_never_written(tmp_path, monkeypatch, capsys):
    """The report encoder is strict: a NaN that reaches it exits 1 with nothing on stdout."""
    monkeypatch.setattr(pricekit.cli, "_law_section", lambda p, q: {"lhs": float("nan")})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(F5_DOC))
    assert main(["report", str(path), "--laws"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Out of range float values")


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

    def test_next_classifies_the_pair_once(self, f5_file, tmp_path, monkeypatch, capsys):
        """Both EC bounds read only the strong flag, so report --next runs the
        full stationarity classification once, for its own section."""
        follow = tmp_path / "follow.json"
        follow.write_text(json.dumps(
            {"types": ["c0", "c1"], "weights": [2, 1], "kernel": [[0.5, 1.5], [1.0, 0.0]]}))
        laws = importlib.import_module("pricekit.laws")
        calls = []

        def counted(p, q, *args, _classify=laws.stationarity, **kwargs):
            calls.append((p, q))
            return _classify(p, q, *args, **kwargs)

        monkeypatch.setattr(laws, "stationarity", counted)
        monkeypatch.setattr("pricekit.cli.stationarity", counted)
        assert main(["report", f5_file, "--next", str(follow)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        strong = report["stationarity"]["strong"]
        for name in ("ec_variance_bound", "ec_selective_entropy_bound"):
            assert report["laws"][name]["extras"]["strongly_stationary"] == strong

    def test_exp_first_law_overflow_leaves_the_law_out(self, tmp_path, capsys):
        """U = (1001, 0): e^U overflows, so the report omits exp_first_law and
        keeps every other law."""
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"types": ["a", "b"], "weights": [1, 1000],
                                    "kernel": [[1.0], [0.0]]}))
        assert main(["report", str(path), "--laws"]) == 0
        laws = json.loads(capsys.readouterr().out)["laws"]
        assert "exp_first_law" not in laws
        assert {"zeroth_law", "second_law", "higher_order_first_law[n=3]"} <= set(laws)

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

    def test_kraus_block_is_positive_by_construction(self, tmp_path, capsys, monkeypatch):
        """A Kraus list builds its map without the Choi certificate, and the
        deciding rule stays out of the report."""
        def no_certificate(*args):
            raise AssertionError("the certificate ran on a Kraus map")

        monkeypatch.setattr(pricekit.quantum, "_cp_certified", no_certificate)
        doc = dict(F5_DOC)
        doc["quantum"] = {"rho": [[0.7, 0.1], [0.1, 0.3]],
                          "kraus": [[[1.0, 0.5], [0.0, 0.2]], [[0.0, 0.0], [0.3, 1.0]]]}
        path = tmp_path / "quantum.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--quantum"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "positivity" not in json.dumps(report)

    def _quantum_report(self, tmp_path, superoperator):
        doc = dict(F5_DOC)
        doc["quantum"] = {"rho": [[0.7, 0.1], [0.1, 0.3]], "superoperator": superoperator}
        path = tmp_path / "quantum.json"
        path.write_text(json.dumps(doc))
        return main(["report", str(path), "--quantum"])

    def test_non_positive_superoperator_exits_one(self, tmp_path, capsys):
        minus_identity = (-np.eye(4)).tolist()
        assert self._quantum_report(tmp_path, minus_identity) == 1
        assert "positive cone" in capsys.readouterr().err

    def test_superoperator_that_breaks_hermiticity_exits_one(self, tmp_path, capsys):
        left_multiply = np.kron(np.eye(2), [[1.0, 2.0], [0.0, 1.0]]).tolist()
        assert self._quantum_report(tmp_path, left_multiply) == 1
        assert "does not preserve Hermiticity" in capsys.readouterr().err

    def test_transpose_superoperator_keeps_the_quantum_keys(self, tmp_path, capsys):
        transpose = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert self._quantum_report(tmp_path, transpose) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["quantum"]) == {
            "wbar", "p_star", "left_residual", "right_residual", "commutator_gap_imag", "laws",
        }

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

    def _random_doc(self, tmp_path, seed=12, k=12):
        rng = np.random.default_rng(seed)
        kernel = rng.uniform(0.05, 2.0, (k, k)) * (rng.random((k, k)) < 0.6)
        kernel[0] = 0.0                                    # a childless type
        weights = rng.uniform(0.1, 2.0, k)
        return self._write(tmp_path, kernel.tolist(), weights.tolist()), kernel, weights

    def test_entropy_columns_are_the_generating_profile(self, tmp_path):
        path, kernel, weights = self._random_doc(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "10", "--out", str(out)]) == 0
        types = TypeSet([f"t{i}" for i in range(len(weights))])
        current = Population(types, weights)
        for row in self._rows(out):
            step = Process(current, Population(types, kernel.T @ current.weights), kernel,
                           _check=False)
            prof = generating_profile(step)
            assert float(row["S_NS"]) == prof.s_ns
            assert float(row["S_EC"]) == prof.s_ec
            current = step.target

    def test_builds_no_partition_or_cells(self, tmp_path, monkeypatch):
        """S_EC comes from the flow shares, not from a singleton profile."""
        path, _, _ = self._random_doc(tmp_path)
        expected, out = tmp_path / "expected.csv", tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "6", "--out", str(expected)]) == 0

        def forbidden(*args, **kwargs):
            raise RuntimeError("simulate built a partition profile")

        monkeypatch.setattr("pricekit.entropy.cell_arrays", forbidden)
        monkeypatch.setattr(pricekit.Partition, "__init__", forbidden)
        assert main(["simulate", path, "--generations", "6", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_u_log_u_once_per_generation(self, tmp_path, monkeypatch):
        """Each generation evaluates x log x twice: U log U once, in the
        fitness summary that both law chains read, and the flow shares once
        for S_EC.  The laws themselves call it on no U."""
        path, _, _ = self._random_doc(tmp_path)
        calls = {}
        for name in ("measure", "process", "laws", "entropy", "quantum"):
            module = importlib.import_module(f"pricekit.{name}")

            def counted(x, _name=name, _xlogx=module.xlogx):
                calls[_name] = calls.get(_name, 0) + 1
                return _xlogx(x)

            monkeypatch.setattr(module, "xlogx", counted)
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "6", "--out", str(out)]) == 0
        assert calls == {"process": 7, "entropy": 7}

    def test_non_endomorphic_rejected(self, f5_file):
        assert main(["simulate", f5_file]) == 1

    def test_generation_guard(self, tmp_path):
        path = self._write(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert main(["simulate", path, "--generations", "65"]) == 1
