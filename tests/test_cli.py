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
    fitness,
    generating_profile,
    multilevel_second_law,
    price,
    process,
    second_law,
)
from pricekit.cli import main
from pricekit.config import IdentityViolation
from pricekit.laws import DEFAULT_SPEED_GRID
from pricekit.process import FitnessData

from oracles import simulate_csv_by_constructors

LAWS_MODULE = importlib.import_module("pricekit.laws")

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
        true_split = LAWS_MODULE.multilevel_variance
        monkeypatch.setattr(LAWS_MODULE, "multilevel_variance",
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
    pytest.param(dict(F5_DOC, observables={"odd": [1, 2, 3]}), ["report"], None,
                 "observable 'odd' matches neither type set", id="observable"),
    pytest.param(F5_DOC, ["report", "--quantum"], None, "no quantum block in the input file",
                 id="no-quantum-block"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]]}), ["report", "--quantum"],
                 None, "quantum block needs a superoperator or kraus list", id="no-map"),
    pytest.param(F5_DOC, ["report", "--kgs"], None, "no open block in the input file",
                 id="no-open-block"),
    # a field that is missing or of the wrong JSON type is named
    pytest.param(dict(F5_DOC, quantum={"kraus": [[[1, 0], [0, 1]]]}), ["report"], None,
                 "missing required field 'quantum.rho'", id="quantum-no-rho"),
    pytest.param(dict(F5_DOC, quantum={"rho": 5, "kraus": [[[1, 0], [0, 1]]]}), ["report"],
                 None, "field 'quantum.rho' must be a list", id="quantum-rho-number"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]], "kraus": [[1, 2, 3]]}),
                 ["report"], None, "field 'quantum.kraus[0]' must be a list of rows",
                 id="kraus-entry-not-a-matrix"),
    pytest.param(dict(F5_DOC, partitions={"source": [["a", "b"]]}), ["report"], None,
                 "missing required field 'partitions.target'", id="partitions-no-target"),
    pytest.param(dict(F5_DOC, open={}), ["report"], None,
                 "missing required field 'open.orphan_weights'", id="open-no-orphans"),
    pytest.param(dict(F5_DOC, open={"orphan_weights": 5}), ["report"], None,
                 "field 'open.orphan_weights' must be a list", id="orphans-number"),
    pytest.param(dict(F5_DOC, observables=[[1, 0]]), ["report"], None,
                 "field 'observables' must be an object", id="observables-list"),
    pytest.param(dict(F5_DOC, observables={"trait": 1}), ["report"], None,
                 "field 'observables.trait' must be a list", id="observable-number"),
    pytest.param(dict(F5_DOC, types=5), ["validate"], None, "field 'types' must be a list",
                 id="types-number"),
    pytest.param(dict(F5_DOC, kernel={}), ["validate"], None, "field 'kernel' must be a list",
                 id="kernel-object"),
    pytest.param(dict(F5_DOC, weights={}), ["report"], None, "field 'weights' must be a list",
                 id="weights-object"),
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
    # a negative kernel entry is named as such, not by the image formed from it
    pytest.param(dict(F5_DOC, kernel=[[-1, 0], [0, 0.5]]), ["report"], None,
                 "kernel entries must be nonnegative", id="kernel-negative"),
    pytest.param(dict(F5_DOC, kernel=[[-1, 0], [0, 0.5]]), ["validate"], None,
                 "kernel entries must be nonnegative", id="kernel-negative-validate"),
    pytest.param(dict(F5_DOC, target_types=["a", "b"], kernel=[[-1, 0], [0, 0.5]]), ["simulate"],
                 None, "kernel entries must be nonnegative", id="kernel-negative-simulate"),
    pytest.param(dict(F5_DOC, weights=[-1, 2]), ["report"], None,
                 "population weights must be nonnegative", id="weights-negative"),
    # shapes are the library's to check: a kernel, or orphan list, of the wrong length
    pytest.param(dict(F5_DOC, kernel=[[1, 1]]), ["validate"], None,
                 "kernel must be a matrix with one row per source type, got (1, 2)",
                 id="kernel-rows"),
    pytest.param(dict(F5_DOC, target_types=["x"]), ["validate"], None,
                 "kernel must be a matrix with one row per source type and one column per"
                 " target type, got (2, 2)", id="kernel-columns"),
    pytest.param(dict(F5_DOC, target_weights=[3]), ["validate"], None,
                 "kernel must be a matrix with one row per source type and one column per"
                 " target type, got (2, 2)", id="kernel-columns-stated-target"),
    pytest.param(dict(F5_DOC, open={"orphan_weights": [0.5]}), ["report", "--kgs"], None,
                 "orphan weights must be one per child type, got shape (1,)", id="orphan-length"),
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
    pytest.param(dict(F5_DOC, open={"orphan_weights": [0.5, float("nan")]}), ["report"], None,
                 "orphan weights must be finite, got nan at [1]", id="orphans-nan"),
    # the CLI reads orphan weights through the library's check: a negative one
    # is rejected whatever its size
    pytest.param(dict(F5_DOC, open={"orphan_weights": [-1e-10, 0.25]}), ["report", "--kgs"], None,
                 "orphan weights must be nonnegative", id="orphans-slightly-negative"),
    pytest.param(dict(F5_DOC, open={"orphan_weights": [-0.1, 0.25]}), ["report", "--kgs"], None,
                 "orphan weights must be nonnegative", id="orphans-negative"),
    # not a finite value, but no map either: a Kraus list with no operator
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]], "kraus": []}), ["report"],
                 None, "a Kraus list needs at least one operator", id="kraus-empty"),
    # not numbers, nor a block of labels, nor a matrix
    pytest.param(dict(F5_DOC, weights=[1, {}]), ["validate"], None,
                 "population weights are not an array of numbers: float() argument must be"
                 " a string or a real number, not 'dict'", id="weights-object"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "superoperator": [[{}, 0], [0, 1]]}),
                 ["report"], None,
                 "field 'quantum.superoperator' has an entry that is not a number: {}",
                 id="quantum-superoperator-object"),
    pytest.param(dict(F5_DOC, partitions={"source": [5], "target": [["c0", "c1"]]}),
                 ["report"], None, "a partition block must be a list of labels",
                 id="partition-block-number"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]], "kraus": [[]]}), ["report"],
                 None, "each Kraus operator must be a matrix", id="kraus-not-a-matrix"),
    # booleans and numeric strings, which numpy and complex() would read as numbers
    pytest.param(dict(F5_DOC, weights=[True, 2]), ["report", "--laws"], None,
                 "population weights are not an array of numbers: got bool True",
                 id="weights-bool"),
    pytest.param(dict(F5_DOC, weights=["1", "2"]), ["report", "--laws"], None,
                 "population weights are not an array of numbers: got str '1'",
                 id="weights-str"),
    pytest.param(dict(F5_DOC, kernel=[[1, 1], [0.5, False]]), ["validate"], None,
                 "kernel entries are not an array of numbers: got bool False", id="kernel-bool"),
    pytest.param(dict(F5_DOC, target_weights=[2, "1"]), ["validate"], None,
                 "population weights are not an array of numbers: got str '1'",
                 id="target-weights-str"),
    pytest.param(dict(F5_DOC, observables={"trait": [True, 0], "off": [1, 0]}), ["report"],
                 None, "observable values are not an array of numbers: got bool True",
                 id="observable-bool"),
    pytest.param(dict(F5_DOC, open={"orphan_weights": ["0.5", 0]}), ["report"], None,
                 "orphan weights are not an array of numbers: got str '0.5'", id="orphans-str"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[True, 0], [0, 1]],
                                       "kraus": [[[1, 0], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "field 'quantum.rho' has an entry that is not a number: True", id="rho-bool"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "kraus": [[[1, [0, True]], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "field 'quantum.kraus[0]' has an entry that is not a number: [0, True]",
                 id="kraus-imaginary-part-bool"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "kraus": [[[["1", 0], 0], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "field 'quantum.kraus[0]' has an entry that is not a number: ['1', 0]",
                 id="kraus-real-part-str"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0], [0, 1]],
                                       "superoperator": [["1", 0, 0, 0], [0, 1, 0, 0],
                                                         [0, 0, 1, 0], [0, 0, 0, 1]]}),
                 ["report", "--quantum"], None,
                 "field 'quantum.superoperator' has an entry that is not a number: '1'",
                 id="superoperator-str"),
    # an operator input that is not a square matrix is named with its shape
    pytest.param(dict(F5_DOC, quantum={"rho": [[1, 0, 0], [0, 1, 0]],
                                       "kraus": [[[1, 0], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "density operator must be a nonempty square matrix, got shape (2, 3)",
                 id="rho-not-square"),
    pytest.param(dict(F5_DOC, quantum={"rho": [], "kraus": [[[1, 0], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "density operator must be a nonempty square matrix, got shape (0,)",
                 id="rho-empty"),
    # finite inputs whose derived totals overflow: each total is checked where it is formed
    pytest.param(dict(F5_DOC, weights=[1e308, 1e308]), ["report"], None,
                 "total population size overflows: the weights sum to inf",
                 id="population-size-overflow"),
    pytest.param({"types": ["a", "b"], "weights": [1e300, 1e300],
                  "kernel": [[1e10, 1e10], [0.5, 0]]}, ["report"], None,
                 "derived target weights overflow: got inf at [0]", id="target-weights-overflow"),
    pytest.param({"types": ["a", "b"], "weights": [1e300, 1e300],
                  "kernel": [[1e10, 1e10], [0.5, 0]], "target_weights": [1, 1]}, ["validate"],
                 None, "derived target weights overflow: got inf at [0]",
                 id="stated-target-image-overflow"),
    pytest.param({"types": ["a", "b"], "target_types": ["a", "b"], "weights": [1, 2],
                  "kernel": [[1e10, 1e10], [1e10, 0]]}, ["simulate", "--generations", "64"],
                 None, "generation 31 weights overflow: got inf at [0]",
                 id="simulated-generation-overflow"),
    # each generation's fitness is checked right after its child weights, before
    # the next generation is formed
    pytest.param({"types": ["a", "b"], "target_types": ["a", "b"], "weights": [1e-310, 1],
                  "kernel": [[1, 0], [0, 0]]}, ["simulate"], None,
                 "relative fitness W/wbar overflow: got inf at [0]",
                 id="simulated-fitness-overflow"),
    pytest.param({"types": ["a", "b"], "target_types": ["a", "b"], "weights": [1e-310, 1],
                  "kernel": [[1e10, 0], [0, 0]]}, ["simulate", "--generations", "64"], None,
                 "relative fitness W/wbar overflow: got inf at [0]",
                 id="simulated-fitness-overflow-before-image-overflow"),
    # a nilpotent kernel: the second simulated generation has no members
    pytest.param({"types": ["a", "b"], "target_types": ["a", "b"], "weights": [1, 2],
                  "kernel": [[0, 1], [0, 0]]}, ["simulate"], None,
                 "total population size must be positive", id="simulated-population-vanishes"),
    # every entry is finite, but the inverse kernel 1 / W is not
    pytest.param({"types": ["a", "b"], "weights": [1, 2], "kernel": [[1e-310, 0], [0, 1e-310]]},
                 ["report"], None, "inverse kernel overflow: got inf at [0, 0]",
                 id="inverse-kernel-overflow"),
    # U_i = W_i / wbar reaches N / mu_i: a subnormal parent weight overflows it
    pytest.param({"types": ["a", "b"], "weights": [1e-310, 1], "kernel": [[1.0], [0.0]]},
                 ["report"], None, "relative fitness W/wbar overflow: got inf at [0]",
                 id="relative-fitness-overflow"),
    pytest.param(dict(F5_DOC, quantum={"rho": [[1e308, 1e308], [1e308, 1e308]],
                                       "kraus": [[[1, 0], [0, 1]]]}),
                 ["report", "--quantum"], None,
                 "density operator trace overflows: the eigenvalues sum to inf",
                 id="density-trace-overflow"),
    pytest.param({"types": ["a", "b"], "weights": [1e308, 1], "kernel": [[1, 0], [0.5, 0]],
                  "open": {"orphan_weights": [1e308, 0]}}, ["report", "--kgs"], None,
                 "full child weights overflow: got inf at [0]", id="full-child-weights-overflow"),
]


@pytest.mark.parametrize("command, flag", [("report", "--json"), ("simulate", "--out")])
def test_unwritable_output_exits_two(tmp_path, capsys, command, flag):
    """An output path in a missing directory is an I/O failure: one error line, exit 2."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(F5_DOC, target_types=["a", "b"])))
    out = tmp_path / "missing" / "out"
    assert main([command, str(path), flag, str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


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


def test_report_forms_no_composite_kernel(tmp_path, capsys):
    """Each kernel and both populations are finite, and so is every reported
    quantity; their kernel product (1e400) is not, but the report reads the
    composed fitness from p's broods and never forms it."""
    first, follow = tmp_path / "p.json", tmp_path / "q.json"
    first.write_text(json.dumps({"types": ["a"], "weights": [1e-200], "kernel": [[1e200]]}))
    follow.write_text(json.dumps({"types": ["c0"], "weights": [1.0], "kernel": [[1e200]]}))
    assert main(["report", str(first), "--next", str(follow)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["laws"]["multilevel_second_law"]["extras"]["var_composed"] == 0.0
    assert all(report["stationarity"].values())


SAMPLE = json.loads((Path(__file__).parents[1] / "demos" / "sample_process.json").read_text())
SAMPLE_WITH_BLOCKS = dict(
    SAMPLE,
    quantum={"rho": [[0.7, 0.1], [0.1, 0.3]],
             "kraus": [[[1.0, 0.5], [0.0, 0.2]], [[0.0, 0.0], [0.3, 1.0]]]},
    partitions={"source": [["a", "b"]], "target": [["c0"], ["c1"]]},
)
DROP = object()


def _write_mutated(tmp_path, doc, path, value) -> Path:
    """A copy of doc with the entry at the key path set to value (or deleted,
    for DROP), written to a file."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(doc))
    return file


def _commands(path) -> list[str]:
    """report, plus validate and simulate for a top-level key or an entry of a
    top-level list."""
    top_level = len(path) == 1 or isinstance(path[1], int)
    return ["report", "validate", "simulate"] if top_level else ["report"]


def _first_entries(value, path=()):
    """Paths to the first entry of every nonempty list in value, following
    first entries down."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _first_entries(sub, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from _first_entries(value[0], path + (0,))


def _structural_mutations():
    """(document, key path, replacement) for every object key of both documents,
    top level and one level down, with the key dropped or its value replaced,
    and for the first entry of every list, replaced by a value that is no number."""
    for doc_id, doc in (("sample", SAMPLE), ("blocks", SAMPLE_WITH_BLOCKS)):
        paths = [(key,) for key in doc]
        paths += [(key, sub) for key in doc if isinstance(doc[key], dict) for sub in doc[key]]
        cases = [(path, value) for path in paths for value in (DROP, 5, "x", [], {})]
        cases += [(path, value) for path in _first_entries(doc) for value in ({}, [], "x", None)]
        for path, value in cases:
            label = "drop" if value is DROP else json.dumps(value)
            yield pytest.param(doc, path, value,
                               id=f"{doc_id}:{'.'.join(map(str, path))}={label}")


@pytest.mark.parametrize("doc, path, value", list(_structural_mutations()))
def test_structural_mutation_exits_with_one_error_line(tmp_path, capsys, doc, path, value):
    """A document with a key dropped, its value of the wrong JSON type or a
    list entry that is no number is reported, never a traceback: report (and
    validate and simulate, for a top-level key or an entry of a top-level
    list) exits 0, 1 or 2 with nothing or one error line on stderr."""
    file = _write_mutated(tmp_path, doc, path, value)
    for command in _commands(path):
        code = main([command, str(file), "--json", str(tmp_path / "out.json")]
                    if command == "report" else [command, str(file)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), command
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (command, err)


def _nodes(value, path=()):
    """(key path, node) for value and every object member and list entry below it."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numeric(value) -> bool:
    """A number, or a nonempty list whose entries are all numeric."""
    return _is_number(value) or (
        isinstance(value, list) and value != [] and all(map(_is_numeric, value)))


LEAF_VALUES = (float("nan"), float("inf"), -float("inf"), -1, 0, 1e300, -1e300, 1e-300)


def _numeric_mutations():
    """(document, key path, replacement) for every numeric leaf of both documents,
    set to each of LEAF_VALUES, and for every numeric list, with its last entry
    dropped or a copy of it appended."""
    for doc_id, doc in (("sample", SAMPLE), ("blocks", SAMPLE_WITH_BLOCKS)):
        for path, node in _nodes(doc):
            if _is_number(node):
                cases = [(f"={json.dumps(v)}", v) for v in LEAF_VALUES]
            elif isinstance(node, list) and _is_numeric(node):
                cases = [(":drop-last", node[:-1]), (":append", node + node[-1:])]
            else:
                continue
            for label, value in cases:
                yield pytest.param(doc, path, value, id=f"{doc_id}:{'.'.join(map(str, path))}{label}")


def _reject_constant(name):
    raise ValueError(f"report wrote {name}")


@pytest.mark.parametrize("doc, path, value", list(_numeric_mutations()))
def test_numeric_mutation_exits_with_one_error_line(tmp_path, capsys, doc, path, value):
    """A numeric leaf set to NaN, an infinity, a sign flip, zero or an extreme
    magnitude, or a numeric list one entry short or long, is reported, never a
    traceback: report (and validate and simulate, for an entry of a top-level
    list) exits 0, 1 or 2, with one error line when nonzero and, for a report
    that succeeds, strict JSON on stdout."""
    file = _write_mutated(tmp_path, doc, path, value)
    for command in _commands(path):
        code = main([command, str(file)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), command
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        else:
            assert err == "", command
            if command == "report":
                json.loads(out, parse_constant=_reject_constant)


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

    def test_stdout_and_json_file_get_the_same_bytes(self, tmp_path, capsys):
        doc = tmp_path / "sample.json"
        doc.write_text(json.dumps(SAMPLE))
        out_path = tmp_path / "report.json"
        assert main(["report", str(doc), "--json", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["report", str(doc)]) == 0
        assert capsys.readouterr().out.encode() == out_path.read_bytes()

    def test_report_is_one_line_of_strict_json(self, tmp_path, capsys):
        """One line plus a newline, in json.dumps's compact form: re-encoding
        the parsed document gives back every byte."""
        doc = tmp_path / "sample.json"
        doc.write_text(json.dumps(SAMPLE))
        assert main(["report", str(doc)]) == 0
        text = capsys.readouterr().out
        assert text.endswith("}\n") and text.count("\n") == 1
        report = json.loads(text, parse_constant=_reject_constant)
        assert json.dumps(report, sort_keys=True) + "\n" == text

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
        calls = []

        def counted(p, q, *args, _classify=LAWS_MODULE.stationarity, **kwargs):
            calls.append((p, q))
            return _classify(p, q, *args, **kwargs)

        monkeypatch.setattr(LAWS_MODULE, "stationarity", counted)
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
        assert float(rows[0]["S_NS"]) == fitness(p).s_ns

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

    @pytest.mark.parametrize("scale", [1.0, 1e-60, 1e60])
    def test_csv_is_that_of_the_public_constructors(self, tmp_path, scale):
        """Each generation is taken over as built; the front doors give the same bytes."""
        kernel = np.random.default_rng(28).uniform(0.05, 1.0, (12, 12))
        kernel[0] = 0.0                                    # a childless type
        weights = np.linspace(0.1, 2.0, 12) * scale
        path, out = self._write(tmp_path, kernel.tolist(), weights.tolist()), tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "16", "--out", str(out)]) == 0
        types = TypeSet([f"t{i}" for i in range(12)])
        p = Process(Population(types, weights), Population(types, kernel.T @ weights), kernel)
        assert out.read_bytes() == simulate_csv_by_constructors(p, 16).encode()

    @pytest.mark.parametrize("kernel, weights, generations", [
        # K = 1: m2 = 1 is on the grid already, which has 5 points
        pytest.param([[1.5]], [2.0], 8, id="one-type"),
        # U_b is childbearing at t = 0 and read as 0 from t = 1 on
        pytest.param([[2.0, 0.0], [0.0, 1.5e-12]], [1.0, 1.0], 8, id="support-changes"),
        # every E[U^(2+c)] overflows at t = 0, so the basic bound is vacuous there
        pytest.param([[1e150, 0.0], [0.0, 1.0]], [1e-200, 1.0], 1, id="vacuous-basic-bound"),
    ])
    def test_stacked_edge_cases_are_those_of_the_public_constructors(
            self, tmp_path, kernel, weights, generations):
        path, out = self._write(tmp_path, kernel, weights), tmp_path / "traj.csv"
        argv = ["simulate", path, "--generations", str(generations), "--out", str(out)]
        assert main(argv) == 0
        types = TypeSet([f"t{i}" for i in range(len(weights))])
        k = np.array(kernel)
        p = Process(Population(types, weights), Population(types, k.T @ np.array(weights)), k)
        assert out.read_bytes() == simulate_csv_by_constructors(p, generations).encode()

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
        """U log U is evaluated once per run, in the one fitness summary of all
        generations that both law chains read, and x log x of the flow shares
        once per generation for S_EC.  The laws themselves call it on no U."""
        path, _, _ = self._random_doc(tmp_path)
        calls = {}
        for name in ("measure", "process", "entropy", "quantum"):
            module = importlib.import_module(f"pricekit.{name}")

            def counted(x, _name=name, _xlogx=module.xlogx):
                calls[_name] = calls.get(_name, 0) + 1
                return _xlogx(x)

            monkeypatch.setattr(module, "xlogx", counted)
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--generations", "6", "--out", str(out)]) == 0
        assert calls == {"process": 1, "entropy": 7}

    def test_stacked_moments_are_read_through_fitness_data(self, tmp_path, monkeypatch):
        """The stacked speed limits read E[U^2] once, and E[U^(2+c)] once per grid
        column for all generations, through FitnessData.moment as speed_limits does."""
        path, _, _ = self._random_doc(tmp_path)
        shapes = []
        moment = FitnessData.moment
        monkeypatch.setattr(FitnessData, "moment",
                            lambda fd, k: shapes.append(np.shape(k)) or moment(fd, k))
        assert main(["simulate", path, "--generations", "6", "--out", str(tmp_path / "t.csv")]) == 0
        assert shapes == [()] + [(7, 1)] * (len(DEFAULT_SPEED_GRID) + 1)

    def test_non_endomorphic_rejected(self, f5_file):
        assert main(["simulate", f5_file]) == 1

    def test_generation_guard(self, tmp_path):
        path = self._write(tmp_path, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert main(["simulate", path, "--generations", "65"]) == 1
