"""The fitness record is computed once per process and read by every law,
entropy and quantum function; the vectorized stationarity classes and
reversibility inverses match their per-row loops, and the whole-array
kernels their gather-scatter forms, exactly."""

import functools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pricekit
from pricekit import (
    Observable,
    Population,
    Process,
    QuantumProcess,
    TypeSet,
    embed_observable,
    embed_process,
    fitness,
    generating_profile,
    local_average,
    process,
    q_factorize,
    q_laws,
    q_partition_entropy,
    q_price,
    reversibility,
    stationarity,
    zeroth_law,
)
from pricekit.cli import main
from pricekit.config import EPS_SAT, EPS_ZERO
from pricekit.process import summarize_fitness
from pricekit.quantum import hermitize, unvec, vec

from conftest import childless_composable_pair, random_composable_pair, random_process
from oracles import (
    adjoint,
    local_average_by_mask,
    reversibility_kernels_by_loop,
    stationarity_by_loop,
    u2_log_u_by_mask,
)


# ---------------------------------------------------------------------------
# Compute once


def count_fitness_builds(monkeypatch) -> Counter:
    """Count FitnessData builds per Process; the processes are kept alive so
    that no id is reused."""
    counts, seen = Counter(), []
    build = Process.__dict__["fitness_data"].func

    def counting(self):
        counts[id(self)] += 1
        seen.append(self)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(Process, "fitness_data")
    monkeypatch.setattr(Process, "fitness_data", prop)
    return counts


def record_eigendecompositions(monkeypatch) -> list:
    """Copies of every matrix handed to eigh / eigvalsh."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            seen.append(np.array(a, copy=True))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def fitness_decompositions(w: QuantumProcess, seen: list) -> int:
    """How many recorded matrices are w's fitness operator W or U = W/wbar."""
    w_op = hermitize(unvec(adjoint(w) @ vec(np.eye(w.target.dim, dtype=complex)), w.source.dim))
    u_op = w_op / (w.target.trace / w.source.trace)
    return sum(
        m.shape == w_op.shape and any(np.allclose(m, op, rtol=1e-12, atol=1e-12)
                                      for op in (w_op, u_op))
        for m in seen
    )


def test_report_computes_fitness_once_per_process(tmp_path, monkeypatch):
    doc = {
        "types": ["a", "b", "c"],
        "weights": [1.0, 2.0, 0.5],
        "kernel": [[1.0, 0.5, 0.0], [0.2, 0.0, 0.9], [0.0, 0.0, 0.0]],
        "observables": {"trait": [1.0, 0.0, 2.0]},
        "partitions": {"source": [["a", "b"], ["c"]], "target": [["c0"], ["c1", "c2"]]},
        "open": {"orphan_weights": [0.5, 0.25, 0.0]},
        "quantum": {
            "rho": [[1.0, 0.2], [0.2, 0.5]],
            "kraus": [[[1.0, 0.5], [0.0, 0.3]], [[0.2, 0.0], [0.4, 1.0]]],
        },
    }
    nxt = {
        "types": ["c0", "c1", "c2"],
        "weights": list(np.array(doc["kernel"]).T @ doc["weights"]),
        "kernel": [[0.5, 1.0], [1.5, 0.0], [0.3, 0.3]],
    }
    path, path_next = tmp_path / "p.json", tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    path_next.write_text(json.dumps(nxt))

    builds = count_fitness_builds(monkeypatch)
    quantum = []
    init = QuantumProcess.__init__

    def recording_init(self, *args, **kwargs):
        quantum.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuantumProcess, "__init__", recording_init)
    seen = record_eigendecompositions(monkeypatch)
    out = tmp_path / "out.json"
    assert main(["report", str(path), "--next", str(path_next), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {"laws", "entropy", "quantum", "kgs", "stationarity"} <= set(report)
    assert "block_third_law" in report["entropy"]

    assert len(builds) >= 2  # p and q at least
    assert max(builds.values()) == 1
    assert len(quantum) == 1
    assert fitness_decompositions(quantum[0], seen) == 1


def test_report_next_builds_one_fitness_record_for_q(tmp_path, monkeypatch):
    """q's weights are 1 ulp off p's target: the report reads q on p's target
    once, and every pair function reads that process and its one record."""
    doc = {"types": ["a", "b"], "weights": [1.0, 2.0], "kernel": [[1.0, 1.0], [0.5, 0.0]]}
    target = np.array(doc["kernel"]).T @ doc["weights"]
    nxt = {"types": ["c0", "c1"], "weights": list(np.nextafter(target, np.inf)),
           "kernel": [[0.5, 1.5], [1.0, 0.0]]}
    path, path_next = tmp_path / "p.json", tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    path_next.write_text(json.dumps(nxt))
    records = []
    build = Process.__dict__["fitness_data"].func
    prop = functools.cached_property(lambda self: records.append(self) or build(self))
    prop.__set_name__(Process, "fitness_data")
    monkeypatch.setattr(Process, "fitness_data", prop)
    assert main(["report", str(path), "--next", str(path_next), "--json",
                 str(tmp_path / "out.json")]) == 0
    on_q_source = [r for r in records if r.source.types == TypeSet(nxt["types"])]
    assert len(on_q_source) == 1
    assert list(on_q_source[0].source.weights) == list(target)


def test_quantum_functions_share_one_decomposition(monkeypatch):
    rng = np.random.default_rng(401)
    p = random_process(rng, kmax=4, kmin=3)
    k, k2 = p.kernel.shape
    w = embed_process(p)
    seen = record_eigendecompositions(monkeypatch)
    x = embed_observable(rng.normal(size=k))
    y = embed_observable(rng.normal(size=k2))
    q_laws(w)
    q_price(w, x, y)
    q_factorize(w)
    q_partition_entropy(w, [np.diag(r) for r in np.eye(k)], [np.diag(r) for r in np.eye(k2)])
    assert fitness_decompositions(w, seen) == 1


def test_projection_cells_take_one_eigh_of_the_cell_stack(monkeypatch):
    """One eigh of the stacked source projections gives their range bases;
    every cell is then diagonalized in its range, as one (nA, nB, r, r) stack,
    and no d x d matrix of a cell reaches eigh."""
    rng = np.random.default_rng(403)
    p = random_process(rng, kmax=5, kmin=3)
    k, k2 = p.kernel.shape
    w = embed_process(p)
    fitness(w)
    seen = record_eigendecompositions(monkeypatch)
    q_partition_entropy(w, [np.diag(r) for r in np.eye(k)], [np.diag(r) for r in np.eye(k2)])
    assert [m.shape for m in seen] == [(k, k, k), (k, k2, 1, 1)]


def test_fitness_is_cached():
    """One record per process, kernel or operator, with one accessor: its
    arrays are read-only and it has no second view of them."""
    rng = np.random.default_rng(402)
    p = random_process(rng)
    w = embed_process(p)
    assert fitness(p) is fitness(p)
    assert fitness(w) is fitness(w)
    for fd in (fitness(p), fitness(w)):
        for a in (fd.u, fd.prob, fd.u_log_u, fd.support):
            assert not a.flags.writeable
        assert not hasattr(fd, "summary") and not hasattr(fd, "eigvals")
    assert not fitness(w).eigvecs.flags.writeable
    assert not hasattr(pricekit, "q_fitness")


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_selective_entropy_is_the_summary_value(scale):
    """One S_NS: rows whose relative fitness sits at the zero threshold count
    the same way in the fitness record, the profile and the law chains."""
    weights = np.array([1.0, 0.7, 1.3, 0.4])
    kernel = np.array([[1.0, 0.0, 0.0], [0.5, 0.2, 0.0], [0.0, 1.1, 0.6], [0.3, 0.0, 0.8]])
    n = weights.sum()
    wbar = float(weights[1:] @ kernel[1:].sum(axis=1)) / n
    kernel[0] *= scale * EPS_ZERO * wbar
    p = process(Population(TypeSet.range(4), weights), kernel)
    assert fitness(p).U.values[0] == pytest.approx(scale * EPS_ZERO, rel=1e-3)
    s_ns = fitness(p).s_ns
    assert generating_profile(p).s_ns == s_ns
    assert zeroth_law(p).extras["s_ns"] == s_ns


def _summary_fields(p: Process) -> dict:
    fd = fitness(p)
    return {"u": fd.u, "prob": fd.prob, "p_star": fd.p_star, "var_u": fd.var_u,
            "s_ns": fd.s_ns}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.01, 10), min_size=1, max_size=6),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10)), min_size=36, max_size=36),
    st.integers(1, 6),
)
def test_summary_is_invariant_under_weight_scaling(weights, entries, k2):
    """U = W/wbar with wbar the source-weighted mean of W: scaling the parent
    weights changes no summary value, and E[U] = 1 at every scale.  Kernel
    entries are 0 or at least 1e-3, away from the EPS_ZERO support cut."""
    k = len(weights)
    kernel = np.reshape(entries[: k * k2], (k, k2))
    assume(kernel.sum(axis=1) @ weights > 0)
    base = process(Population(TypeSet.range(k), weights), kernel)
    expected = _summary_fields(base)
    for s in (-150, -60, 60, 150):
        p = process(Population(TypeSet.range(k), np.multiply(weights, 10.0**s)), kernel)
        for name, value in _summary_fields(p).items():
            np.testing.assert_allclose(value, expected[name], rtol=1e-12, atol=1e-15,
                                       err_msg=f"{name} at weights x 1e{s}")
        assert fitness(p).prob @ fitness(p).u == pytest.approx(1.0, abs=1e-14)
        assert fitness(p).equilibrium_class == fitness(base).equilibrium_class


# ---------------------------------------------------------------------------
# Whole-array kernels against their gather-scatter forms, bit for bit.  The
# suite turns RuntimeWarnings into errors, so a log or a product of a
# non-positive entry fails here.

# U values at the edges: zeros of both signs, subnormal and tiny values the
# support floor zeroes, a U whose square is near the top of the double range,
# and a negative value that stays off the support.
U_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 2e-12, 0.5, 1.0, 2.0, 1e150, -1.0]


def edge_processes(rng):
    """K = 1 processes, and composable pairs with childless rows and parent
    weights x 10^{0, +-60, +-150}."""
    one = Population(TypeSet(["a"]), [2.0])
    yield process(one, [[3.0]])
    yield process(one, [[0.5, 0.0, 1e-300]])
    for n in range(60):
        yield from childless_composable_pair(rng, scale=10.0 ** (0, 60, -60, 150, -150)[n % 5])


def test_u2_log_u_equals_its_masked_form():
    rng = np.random.default_rng(406)
    edges = np.array(U_EDGES)
    cases = [[1.0], [0.0], [2.0, 0.0], edges, edges[edges != 1e150]]
    cases += [rng.choice(edges, size=int(rng.integers(1, 49))) for _ in range(40)]
    records = [summarize_fitness(None, 1.0, None, np.array(u, dtype=float),
                                 rng.uniform(0.0, 1.0, len(u)) * (rng.random(len(u)) < 0.8))
               for u in cases]
    records += [fitness(p) for p in edge_processes(rng)]
    for fd in records:
        assert fd.u2_log_u.hex() == u2_log_u_by_mask(fd).hex()


def test_local_average_equals_its_masked_form():
    rng = np.random.default_rng(407)
    for p in edge_processes(rng):
        k2 = len(p.target.types)
        for values in (rng.normal(0.0, 3.0, k2), np.full(k2, 1e150),
                       rng.choice([5e-324, -0.0, 0.0, 1.0], size=k2)):
            y = Observable(p.target.types, values)
            got, want = local_average(p, y).values, local_average_by_mask(p, y)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, want) and got.sum() == want.sum()


def test_purely_environmental_is_read_off_the_extremes_of_carried_u():
    """max(c.max() - 1, 1 - c.min()) <= EPS_SAT over the carried U (prob > 0)
    decides as np.all(|c - 1| <= EPS_SAT) does, as rounding is monotone: at
    1 +- EPS_SAT, up to two ulps either side, beside a zero, and beside a far
    value that carries no probability."""
    edges = [v + k * np.spacing(v) for v in (1.0 + EPS_SAT, 1.0 - EPS_SAT) for k in range(-2, 3)]
    seen = Counter()
    for e in edges:
        for u, prob in (([e], [1.0]), ([1.0, e], [0.3, 0.7]), ([e, 0.0], [0.5, 0.5]),
                        ([e, 0.0], [1.0, 0.0]), ([e, 7.0], [1.0, 0.0]), ([e, 2.0 - e], [0.5, 0.5]),
                        ([e, 1.0 + EPS_SAT, 1.0 - EPS_SAT], [0.2, 0.3, 0.5])):
            fd = summarize_fitness(None, 1.0, None, np.array(u), np.array(prob))
            want = bool(np.all(np.abs(fd.u[fd.prob > 0] - 1.0) <= EPS_SAT))
            assert (fd.equilibrium_class == "purely_environmental") is want, (u, prob)
            seen[want] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


# ---------------------------------------------------------------------------
# Stationarity against the per-row loop


def markov_kernel(rng, k: int, k2: int, c: float = 1.0) -> np.ndarray:
    kernel = rng.uniform(0.1, 1.0, (k, k2)) * (rng.random((k, k2)) < 0.7)
    kernel[np.arange(k), rng.integers(0, k2, k)] += 0.5
    return c * kernel / kernel.sum(axis=1, keepdims=True)


def disjoint_broods(rng, k: int, brood: int):
    """Each parent feeds its own `brood` children with equal shares."""
    kernel = np.zeros((k, k * brood))
    for i in range(k):
        kernel[i, i * brood:(i + 1) * brood] = rng.uniform(0.5, 2.0)
    return kernel


def stationarity_pairs(rng):
    for _ in range(150):
        yield random_composable_pair(rng)
    for _ in range(20):
        # childless rows, a zero-weight parent and rows at the zero threshold
        k, k2 = int(rng.integers(4, 8)), int(rng.integers(1, 7))
        weights = rng.uniform(0.1, 2.0, k)
        weights[1] = 0.0
        kernel = rng.uniform(0.05, 1.5, (k, k2))
        kernel[0] = 0.0
        n = weights.sum()
        wbar = float(weights[3:] @ kernel[3:].sum(axis=1)) / n
        kernel[2] *= rng.choice([0.5, 1.0, 2.0]) * EPS_ZERO * wbar / kernel[2].sum()
        p = process(Population(TypeSet.range(k), weights), kernel)
        yield p, process(p.target, rng.uniform(0.05, 1.5, (k2, int(rng.integers(1, 5)))))
    for _ in range(20):
        # strongly stationary: both stages purely environmental
        k, k2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)),
                    markov_kernel(rng, k, k2, rng.uniform(0.5, 2.0)))
        yield p, process(p.target, markov_kernel(rng, k2, int(rng.integers(1, 6))))
    for _ in range(20):
        # weakly but not strongly stationary: U = 1, and each parent's two
        # equal-share children have U' = 1 +- delta
        k = int(rng.integers(1, 5))
        kernel = np.zeros((k, 2 * k))
        for i in range(k):
            kernel[i, 2 * i:2 * i + 2] = 0.5
        p = process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)), kernel)
        delta = rng.uniform(0.1, 0.9, k)
        fit = np.stack([1.0 + delta, 1.0 - delta], axis=1).ravel()
        yield p, process(p.target, fit[:, None] * markov_kernel(rng, 2 * k, 3))
    for _ in range(20):
        # locally constant: disjoint broods, one continuation fitness per brood
        k, brood = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        p = process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)),
                    disjoint_broods(rng, k, brood))
        fit = np.repeat(rng.uniform(0.2, 2.0, k), brood)
        yield p, process(p.target, fit[:, None] * markov_kernel(rng, k * brood, 3))
    for _ in range(10):
        # injective first stage
        k = int(rng.integers(1, 6))
        kernel = np.zeros((k, k + 2))
        kernel[np.arange(k), rng.permutation(k + 2)[:k]] = rng.uniform(0.2, 2.0, k)
        p = process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)), kernel)
        yield p, process(p.target, rng.uniform(0.05, 1.5, (k + 2, 3)))


def test_stationarity_matches_loop():
    rng = np.random.default_rng(403)
    outcomes = Counter()
    for p, q in stationarity_pairs(rng):
        for tol in (1e-9, 1e-2, 0.1, 0.5):
            got = stationarity(p, q, tol)
            assert got == stationarity_by_loop(p, q, tol)
            outcomes.update((name, getattr(got, name)) for name in
                            ("strong", "weak", "locally_homogeneous", "locally_constant"))
    # every class is seen both holding and failing
    assert all(outcomes[(name, flag)] > 0 for name, _ in outcomes for flag in (True, False))


# ---------------------------------------------------------------------------
# Reversibility inverses against the per-child and per-parent loops


def tied_flows(rng, k: int):
    """An injective kernel plus child k, fed by several parents with the same
    tiny flow (small enough that the process stays left-invertible).  Parent
    0 is childless, so its child and child k+1 get no mass; the last parent
    also feeds child k+2, so the process is not right-invertible."""
    kernel = np.zeros((k, k + 3))
    kernel[np.arange(k), rng.permutation(k)] = rng.uniform(0.5, 1.0, k)
    kernel[0] = 0.0
    kernel[-1, k + 2] = 0.5
    shared = rng.choice(np.arange(1, k), size=int(rng.integers(2, k)), replace=False)
    kernel[shared, k] = 4e-11
    weights = rng.uniform(0.5, 1.0, k)
    weights[shared] = 1.0
    return process(Population(TypeSet.range(k), weights), kernel)


def reversibility_processes(rng):
    for _ in range(100):
        yield random_process(rng)
    for k in range(3, 8):
        for _ in range(6):
            yield tied_flows(rng, k)
    for _ in range(30):
        # injective, K != K', zero-mass children, a childless parent
        k = int(rng.integers(1, 6))
        kernel = np.zeros((k, k + 3))
        kernel[np.arange(k), rng.permutation(k + 3)[:k]] = rng.uniform(0.2, 2.0, k)
        if k > 1:
            kernel[rng.integers(k)] = 0.0
        yield process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)), kernel)
    for _ in range(30):
        # one child per parent, several parents per child, a childless parent
        k, k2 = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        kernel = np.zeros((k, k2))
        kernel[np.arange(k), rng.integers(0, k2, k)] = rng.uniform(0.2, 2.0, k)
        kernel[rng.integers(k)] = 0.0
        if not kernel.any():
            kernel[0, 0] = 1.0
        yield process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)), kernel)


def test_reversibility_inverses_match_loop():
    rng = np.random.default_rng(404)
    built = Counter()
    for p in reversibility_processes(rng):
        v = reversibility(p)
        retraction, section = reversibility_kernels_by_loop(p)
        if v.retraction is not None:
            assert np.array_equal(v.retraction.kernel, retraction)
            built["retraction"] += 1
        if v.section is not None:
            assert np.array_equal(v.section.kernel, section)
            built["section"] += 1
    assert built["retraction"] >= 60 and built["section"] >= 30


def test_tied_flows_go_to_the_lowest_index_parent():
    rng = np.random.default_rng(405)
    for k in range(3, 8):
        p = tied_flows(rng, k)
        v = reversibility(p)
        assert v.left_invertible and not v.right_invertible
        shared = np.nonzero(p.kernel[:, k] > 0)[0]
        support_rows = list(np.nonzero(fitness(p).support)[0])
        assert v.retraction.kernel[k, support_rows.index(shared.min())] == 1.0
        assert v.retraction.kernel[k + 1, 0] == 1.0  # the zero-mass child
