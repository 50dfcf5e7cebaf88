"""Differential tests of the vectorized cell kernels against the per-cell loops.

Tolerances are fixed: 1e-12 on every cell field, on the profile totals and
on every projection-cell chain and window, 1e-9 on the intergenerational
formula route, each relative once the values leave the unit scale
(|a - b| <= tol * max(1, |a|, |b|)); 1e-14 of the largest entry on the
block-product factorization.
"""

import json

import numpy as np
import pytest

import pricekit.entropy
from pricekit import (
    DensityOperator,
    Partition,
    Population,
    QuantumProcess,
    TypeSet,
    cell_arrays,
    embed_process,
    environmental_profile,
    intergenerational_ec_change,
    kraus_to_super,
    process,
    q_factorize,
    q_fitness,
    q_partition_entropy,
)
from pricekit.cli import main
from pricekit.config import EPS_REL, EPS_ZERO
from pricekit.entropy import CELL_FIELDS, CellArrays, EntropyProfile

from conftest import random_composable_pair, random_process
from oracles import (
    cell_stats_by_loop,
    intergenerational_by_loops,
    q_cell_stats_by_loop,
    q_factorize_by_kron,
)

CELL_TOL = 1e-12
FORMULA_TOL = 1e-9
FACTOR_TOL = 1e-14


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_partition(rng, types: TypeSet) -> Partition:
    labels = list(rng.permutation(types.labels))
    ids = rng.integers(0, len(labels), len(labels))
    blocks = [tuple(c for c, b in zip(labels, ids) if b == k) for k in np.unique(ids)]
    return Partition(types, [blocks[k] for k in rng.permutation(len(blocks))])


def with_small_rows(rng, k: int, k2: int, scale: float):
    """A process with rows at the zero threshold: row 0 has relative fitness
    scale * EPS_ZERO, row 1 sends a flow share of scale * EPS_ZERO to one
    child, and the last row is childless when k > 3."""
    weights = rng.uniform(0.1, 2.0, k)
    kernel = rng.uniform(0.05, 2.0, (k, k2))
    if k > 3:
        kernel[-1] = 0.0
    n = weights.sum()
    wbar = float(weights[2:] @ kernel[2:].sum(axis=1)) / n
    kernel[0] *= scale * EPS_ZERO * wbar / kernel[0].sum()
    kernel[1] = 0.0
    kernel[1, 0] = scale * EPS_ZERO * n * wbar / weights[1]
    return process(Population(TypeSet.range(k), weights), kernel)


def edge_processes(rng):
    yield process(Population(TypeSet(["a"]), [2.0]), [[1.5]])
    yield process(Population(TypeSet(["a"]), [0.5]), [[0.2, 0.0, 1.1]])
    yield process(Population(TypeSet.range(3), [1, 2, 3]), rng.uniform(0.1, 1, (3, 5)))
    yield process(Population(TypeSet.range(5), [1, 1, 2, 1, 3]), rng.uniform(0.1, 1, (5, 2)))
    yield process(Population(TypeSet.range(4), [1, 2, 1, 1]),
                  [[1, 0, 2], [0, 0, 0], [0.5, 0.5, 0], [0, 0, 0]])
    for scale in (0.5, 1.0, 2.0):
        for k, k2 in ((3, 3), (4, 4), (6, 3)):
            yield with_small_rows(rng, k, k2, scale)


def assert_matches_loop(p, part_a, part_b):
    cells = cell_arrays(p, part_a, part_b)
    oracle = cell_stats_by_loop(p, part_a, part_b)
    assert cells.u_bar.shape == (len(part_a.blocks), len(part_b.blocks))
    prof = environmental_profile(p, part_a, part_b)
    assert set(prof.per_cell) == set(oracle)
    for key, want in oracle.items():
        got = prof.per_cell[key]
        for name in CELL_FIELDS:
            assert close(getattr(got, name), want[name], CELL_TOL), (key, name)
    for name in ("s_ec", "s_dis", "s_mix"):
        total = sum(c[name] for c in oracle.values())
        assert close(getattr(prof, name), total, CELL_TOL), name


def test_singleton_cells_match_loop():
    rng = np.random.default_rng(301)
    for _ in range(150):
        p = random_process(rng)
        assert_matches_loop(p, Partition.singletons(p.source.types),
                            Partition.singletons(p.target.types))


def test_block_cells_match_loop():
    rng = np.random.default_rng(302)
    for _ in range(150):
        p = random_process(rng)
        assert_matches_loop(p, random_partition(rng, p.source.types),
                            random_partition(rng, p.target.types))


def test_edge_processes_match_loop():
    """K=1, K != K', childless rows and rows near the zero threshold."""
    rng = np.random.default_rng(303)
    for p in edge_processes(rng):
        assert_matches_loop(p, Partition.singletons(p.source.types),
                            Partition.singletons(p.target.types))
        for _ in range(3):
            assert_matches_loop(p, random_partition(rng, p.source.types),
                                random_partition(rng, p.target.types))


def test_intergenerational_matches_loop():
    rng = np.random.default_rng(304)
    pairs = [random_composable_pair(rng) for _ in range(60)]
    for p in edge_processes(rng):
        k2 = len(p.target.types)
        pairs.append((p, process(p.target, rng.uniform(0.05, 1.5, (k2, int(rng.integers(1, 5)))))))
    for p, q in pairs:
        r = intergenerational_ec_change(p, q)
        ns, formula = intergenerational_by_loops(p, q)
        assert close(r.ns_s_ec, ns, FORMULA_TOL)
        assert close(r.formula_route, formula, FORMULA_TOL)


def projection_cell_inputs(rng):
    """Random processes, the same processes with weights scaled by 10^s for
    s in (-150, -60, 60, 150), and K = 1 and K' = 1 processes."""
    for _ in range(20):
        yield random_process(rng, kmax=5)
    for s in (-150, -60, 60, 150):
        for _ in range(5):
            p = random_process(rng, kmax=5)
            yield process(Population(p.source.types, p.source.weights * 10.0**s), p.kernel)
    for k, k2 in ((1, 1), (1, 4), (1, 2), (4, 1), (3, 1)):
        yield process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k)),
                      rng.uniform(0.05, 2.0, (k, k2)))


def test_projection_cells_match_classical_cells():
    """Singleton projections of an embedded process give the classical cells."""
    rng = np.random.default_rng(305)
    for p in projection_cell_inputs(rng):
        k, k2 = p.kernel.shape
        res = q_partition_entropy(embed_process(p), [np.diag(row) for row in np.eye(k)],
                                  [np.diag(row) for row in np.eye(k2)])
        classical = cell_arrays(p, Partition.singletons(p.source.types),
                                Partition.singletons(p.target.types))
        assert res.profile.cells.support is None
        for name in CELL_FIELDS:
            got, want = getattr(res.profile.cells, name), getattr(classical, name)
            assert np.all(np.abs(got - want) <= EPS_REL * np.maximum(1.0, np.abs(want))), name


def test_embed_process_matches_kron_sum():
    rng = np.random.default_rng(306)
    for _ in range(30):
        p = random_process(rng, kmax=5)
        k, k2 = p.kernel.shape
        ref = np.zeros((k2 * k2, k * k), dtype=complex)
        for i in range(k):
            for j in range(k2):
                a = np.zeros((k2, k), dtype=complex)
                a[j, i] = 1.0
                ref += p.kernel[i, j] * np.kron(a.conj(), a)
        assert np.array_equal(embed_process(p).superoperator, ref)


@pytest.mark.parametrize("with_partitions, builds", [(False, 1), (True, 2)])
def test_report_builds_profile_once_per_partition_pair(tmp_path, monkeypatch,
                                                       with_partitions, builds):
    doc = {
        "types": ["a", "b"],
        "weights": [1, 2],
        "kernel": [[1.0, 1.0], [0.5, 0.0]],
        "observables": {"trait": [1, 0]},
    }
    if with_partitions:
        doc["partitions"] = {"source": [["a", "b"]], "target": [["c0"], ["c1"]]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    calls = []
    original = pricekit.entropy.environmental_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pricekit.entropy, "environmental_profile", counting)
    assert main(["report", str(path), "--json", str(tmp_path / "out.json")]) == 0
    assert len(calls) == builds


def block_projections(part: Partition) -> list:
    """Diagonal projections onto the blocks of a partition of a type set."""
    return [np.diag(row.astype(complex)) for row in part.indicator().T]


def random_resolution(rng, d: int) -> list:
    """Projections onto 1 to 3 spans of a random unitary's columns; they do
    not commute with generic states and have rank > 1 when d > 3."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    cuts = np.sort(rng.choice(np.arange(1, d), size=min(int(rng.integers(0, 3)), d - 1),
                              replace=False))
    return [q[:, span] @ q[:, span].conj().T for span in np.split(np.arange(d), cuts)]


def random_kraus_process(rng, d_in: int, d_out: int, n_kraus: int, rank: int | None = None):
    kraus = [rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
             for _ in range(n_kraus)]
    g = rng.normal(size=(d_in, rank or d_in)) + 1j * rng.normal(size=(d_in, rank or d_in))
    return QuantumProcess(kraus_to_super(kraus), DensityOperator(g @ g.conj().T))


def hadamard_dephasing():
    kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    rho = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    projs = [np.outer(h[:, i], h[:, i].conj()).astype(complex) for i in range(2)]
    return QuantumProcess(kraus_to_super(kraus), rho), projs, projs


def assert_laws_close(got, want):
    assert got.name == want.name
    assert close(got.lhs, want.lhs, CELL_TOL), got.name
    assert len(got.bounds) == len(want.bounds)
    for g, v in zip(got.bounds, want.bounds):
        assert close(g, v, CELL_TOL), got.name
    assert set(got.extras) == set(want.extras)
    for key, v in want.extras.items():
        assert close(got.extras[key], v, CELL_TOL), (got.name, key)


def assert_q_matches_loop(w, projs_a, projs_b):
    res = q_partition_entropy(w, projs_a, projs_b)
    stats, comm_residual = q_cell_stats_by_loop(w, projs_a, projs_b)
    for name, want in zip(CELL_FIELDS, np.moveaxis(stats, -1, 0)):
        got = getattr(res.profile.cells, name)
        assert got.shape == want.shape
        assert all(close(g, v, CELL_TOL) for g, v in zip(got.flat, want.flat)), name
    assert close(res.commutation_residual, comm_residual, CELL_TOL)
    cells = CellArrays(tuple(range(stats.shape[0])), tuple(range(stats.shape[1])),
                       *np.moveaxis(stats, -1, 0))
    oracle = EntropyProfile.from_cells(q_fitness(w).summary, cells, suffix="_partition")
    for got, want in zip((res.dispersion_bounds, res.mixing_bounds), oracle.bounds):
        assert_laws_close(got, want)
    assert set(res.third_law) == set(oracle.third_law)
    for key, want in oracle.third_law.items():
        assert_laws_close(res.third_law[key], want)


def test_projection_cells_of_embedded_processes_match_loop():
    """K=1, K != K', childless rows, zero cells; singleton and block cells."""
    rng = np.random.default_rng(307)
    procs = [random_process(rng, kmax=6, density=0.6) for _ in range(30)]
    for p in procs + list(edge_processes(rng)):
        w = embed_process(p)
        assert_q_matches_loop(w, block_projections(Partition.singletons(p.source.types)),
                              block_projections(Partition.singletons(p.target.types)))
        assert_q_matches_loop(w, block_projections(random_partition(rng, p.source.types)),
                              block_projections(random_partition(rng, p.target.types)))


def test_projection_cells_of_kraus_maps_match_loop():
    """d_in != d_out, non-commuting rank > 1 resolutions, rank-deficient
    states and rank-deficient fitness operators, and the Hadamard cells of
    the dephasing channel."""
    rng = np.random.default_rng(308)
    for _ in range(40):
        d_in, d_out = (int(v) for v in rng.integers(2, 7, 2))
        rank = int(rng.integers(1, d_in + 1)) if rng.random() < 0.3 else None
        w = random_kraus_process(rng, d_in, d_out, int(rng.integers(1, 4)), rank)
        assert_q_matches_loop(w, random_resolution(rng, d_in), random_resolution(rng, d_out))
    assert_q_matches_loop(*hadamard_dephasing())


def test_factorization_matches_kron_products():
    rng = np.random.default_rng(309)
    procs = [embed_process(random_process(rng, kmax=6)) for _ in range(20)]
    procs += [random_kraus_process(rng, *(int(v) for v in rng.integers(2, 7, 2)),
                                   int(rng.integers(1, 4))) for _ in range(40)]
    for w in procs:
        f = q_factorize(w)
        got = (f.selective, f.environmental, f.fitness_operator, f.support)
        for name, g, want in zip(("selective", "environmental", "fitness_operator", "support"),
                                 got, q_factorize_by_kron(w)):
            assert g.shape == want.shape
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(g - want).max()) <= FACTOR_TOL * scale, name
