"""Differential tests of the vectorized cell kernel against the per-cell loops.

Tolerances are fixed: 1e-12 on every cell field and on the profile totals,
1e-9 on the intergenerational formula route, each relative once the values
leave the unit scale (|a - b| <= tol * max(1, |a|, |b|)).
"""

import json

import numpy as np
import pytest

import pricekit.entropy
from pricekit import (
    Partition,
    Population,
    TypeSet,
    cell_arrays,
    embed_process,
    environmental_profile,
    intergenerational_ec_change,
    process,
    q_partition_entropy,
)
from pricekit.cli import main
from pricekit.config import EPS_REL, EPS_ZERO
from pricekit.entropy import CELL_FIELDS

from conftest import random_composable_pair, random_process
from oracles import cell_stats_by_loop, intergenerational_by_loops

CELL_TOL = 1e-12
FORMULA_TOL = 1e-9


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


def test_projection_cells_match_classical_cells():
    """Singleton projections of an embedded process give the classical cells."""
    rng = np.random.default_rng(305)
    for _ in range(20):
        p = random_process(rng, kmax=5)
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
