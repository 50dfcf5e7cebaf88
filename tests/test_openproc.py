import numpy as np
import pytest

from pricekit import (
    Observable,
    Population,
    TypeSet,
    dual_fitness_kgs,
    expectation,
    fitness,
    kgs,
    local_average,
    open_process,
    price,
)
from pricekit.openproc import OpenProcess

from conftest import random_observable, random_process


def random_open(rng, kmax=6):
    p = random_process(rng, kmax)
    orphan = rng.uniform(0, 1.0, len(p.target.types)) * (rng.random(len(p.target.types)) < 0.6)
    full = Population(p.target.types, p.target.weights + orphan)
    return OpenProcess(p, full)


class TestConstruction:
    def test_densities_sum_to_one(self):
        rng = np.random.default_rng(70)
        for _ in range(40):
            op = random_open(rng)
            pi = op.parented_density.values
            nu = op.orphan_density.values
            np.testing.assert_allclose(pi + nu, 1.0, atol=1e-12)
            assert np.all((0 - 1e-12 <= pi) & (pi <= 1 + 1e-12))

    def test_parented_exceeding_full_rejected(self, f5):
        smaller = Population(f5.target.types, f5.target.weights * 0.5)
        with pytest.raises(ValueError):
            OpenProcess(f5, smaller)

    def test_helper_builds_from_orphan_increment(self):
        src = Population(TypeSet(["a", "b"]), [1, 1])
        op = open_process(src, [[1, 0], [0, 1]], orphan_weights=[0.5, 0])
        np.testing.assert_allclose(op.full_target.weights, [1.5, 1])
        np.testing.assert_allclose(op.parented_density.values, [2 / 3, 1])


class TestKgs:
    def test_closed_case_reduces_to_price(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            p = random_process(rng)
            op = OpenProcess(p, p.target)
            x = random_observable(rng, p.source.types)
            y = random_observable(rng, p.target.types)
            comp = kgs(op, x, y)
            d = price(op.closed, x, y)
            assert comp.orphan_nu == pytest.approx(0.0, abs=1e-12)
            assert comp.selective == pytest.approx(d.ns, rel=1e-12, abs=1e-12)
            assert comp.environmental == pytest.approx(d.ec, rel=1e-12, abs=1e-12)
            assert comp.delta == pytest.approx(d.delta, rel=1e-12, abs=1e-12)

    def test_nu_and_pi_forms_agree(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            op = random_open(rng)
            x = random_observable(rng, op.closed.source.types)
            y = random_observable(rng, op.full_target.types)
            comp = kgs(op, x, y)
            assert comp.orphan_nu == pytest.approx(comp.orphan_pi, rel=1e-10, abs=1e-10)

    def test_constructed_fixture_sums(self):
        # two parents, three children, one of them fully orphaned
        src = Population(TypeSet(["a", "b"]), [1, 1])
        kernel = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        op = open_process(src, kernel, orphan_weights=[0, 0, 1.0])
        x = Observable(src.types, [1.0, 0.0])
        y = Observable(op.full_target.types, [1.0, 0.0, 0.0])
        comp = kgs(op, x, y)
        assert comp.delta == pytest.approx(1 / 3 - 1 / 2)
        assert comp.total == pytest.approx(comp.delta, rel=1e-12)

    def test_three_term_sum_randomized(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            op = random_open(rng)
            x = random_observable(rng, op.closed.source.types)
            y = random_observable(rng, op.full_target.types)
            comp = kgs(op, x, y)
            scale = max(abs(comp.delta), 1.0)
            assert abs(comp.residual) <= 1e-10 * scale

    def test_open_tower_property(self):
        """E'[Y pi] = p'_pi E[<Y> U] on randomized fixtures."""
        rng = np.random.default_rng(74)
        for _ in range(60):
            op = random_open(rng)
            y = random_observable(rng, op.full_target.types)
            closed = op.closed
            u = fitness(closed).U
            avg = local_average(closed, y)
            rhs = op.parented_share * expectation(
                closed.source,
                Observable(closed.source.types, avg.values * u.values),
            )
            lhs = expectation(
                op.full_target,
                Observable(op.full_target.types, y.values * op.parented_density.values),
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

    def test_all_orphans_rejected(self):
        # An all-orphan child population leaves the closed stage with zero
        # mass, which is already unrepresentable as a population.
        with pytest.raises(ValueError):
            Population(TypeSet(["c0"]), [0.0])
        # near-degenerate parented mass still works and reports a tiny share
        src = Population(TypeSet(["a"]), [1.0])
        op = open_process(src, [[1e-6]], orphan_weights=[1.0])
        assert kgs(
            op, Observable(src.types, [1.0]), Observable(op.full_target.types, [1.0])
        ).parented_share < 1e-5


class TestDualFitness:
    def test_closed_process_column_sums(self, f5):
        op = OpenProcess(f5, f5.target)
        x = Observable(f5.source.types, [1.0, 0.0])
        y = Observable(f5.target.types, [0.0, 1.0])
        res = dual_fitness_kgs(op, x, y)
        np.testing.assert_allclose(res.dual_fitness, f5.target.weights)
        assert res.dual_mean == pytest.approx(1.0, abs=1e-12)

    def test_orphan_fixture_routes_agree(self):
        rng = np.random.default_rng(75)
        for _ in range(60):
            op = random_open(rng)
            x = random_observable(rng, op.closed.source.types)
            y = random_observable(rng, op.full_target.types)
            res = dual_fitness_kgs(op, x, y)
            assert res.orphan_via_dual == pytest.approx(
                res.components.orphan_pi, rel=1e-9, abs=1e-10
            )

    def test_dual_mean_is_one(self):
        rng = np.random.default_rng(76)
        for _ in range(60):
            op = random_open(rng)
            x = Observable.constant(op.closed.source.types, 0.0)
            y = Observable.constant(op.full_target.types, 0.0)
            res = dual_fitness_kgs(op, x, y)
            assert res.dual_mean == pytest.approx(1.0, abs=1e-12)
