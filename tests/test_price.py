import importlib

import numpy as np
import pytest

from pricekit import (
    Observable,
    Population,
    TypeSet,
    aggregate_price,
    compose,
    ec_selective_entropy_bound,
    ec_variance_bound,
    expectation,
    fisher,
    fitness,
    multilevel_price,
    multilevel_variance,
    price,
    second_law,
    variance,
)
from pricekit.measure import xlogx
from pricekit.process import Process

from conftest import (childless_composable_pair, random_composable_pair, random_observable,
                      random_process)
from oracles import (
    aggregate_price_compact,
    ec_selective_entropy_lhs_by_hand,
    ec_variance_lhs_by_hand,
    multilevel_environmental_by_hand,
    price_terms_by_hand,
)


class TestPrice:
    def test_f5_example(self, f5):
        x = Observable(f5.source.types, [1, 0])
        y = Observable(f5.target.types, [1, 0])
        d = price(f5, x, y)
        assert d.delta == pytest.approx(1 / 3)
        assert d.ns == pytest.approx(1 / 3)
        assert d.ec == pytest.approx(0.0, abs=1e-15)
        assert d.check()

    def test_constant_observables_on_identity(self):
        types = TypeSet(["a", "b"])
        pop = Population(types, [1, 2])
        p = Process(pop, pop, np.eye(2))
        c = Observable.constant(types, 5.5)
        d = price(p, c, c)
        assert (d.delta, d.ns, d.ec) == (pytest.approx(0.0), pytest.approx(0.0), pytest.approx(0.0))

    def test_relative_fitness_pair_gives_fisher(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, q = random_composable_pair(rng)
            d = price(p, fitness(p).U, fitness(q).U)
            assert d.delta == pytest.approx(0.0, abs=1e-9)
            assert d.ns == pytest.approx(variance(p.source, fitness(p).U), rel=1e-9)
            assert d.ec == pytest.approx(-d.ns, rel=1e-9, abs=1e-12)

    def test_selective_change_two_routes_agree(self):
        """cov(x, U) equals E[x (U - 1)]."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_process(rng)
            x = random_observable(rng, p.source.types)
            y = random_observable(rng, p.target.types)
            u = fitness(p).U
            route_a = price(p, x, y).ns
            route_b = expectation(
                p.source, Observable(p.source.types, x.values * (u.values - 1.0))
            )
            assert route_a == pytest.approx(route_b, rel=1e-9, abs=1e-12)

    def test_randomized_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = random_process(rng)
            x = random_observable(rng, p.source.types)
            y = random_observable(rng, p.target.types)
            d = price(p, x, y)
            scale = max(abs(d.delta), abs(d.ns), abs(d.ec), 1.0)
            assert abs(d.residual) <= 1e-9 * scale


class TestAggregatePrice:
    def test_f5_sum(self, f5):
        x = Observable(f5.source.types, [1, 0])
        y = Observable(f5.target.types, [1, 0])
        agg = aggregate_price(f5, x, y)
        assert agg.total == pytest.approx(2.0 - 1.0)

    def test_growth_term_vanishes_for_markov(self, f2):
        x = Observable(f2.source.types, [1, 0])
        y = Observable(f2.target.types, [0, 1])
        agg = aggregate_price(f2, x, y)
        assert agg.growth_term == pytest.approx(0.0, abs=1e-15)

    def test_f1_sum(self, f1):
        x = Observable(f1.source.types, [1, 0])
        y = Observable(f1.target.types, [1])
        agg = aggregate_price(f1, x, y)
        assert agg.total == pytest.approx(2.0 - 1.0)

    def test_three_term_equals_compact_route(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            p = random_process(rng)
            x = random_observable(rng, p.source.types)
            y = random_observable(rng, p.target.types)
            agg = aggregate_price(p, x, y)
            compact = aggregate_price_compact(p, x, y)
            direct = float(p.target.weights @ y.values - p.source.weights @ x.values)
            assert agg.total == pytest.approx(compact, rel=1e-9, abs=1e-9)
            assert agg.total == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestFisher:
    def test_purely_environmental_chain(self, f2):
        q = Process(f2.target, f2.target, f2.kernel.copy())
        ns, ec = fisher(f2, q)
        assert ns == pytest.approx(0.0, abs=1e-12)
        assert ec == pytest.approx(0.0, abs=1e-12)

    def test_f5_then_identity(self, f5):
        ident = Process(f5.target, f5.target, np.eye(2))
        ns, ec = fisher(f5, ident)
        assert ns == pytest.approx(0.5)
        assert ec == pytest.approx(-0.5)

    def test_random_pairs_cancel(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p, q = random_composable_pair(rng)
            ns, ec = fisher(p, q)
            assert ns + ec == pytest.approx(0.0, abs=1e-9 * max(ns, 1.0))


class TestFunctionalPrice:
    def test_second_moment_functional(self, f5):
        """The pre-evaluated square of U feeds the variance-change identity."""
        u = fitness(f5).U
        ident = Process(f5.target, f5.target, np.eye(2))
        u_next = fitness(ident).U
        d = price(
            f5,
            Observable(f5.source.types, u.values**2),
            Observable(f5.target.types, u_next.values**2),
        )
        # ns is the selective change of var(U): cov(U^2, U)
        m = f5.source.weights / f5.source.size
        assert d.ns == pytest.approx(float(m @ (u.values**2 * u.values)) - float(m @ u.values**2))

    def test_constant_functional(self, f5):
        one_s = Observable.constant(f5.source.types, 1.0)
        one_t = Observable.constant(f5.target.types, 1.0)
        d = price(f5, one_s, one_t)
        assert (abs(d.delta), abs(d.ns), abs(d.ec)) == (0.0, 0.0, 0.0)

    def test_entropy_functional_matches_second_law(self):
        """ns of the -U log U functional is the second-law lhs."""
        rng = np.random.default_rng(14)
        for _ in range(40):
            p, q = random_composable_pair(rng)
            f_x = Observable(p.source.types, -xlogx(fitness(p).U.values))
            g_y = Observable(q.source.types, -xlogx(fitness(q).U.values))
            d = price(p, f_x, g_y)
            rep = second_law(p)
            assert d.ns == pytest.approx(rep.lhs, rel=1e-12, abs=1e-12)


def _direct_two_step(p, q, y, z):
    delta = expectation(q.target, z) - expectation(q.source, y)
    d = price(q, y, z)
    return delta, d.ns, d.ec


class TestMultiLevel:
    def test_fisher_form(self):
        """With y = U' and any unit-mean final observable, the change is zero
        and the two group terms recover var'(U')."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            p, q = random_composable_pair(rng)
            u_next = fitness(q).U
            z = Observable.constant(q.target.types, 1.0)
            ml = multilevel_price(p, q, u_next, z)
            assert ml.delta == pytest.approx(0.0, abs=1e-9)
            assert ml.total == pytest.approx(0.0, abs=1e-9)
            assert ml.between_group + ml.within_group == pytest.approx(
                variance(q.source, u_next), rel=1e-9, abs=1e-9
            )

    def test_first_level_identity_reduces_to_price(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            q = random_process(rng, kmax=5)
            ident = Process(q.source, q.source, np.eye(len(q.source.types)))
            y = random_observable(rng, q.source.types)
            z = random_observable(rng, q.target.types)
            ml = multilevel_price(ident, q, y, z)
            d = price(q, y, z)
            assert ml.between_group == pytest.approx(d.ns, rel=1e-9, abs=1e-9)
            assert ml.within_group == pytest.approx(0.0, abs=1e-9)
            assert ml.environmental == pytest.approx(d.ec, rel=1e-9, abs=1e-9)

    def test_sum_matches_direct_route(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            p, q = random_composable_pair(rng)
            y = random_observable(rng, q.source.types)
            z = random_observable(rng, q.target.types)
            ml = multilevel_price(p, q, y, z)
            delta, ns, ec = _direct_two_step(p, q, y, z)
            assert ml.delta == pytest.approx(delta, rel=1e-12, abs=1e-12)
            assert ml.total == pytest.approx(delta, rel=1e-9, abs=1e-9)
            assert ml.between_group + ml.within_group == pytest.approx(ns, rel=1e-9, abs=1e-9)
            assert ml.environmental == pytest.approx(ec, rel=1e-9, abs=1e-9)


class TestMultiLevelVariance:
    def test_purely_environmental_continuation(self, f5):
        markov = Process(
            f5.target, Population(f5.target.types, f5.target.weights),
            np.array([[0.4, 0.6], [0.7, 0.3]]), _check=False,
        )
        markov = Process(
            f5.target,
            Population(f5.target.types, markov.kernel.T @ f5.target.weights),
            markov.kernel,
        )
        var_u2, mean_cond = multilevel_variance(f5, markov)
        u_next = fitness(markov).U
        assert variance(markov.source, u_next) == pytest.approx(0.0, abs=1e-12)
        assert var_u2 + mean_cond == pytest.approx(0.0, abs=1e-9)

    def test_specified_pair(self, f2):
        q = Process(
            f2.target,
            Population(f2.target.types, [2.5, 0.5]),
            np.array([[1.0, 0.5], [1.5, 0.0]]),
        )
        var_u2, mean_cond = multilevel_variance(f2, q)
        assert var_u2 + mean_cond == pytest.approx(
            variance(q.source, fitness(q).U), rel=1e-9
        )

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p, q = random_composable_pair(rng)
            var_u2, mean_cond = multilevel_variance(p, q)
            target = variance(q.source, fitness(q).U)
            assert var_u2 + mean_cond == pytest.approx(target, rel=1e-9, abs=1e-9)

    def test_equals_the_conditional_cov_route_bit_for_bit(self):
        price_module = importlib.import_module("pricekit.price")
        rng = np.random.default_rng(24)
        for i in range(100):
            p, q = (random_composable_pair(rng) if i % 2 else
                    childless_composable_pair(rng, scale=10.0 ** rng.choice([-60, 0, 60])))
            u_next = fitness(q).U
            expected = (variance(p.source, price_module._conditional_mean(p, u_next)),
                        expectation(p.source, price_module._conditional_cov(p, u_next, u_next)))
            assert multilevel_variance(p, q) == expected

    def test_forms_each_brood_average_once(self, monkeypatch):
        """The averages of U' and of U'^2 over p's broods, each formed once."""
        price_module = importlib.import_module("pricekit.price")
        calls = []

        def counted(p, y, _average=price_module.local_average):
            calls.append(y)
            return _average(p, y)

        monkeypatch.setattr(price_module, "local_average", counted)
        multilevel_variance(*random_composable_pair(np.random.default_rng(25)))
        assert len(calls) == 2


class TestThreeStage:
    def test_nested_two_level_decompositions_agree(self):
        """Decomposing stages (2,3) of a three-stage chain must match the
        direct decomposition of the same pair."""
        rng = np.random.default_rng(170)
        for _ in range(30):
            p, q = random_composable_pair(rng, kmax=4)
            k3 = len(q.target.types)
            k4 = int(rng.integers(1, 5))
            kernel = rng.uniform(0.05, 1.5, (k3, k4))
            from pricekit import process as make_process

            r = make_process(q.target, kernel)
            y = random_observable(rng, r.source.types)
            z = random_observable(rng, r.target.types)
            via_q = multilevel_price(q, r, y, z)
            via_pq = multilevel_price(compose(p, q), r, y, z)
            assert via_q.delta == pytest.approx(via_pq.delta, rel=1e-12, abs=1e-12)
            assert via_q.total == pytest.approx(via_pq.total, rel=1e-9, abs=1e-9)
            # the environmental share is the same trace through stage three
            d = price(r, y, z)
            assert via_q.environmental == pytest.approx(d.ec, rel=1e-9, abs=1e-9)
            assert via_pq.environmental == pytest.approx(d.ec, rel=1e-9, abs=1e-9)


def _scaled_pairs(seed: int, n: int = 100):
    """n seeded composable pairs with childless rows, parent weights times
    10^0, 10^60 or 10^-60, with random observables x, y, z on the three
    type sets."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p, q = childless_composable_pair(rng, scale=10.0 ** rng.choice([0, 60, -60]))
        yield (p, q, *(random_observable(rng, t) for t in (p.source.types, q.source.types,
                                                            q.target.types)))


def _magnitude(values, weights) -> float:
    """max|values| * max|weights|: the size of an integrand values * weights,
    the scale against which a term's two routes are compared."""
    return float(np.abs(np.concatenate(values)).max() * np.abs(weights).max())


def _agree(a: float, b: float, magnitude: float) -> bool:
    return abs(a - b) <= 1e-12 * magnitude


class TestEveryDecompositionReadsPrice:
    """Each change decomposition returns price's terms bit for bit, and these
    match the same terms built by hand in ``oracles``."""

    def test_fisher(self):
        for p, q, *_ in _scaled_pairs(201):
            u, u_next = fitness(p).U, fitness(q).U
            d = price(p, u, u_next)
            assert fisher(p, q) == (d.ns, d.ec)
            assert (d.ns, d.ec) == price_terms_by_hand(p, u, u_next)

    def test_aggregate_price(self):
        for p, q, x, y, _ in _scaled_pairs(202):
            fd = fitness(p)
            scale = p.source.size * fd.wbar
            d, agg = price(p, x, y), aggregate_price(p, x, y)
            assert (agg.selection_term, agg.environment_term) == (scale * d.ns, scale * d.ec)
            by_hand = price_terms_by_hand(p, x, y, weight=fd.W)
            mag = scale * _magnitude([x.values, y.values], fd.U.values)
            assert _agree(agg.selection_term, p.source.size * by_hand[0], mag)
            assert _agree(agg.environment_term, p.source.size * by_hand[1], mag)

    def test_multilevel_price(self):
        for p, q, _, y, z in _scaled_pairs(203):
            d, ml = price(q, y, z), multilevel_price(p, q, y, z)
            assert (ml.environmental, ml.delta) == (d.ec, d.delta)
            mag = _magnitude([y.values, z.values], fitness(q).U.values)
            assert _agree(ml.environmental, multilevel_environmental_by_hand(p, q, y, z), mag)

    def test_ec_variance_bound(self):
        for p, q, *_ in _scaled_pairs(204):
            u, u_next = fitness(p).U.values, fitness(q).U.values
            d = price(p, Observable(p.source.types, u**2), Observable(q.source.types, u_next**2))
            lhs = ec_variance_bound(p, q).lhs
            assert lhs == d.ec
            assert _agree(lhs, ec_variance_lhs_by_hand(p, q), _magnitude([u**2, u_next**2], u))

    def test_ec_selective_entropy_bound(self):
        for p, q, *_ in _scaled_pairs(205):
            u_log_u, next_u_log_u = fitness(p).u_log_u, fitness(q).u_log_u
            d = price(p, Observable(p.source.types, -u_log_u),
                      Observable(q.source.types, -next_u_log_u))
            lhs = ec_selective_entropy_bound(p, q).lhs
            assert lhs == d.ec
            assert _agree(lhs, ec_selective_entropy_lhs_by_hand(p, q),
                          _magnitude([u_log_u, next_u_log_u], fitness(p).U.values))
