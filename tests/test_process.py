import functools

import numpy as np
import pytest

from pricekit import (
    Observable,
    Population,
    Purity,
    TypeSet,
    classify_purity,
    compose,
    ec_selective_entropy_bound,
    ec_variance_bound,
    expectation,
    fisher,
    fitness,
    intergenerational_ec_change,
    local_average,
    local_change,
    multilevel_price,
    multilevel_second_law,
    multilevel_variance,
    price_factorize,
    process,
    stationarity,
    validate,
)
from pricekit.config import EPS_REL
from pricekit.process import Process, check_composable

from conftest import bernoulli_dispersion, random_composable_pair, random_process

AB = TypeSet(["a", "b"])


class TestValidate:
    def test_consistent_kernel_passes(self):
        p = Process(Population(AB, [1, 2]), Population(TypeSet(["c0", "c1"]), [2, 1]),
                    [[1, 1], [0.5, 0]])
        diag = validate(p)
        assert diag.passed and diag.max_residual == pytest.approx(0.0, abs=1e-15)

    def test_identity_kernel_passes(self):
        p = Process(Population(AB, [1, 1]), Population(AB, [1, 1]), np.eye(2))
        assert validate(p).passed

    def test_mismatch_fails_on_second_type(self):
        p = Process(Population(AB, [1, 1]), Population(AB, [1, 2]), np.eye(2),
                    _check=False)
        diag = validate(p)
        assert not diag.passed
        np.testing.assert_array_equal(diag.residuals > EPS_REL, [False, True])

    def test_constructor_rejects_bad_shapes_and_signs(self):
        with pytest.raises(ValueError):
            Process(Population(AB, [1, 1]), Population(AB, [1, 1]), [[1, 0]])
        with pytest.raises(ValueError):
            Process(Population(AB, [1, 1]), Population(AB, [1, 1]),
                    [[1, 0], [0, -1]])
        with pytest.raises(ValueError):
            Process(Population(AB, [1, 1]), Population(AB, [1, 2]), np.eye(2))


class TestEquality:
    """Processes compare by value and never raise; hashing one is refused."""

    def test_equal_operands(self, f5):
        twin = process(Population(AB, [1, 2]), [[1, 1], [0.5, 0]])
        fitness(f5)
        assert f5 == twin and not f5 != twin and twin == f5
        assert f5 == Process(f5.source, f5.target, f5.kernel.copy())

    def test_unequal_kernel_or_target(self, f5):
        assert f5 != process(f5.source, [[1, 1], [0.5, 0.25]])
        assert f5 != process(f5.source, [[1, 1, 0], [0.5, 0, 0]])
        relabelled = Population(TypeSet(["x", "y"]), f5.target.weights)
        assert f5 != Process(f5.source, relabelled, f5.kernel)
        assert f5 != Process(f5.source, Population(f5.target.types, [2.0, 1.5]), f5.kernel,
                             _check=False)

    def test_other_operands(self, f5):
        for other in (None, 1, f5.kernel, f5.source, (f5.source, f5.target, f5.kernel)):
            assert f5 != other and not f5 == other
        assert f5.__eq__(f5.kernel) is False

    def test_hash_is_refused(self, f5):
        with pytest.raises(TypeError, match="Process"):
            hash(f5)


class TestFitness:
    def test_f5_values(self, f5):
        fd = fitness(f5)
        np.testing.assert_allclose(fd.W.values, [2, 0.5])
        assert fd.wbar == pytest.approx(1.0)
        np.testing.assert_allclose(fd.U.values, [2, 0.5])
        assert fd.p_star == pytest.approx(1.0)

    def test_markov_kernel_constant_u(self, f2):
        fd = fitness(f2)
        np.testing.assert_allclose(fd.U.values, [1, 1])

    def test_f1_values(self, f1):
        fd = fitness(f1)
        np.testing.assert_allclose(fd.U.values, [2, 0])
        assert fd.p_star == pytest.approx(0.5)


class TestLocalAverage:
    def test_f5_example(self, f5):
        y = Observable(f5.target.types, [1, 0])
        np.testing.assert_allclose(local_average(f5, y).values, [0.5, 1.0])

    def test_constant_is_preserved_on_support(self, f5):
        y = Observable.constant(f5.target.types, 3.25)
        np.testing.assert_allclose(local_average(f5, y).values, [3.25, 3.25])

    def test_f2_symmetric(self, f2):
        y = Observable(f2.target.types, [1, 0])
        np.testing.assert_allclose(local_average(f2, y).values, [0.5, 0.5])

    def test_tower_property_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_process(rng)
            y = Observable(p.target.types, rng.normal(0, 2, len(p.target.types)))
            u = fitness(p).U
            lhs = expectation(p.target, y)
            avg = local_average(p, y)
            rhs = expectation(
                p.source, Observable(p.source.types, avg.values * u.values)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestLocalChange:
    def test_f5_example(self, f5):
        x = Observable(f5.source.types, [1, 0])
        y = Observable(f5.target.types, [1, 0])
        np.testing.assert_allclose(local_change(f5, x, y).values, [-0.5, 1.0])

    def test_identity_kernel_zero_change(self):
        p = Process(Population(AB, [1, 2]), Population(AB, [1, 2]), np.eye(2))
        x = Observable(AB, [3.0, -1.0])
        np.testing.assert_allclose(local_change(p, x, x).values, [0, 0])

    def test_f1_example(self, f1):
        # The childless row takes the 0 convention for its brood average, so
        # its local change is 0 - x(b) = 0; only U = 0 ever multiplies it.
        x = Observable(f1.source.types, [1, 0])
        y = Observable(f1.target.types, [1])
        np.testing.assert_allclose(local_change(f1, x, y).values, [0.0, 0.0])


class TestCompose:
    def test_bernoulli_roundtrip_is_identity(self):
        disp = bernoulli_dispersion(0.3)
        mix = Process(disp.target, Population(TypeSet(["o"]), [1.0]), [[1], [1]])
        out = compose(disp, mix)
        np.testing.assert_allclose(out.kernel, [[1.0]])
        np.testing.assert_allclose(out.target.weights, out.source.weights)

    def test_compose_with_identity(self, f5):
        ident = Process(f5.target, f5.target, np.eye(2))
        out = compose(f5, ident)
        np.testing.assert_allclose(out.kernel, f5.kernel)

    def test_random_pair_disintegration_and_fitness(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = random_composable_pair(rng, kmax=5)
            out = compose(p, q)
            np.testing.assert_allclose(
                out.kernel, p.kernel @ q.kernel, rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                out.kernel.T @ out.source.weights, out.target.weights,
                rtol=1e-9, atol=1e-9,
            )
            # composed fitness = local average of the next fitness, scaled
            w_next = fitness(q).W
            carried = local_average(p, w_next).values * fitness(p).W.values
            np.testing.assert_allclose(out.fitness_values, carried, rtol=1e-9, atol=1e-12)
            # and the same identity for relative fitness
            u2 = fitness(out).U.values
            expected = local_average(p, fitness(q).U).values * fitness(p).U.values
            np.testing.assert_allclose(u2, expected, rtol=1e-9, atol=1e-12)

    def test_incompatible_pair_rejected(self, f5, f2):
        with pytest.raises(ValueError):
            compose(f5, f2)


def _multilevel_price(p, q):
    return multilevel_price(p, q, Observable.constant(q.source.types, 1.0),
                            Observable.constant(q.target.types, 1.0))


PAIR_FUNCTIONS = [fisher, compose, ec_variance_bound, ec_selective_entropy_bound,
                  multilevel_second_law, stationarity, _multilevel_price, multilevel_variance,
                  intergenerational_ec_change]


@pytest.mark.parametrize("pair_function", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
def test_pair_functions_reject_pairs_that_do_not_compose(pair_function):
    """Every function of a pair checks composability before it computes: an
    intermediate population 1e-6 N' off, or on other labels, is an input
    error, never reported as a failed identity."""
    p = process(Population(AB, [1, 2]), [[1, 0.5], [0.2, 0.9]])
    kernel = [[0.5, 1.5], [1.0, 0.0]]
    gap = p.target.weights + [1e-6 * p.target.size, 0.0]
    off = process(Population(p.target.types, gap), kernel)
    with pytest.raises(ValueError, match="intermediate populations differ beyond tolerance"):
        pair_function(p, off)
    relabelled = process(Population(TypeSet(["x", "y"]), p.target.weights), kernel)
    with pytest.raises(ValueError, match="not composable"):
        pair_function(p, relabelled)
    pair_function(p, process(p.target, kernel))


@functools.cache
def pairs_at_the_admitted_gap() -> list:
    """2,000 pairs whose intermediate population sits 0.9e-9 * max(N', 1)
    above p's target on every type, inside the band check_composable admits."""
    pairs = []
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.1, 2, 4)
        kernel = np.where(rng.uniform(size=(4, 6)) < 0.8, rng.uniform(0.05, 2, (4, 6)), 0.0)
        p = process(Population(TypeSet.range(4), mu), kernel)
        mid = Population(p.target.types, p.target.weights + 0.9e-9 * max(p.target.size, 1.0))
        pairs.append((p, process(mid, rng.uniform(0.05, 1.6, (6, 1)))))
    return pairs


@pytest.mark.parametrize("pair_function", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
def test_accepted_pairs_never_raise(pair_function):
    """A pair check_composable accepts is read on p's exact target, so no
    two-stage identity sees the admitted gap: fisher and multilevel_second_law
    raised on 146 of these draws when q was read on its own source."""
    for p, q in pairs_at_the_admitted_gap():
        pair_function(p, q)


def test_check_composable_returns_q_on_the_exact_target():
    p = process(Population(AB, [1, 2]), [[1, 0.5], [0.2, 0.9]])
    kernel = [[0.5, 1.5], [1.0, 0.0]]
    exact = process(p.target, kernel)
    assert check_composable(p, exact) is exact
    near = process(Population(p.target.types, p.target.weights + 1e-10), kernel)
    moved = check_composable(p, near)
    assert moved.source is p.target and moved.target is near.target
    np.testing.assert_array_equal(moved.kernel, near.kernel)


class TestFactorization:
    def test_f5_factors(self, f5):
        fac = price_factorize(f5)
        np.testing.assert_allclose(fac.selective.kernel.sum(axis=1), [2, 0.5])
        np.testing.assert_allclose(fac.environmental.kernel, [[0.5, 0.5], [1, 0]])
        assert fac.dropped_types == ()
        product = fac.selective.kernel @ fac.environmental.kernel
        np.testing.assert_allclose(product, f5.kernel)

    def test_purely_environmental_factor_is_uniform_scaling(self, f2):
        fac = price_factorize(f2)
        np.testing.assert_allclose(fac.selective.kernel.sum(axis=1), [1, 1])
        np.testing.assert_allclose(
            fac.selective.kernel, np.eye(2) * fitness(f2).wbar
        )

    def test_f1_drops_childless_type(self, f1):
        fac = price_factorize(f1)
        np.testing.assert_allclose(fac.selective.kernel.sum(axis=1), [2, 0])
        assert fac.dropped_types == ("b",)
        np.testing.assert_allclose(fac.environmental.kernel, [[1.0]])

    def test_dropped_types_are_plain_labels(self, f1):
        """Labels of the source TypeSet, not numpy strings."""
        fac = price_factorize(f1)
        assert [type(t) for t in fac.dropped_types] == [str]
        assert repr(fac).endswith("dropped_types=('b',))")

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_process(rng)
            fac = price_factorize(p)
            out = compose(fac.selective, fac.environmental)
            np.testing.assert_allclose(
                out.target.weights, p.target.weights, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                fac.selective.kernel @ fac.environmental.kernel, p.kernel,
                rtol=1e-12, atol=1e-12,
            )
            assert classify_purity(fac.environmental) is Purity.PURELY_ENVIRONMENTAL


class TestPurity:
    def test_examples(self, f2, f5):
        assert classify_purity(f2) is Purity.PURELY_ENVIRONMENTAL
        diag = Process(Population(AB, [1, 2]), Population(AB, [2, 1]),
                       np.diag([2, 0.5]))
        assert classify_purity(diag) is Purity.PURELY_SELECTIVE
        assert classify_purity(f5) is Purity.MIXED

    def test_selective_factor_of_full_support_process(self):
        # Constant-fitness factors classify as purely environmental (a
        # uniform scaling is both); require nonconstant U for the check.
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            p = random_process(rng, kmin=2, density=1.0)
            u = fitness(p).U.values
            if u.max() - u.min() < 1e-6:
                continue
            fac = price_factorize(p)
            assert classify_purity(fac.selective) is Purity.PURELY_SELECTIVE
            checked += 1
