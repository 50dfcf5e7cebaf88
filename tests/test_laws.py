import copy
import math
import pickle
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest

from pricekit import (
    Observable,
    Population,
    TypeSet,
    covariance,
    ec_selective_entropy_bound,
    ec_variance_bound,
    exp_first_law,
    first_law,
    fitness,
    generating_profile,
    higher_order_first_law,
    multilevel_second_law,
    process,
    second_law,
    selective_acceleration,
    speed_limits,
    standard_reports,
    stationarity,
    zeroth_law,
)
from pricekit.config import EPS_BISECT
from pricekit.laws import LawReport
from pricekit.process import FitnessData, Process

from conftest import (
    random_composable_pair,
    random_process,
    selective_equilibrium_process,
)
from oracles import speed_limits_by_loop

LOG2 = np.log(2)


def test_to_dict_builds_the_chain_twice(f5, monkeypatch):
    """Slacks and link scales are each computed once per report and shared
    by ``saturated`` and ``satisfied``."""
    reads = []
    chain = LawReport.chain.fget
    monkeypatch.setattr(LawReport, "chain", property(lambda rep: reads.append(1) or chain(rep)))
    rep = second_law(f5)
    d = rep.to_dict()
    assert len(reads) == 2
    assert d["slacks"] == list(rep.slacks) and d["satisfied"] == rep.satisfied
    assert len(reads) == 2


def test_reports_pickle_and_copy_with_read_only_extras(f5):
    for rep in standard_reports(f5):
        rep.slacks  # a copy carries the cached links with the fields
        for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep), copy.copy(rep)):
            assert twin == rep and twin.to_dict() == rep.to_dict()
            with pytest.raises(TypeError):
                twin.extras["x"] = 1.0


def test_a_mappingproxy_of_its_own_still_does_not_pickle():
    """Only the package's records pickle their read-only mappings; importing
    pricekit leaves how any other mappingproxy pickles and copies alone."""
    for write in (pickle.dumps, copy.deepcopy):
        with pytest.raises(TypeError, match="mappingproxy"):
            write(MappingProxyType({"x": 1.0}))


class TestZerothLaw:
    def test_f1_fully_saturated(self, f1):
        rep = zeroth_law(f1)
        np.testing.assert_allclose(rep.chain, [1.0, 1.0, 1.0, 0.0], atol=1e-12)
        assert rep.saturated[:2] == (True, True)
        assert rep.equilibrium_class == "selective_equilibrium"

    def test_f2_all_zero(self, f2):
        rep = zeroth_law(f2)
        np.testing.assert_allclose(rep.chain, [0.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert rep.equilibrium_class == "purely_environmental"

    def test_f5_strict(self, f5):
        rep = zeroth_law(f5)
        assert rep.lhs == pytest.approx(0.5)
        assert rep.bounds[0] == pytest.approx(2 ** (1 / 3) - 1)
        assert rep.bounds[1] == pytest.approx(0.0)
        assert rep.satisfied and not rep.saturated[0]


class TestFirstLaw:
    def test_f1_saturated_value(self, f1):
        rep = first_law(f1)
        assert rep.lhs == pytest.approx(2.0)  # 1/p_*^2 - 1/p_*
        assert rep.bounds[0] == pytest.approx(2.0)
        assert rep.saturated[0]

    def test_f2_zero(self, f2):
        rep = first_law(f2)
        np.testing.assert_allclose(rep.chain, 0.0, atol=1e-12)

    def test_f5_moments(self, f5):
        rep = first_law(f5)
        assert rep.lhs == pytest.approx(2.75 - 1.5)
        assert rep.bounds[0] == pytest.approx(0.75)
        assert rep.satisfied

    def test_alt_route_agrees(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rep = first_law(random_process(rng))
            assert rep.lhs == pytest.approx(rep.extras["lhs_alt_route"], rel=1e-9, abs=1e-9)
            assert rep.extras["tighter_bound"] == "strong"


class TestHigherOrder:
    def test_even_order_saturates_at_equilibrium(self, f1):
        rep = higher_order_first_law(f1, 2)
        # E[U (U-1)^2] at the p_* = 1/2 fixture is 1 = var^2
        assert rep.lhs == pytest.approx(1.0)
        assert rep.bounds[0] == pytest.approx(1.0)
        assert rep.saturated[0]

    def test_purely_environmental_zero(self, f2):
        for n in range(1, 6):
            rep = higher_order_first_law(f2, n)
            np.testing.assert_allclose(rep.chain, 0.0, atol=1e-12)

    def test_odd_order_f5(self, f5):
        rep = higher_order_first_law(f5, 3)
        assert rep.bounds[0] == pytest.approx(0.0)  # p_* = 1
        assert rep.satisfied
        m = f5.source.weights / f5.source.size
        u = fitness(f5).U.values
        assert rep.extras["raw_moment"] == pytest.approx(float(m @ (u * (u - 1) ** 3)))

    def test_iterated_covariance_route(self):
        """The raw moment E[U (U-1)^n] is the n-fold application of the
        selective-change covariance to an accumulating integrand."""
        rng = np.random.default_rng(33)
        for _ in range(25):
            p = random_process(rng)
            u = fitness(p).U
            integrand = u
            for n in (1, 2, 3):
                moment = higher_order_first_law(p, n).extras["raw_moment"]
                via_cov = covariance(p.source, integrand, u)
                assert moment == pytest.approx(via_cov, rel=1e-9, abs=1e-9)
                integrand = Observable(p.source.types, integrand.values * (u.values - 1.0))

    def test_order_guard(self, f5):
        with pytest.raises(ValueError):
            higher_order_first_law(f5, 0)
        with pytest.raises(ValueError):
            higher_order_first_law(f5, 9)

    def test_exp_variant_saturates_at_equilibrium(self, f1):
        rep = exp_first_law(f1)
        assert rep.lhs == pytest.approx(0.5 * (np.exp(2) - 1))
        assert rep.saturated[0]


class TestSecondLaw:
    def test_f1_chain(self, f1):
        rep = second_law(f1)
        assert rep.lhs == pytest.approx(-LOG2)
        np.testing.assert_allclose(rep.chain[:-1], -LOG2, atol=1e-12)
        assert all(rep.saturated[:-1])

    def test_f2_zero(self, f2):
        np.testing.assert_allclose(second_law(f2).chain, 0.0, atol=1e-12)

    def test_f5_values(self, f5):
        rep = second_law(f5)
        assert rep.lhs == pytest.approx(-(2.5 / 3) * LOG2)
        assert rep.bounds[0] == pytest.approx(-0.5 * np.log(1.5))
        assert rep.satisfied


class TestSpeedLimits:
    def test_f1_saturated(self, f1):
        rep = speed_limits(f1)
        assert rep.lhs == pytest.approx(-LOG2)
        np.testing.assert_allclose(rep.bounds, -LOG2, atol=1e-9)
        assert rep.extras["stationary_point"] == pytest.approx(2.0, abs=1e-6)

    def test_f2_zero(self, f2):
        rep = speed_limits(f2)
        np.testing.assert_allclose(rep.chain, 0.0, atol=1e-12)

    def test_f5_infinitary(self, f5):
        rep = speed_limits(f5)
        m = f5.source.weights / f5.source.size
        u = fitness(f5).U.values
        expected = 0.0 - float(m @ (u**2 * np.log(u)))
        assert rep.extras["infinitary_bound"] == pytest.approx(expected)
        assert rep.satisfied


class TestSpeedLimitsOracle:
    """The grid moments come from one array power; every field equals the
    per-grid-point loop exactly."""

    def test_random_processes(self):
        rng = np.random.default_rng(46)
        seen = {"bisected": 0, "on_grid": 0, "none": 0}
        for t in range(400):
            p = random_process(rng, kmax=10)
            if t % 3 == 0:                          # U with zeros
                kernel = p.kernel * (rng.random(len(p.source.types)) < 0.6)[:, None]
                if kernel.sum() == 0:
                    continue
                p = process(p.source, kernel)
            rep = speed_limits(p)
            assert rep == speed_limits_by_loop(p)
            c_star = rep.extras["stationary_point"]
            key = ("none" if c_star is None else
                   "on_grid" if c_star in rep.extras["grid"] else "bisected")
            seen[key] += 1
        assert min(seen.values()) > 0, seen

    def test_zero_fitness(self, f1):
        assert speed_limits(f1) == speed_limits_by_loop(f1)

    def test_diverging_moment(self):
        # U = (~0.5, ~5e119): E[U^4] overflows, so some brackets are -inf
        src = Population(TypeSet(["a", "b"]), [1.0, 1e-120])
        p = process(src, [[1.0], [1e120]])
        with np.errstate(over="ignore"):
            assert np.isinf(fitness(p).moment(4.0))
        rep = speed_limits(p)
        assert rep == speed_limits_by_loop(p)
        assert rep.extras["basic_bound"] is not None

    def test_wide_and_extreme_processes(self):
        """K up to 64, parent weights x 10^{0, +-60, +-150}, rows with U zero,
        and one row in three carrying U near 10^40, 10^60 or 10^100 on a
        weight as small, so E[U^(1+c)] is finite where E[U^(2+c)] overflows."""
        rng = np.random.default_rng(49)
        seen = Counter()
        for t in range(240):
            k, k2 = (int(v) for v in rng.integers(1, 65, 2))
            kernel = rng.uniform(0.05, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.8)
            kernel[rng.random(k) < 0.2] = 0.0
            kernel[0, 0] = 1.0
            weights = rng.uniform(0.1, 2.0, k) * 10.0 ** (0, 60, -60, 150, -150)[t % 5]
            if t % 3 == 0 and k > 1:
                big = 10.0 ** (40, 60, 100)[t % 9 // 3]
                kernel[k - 1] = big * rng.uniform(0.5, 2.0, k2)
                weights[k - 1] /= big
            p = process(Population(TypeSet.range(k), weights), kernel)
            rep = speed_limits(p)
            assert rep == speed_limits_by_loop(p)
            c_star, grid = rep.extras["stationary_point"], rep.extras["grid"]
            seen["none" if c_star is None else "on_grid" if c_star in grid else "bisected"] += 1
            with np.errstate(over="ignore"):
                m = [(fitness(p).moment(1.0 + c), fitness(p).moment(2.0 + c)) for c in grid]
            seen["one_moment_overflows"] += any(np.isfinite(a) and np.isinf(b) for a, b in m)
        assert seen["bisected"] > 0 and seen["none"] > 0, seen
        assert seen["one_moment_overflows"] >= 20, seen

    def test_every_moment_is_read_through_fitness_data(self, monkeypatch):
        """speed_limits reads E[U^2] once and E[U^(1+c)], E[U^(2+c)] at each grid
        point and bisection step, each through FitnessData.moment: 2 |grid| + 1
        calls, plus 2 per step.  Moments formed another way (say, in one array
        power) may differ in the last bits from this route."""
        calls = []
        moment = FitnessData.moment
        monkeypatch.setattr(FitnessData, "moment",
                            lambda fd, k: calls.append(k) or moment(fd, k))
        rng = np.random.default_rng(50)
        bisected = 0
        for _ in range(300):
            p = random_process(rng, kmax=10)
            calls.clear()
            rep = speed_limits(p)
            grid, c_star = rep.extras["grid"], rep.extras["stationary_point"]
            n = 2 * len(grid) + 1
            assert sorted(calls[:n]) == sorted([2.0] + [e + c for c in grid for e in (1.0, 2.0)])
            steps = calls[n:]
            if c_star is None or c_star in grid:
                assert steps == []
                continue
            a = max(c for c in grid if c < c_star)
            b = min(c for c in grid if c > c_star)
            first = steps[::2]  # 1 + mid at each step, then 2 + mid
            assert steps[1::2] == [e + 1.0 for e in first] and all(a < e - 1.0 < b for e in first)
            assert len(first) == math.ceil(math.log2((b - a) / EPS_BISECT))
            bisected += 1
        assert bisected > 0


class TestSelectiveAcceleration:
    def test_f1_value(self, f1):
        # p_* = 1/2 equilibrium: direct evaluation gives -log 2.
        rep = selective_acceleration(f1)
        assert rep.lhs == pytest.approx(-LOG2)
        assert rep.satisfied

    def test_purely_environmental_trivial(self, f2):
        rep = selective_acceleration(f2)
        assert rep.extras["trivial"]
        np.testing.assert_allclose(rep.chain, 0.0, atol=1e-12)

    def test_f5_bracketed(self, f5):
        rep = selective_acceleration(f5)
        assert rep.extras["lower_bound"] - 1e-9 <= rep.lhs <= rep.bounds[0] + 1e-9


class TestRandomCorpus:
    def test_all_slacks_nonnegative(self):
        rng = np.random.default_rng(40)
        for _ in range(250):
            p = random_process(rng)
            reports = standard_reports(p) + [
                higher_order_first_law(p, n) for n in (1, 2, 3, 4)
            ] + [exp_first_law(p)]
            for rep in reports:
                assert min(rep.slacks) >= -1e-9, (rep.name, rep.chain)
                lower = rep.extras.get("lower_slack")
                if lower is not None:
                    assert lower >= -1e-9, rep.name

    def test_equilibrium_fixtures_saturate(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            p = selective_equilibrium_process(rng)
            p_star = fitness(p).p_star
            z = zeroth_law(p)
            assert z.equilibrium_class == "selective_equilibrium"
            assert z.lhs == pytest.approx(1 / p_star - 1, rel=1e-9)
            assert all(abs(s) <= 1e-9 for s in z.slacks[:2])
            f = first_law(p)
            assert f.lhs == pytest.approx(1 / p_star**2 - 1 / p_star, rel=1e-9)
            assert abs(f.slacks[0]) <= 1e-9
            s = second_law(p)
            assert s.lhs == pytest.approx(
                -(1 / p_star - 1) * np.log(1 / p_star), rel=1e-9, abs=1e-12
            )
            assert all(abs(x) <= 1e-9 for x in s.slacks[:-1])
            sp = speed_limits(p)
            assert all(abs(x) <= 1e-8 for x in sp.slacks)


class TestPairBounds:
    def test_strongly_stationary_pair_saturates_variance_bound(self, f2):
        q = Process(f2.target, f2.target, f2.kernel.copy())
        rep = ec_variance_bound(f2, q)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.bounds[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.extras["strongly_stationary"]

    def test_constant_continuation(self, f5):
        markov = np.array([[0.3, 0.7], [0.8, 0.2]])
        q = process(f5.target, markov)
        rep = ec_variance_bound(f5, q)
        assert rep.satisfied

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            p, q = random_composable_pair(rng)
            assert ec_variance_bound(p, q).satisfied
            assert ec_selective_entropy_bound(p, q).satisfied
            assert multilevel_second_law(p, q).satisfied

    def test_degenerate_moment_rejected(self):
        # E[U] = 1 by construction, so E[U^2] >= 1 and E[U^3] >= 1; moments
        # below that need an accounting whose stated children (2) the kernel
        # image (2e-9) does not carry, which the constructor rejects.
        src = Population(TypeSet(["a", "b"]), [1.0, 1.0])
        with pytest.raises(ValueError, match="disintegration"):
            Process(src, Population(TypeSet(["c0"]), [2.0]), [[1e-9], [1e-9]])

    def test_entropy_bound_stationary_pair(self, f2):
        q = Process(f2.target, f2.target, f2.kernel.copy())
        rep = ec_selective_entropy_bound(f2, q)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.bounds[0] == pytest.approx(0.0, abs=1e-12)

    def test_multilevel_second_law_cases(self, f2, f5):
        # selective-equilibrium continuation saturates
        eq_kernel = np.array([[2.0, 0.0], [0.0, 0.0]])
        q = process(f2.target, eq_kernel)
        rep = multilevel_second_law(f2, q)
        assert abs(rep.slacks[0]) <= 1e-9
        # purely environmental continuation is all zero
        markov = process(f5.target, np.array([[0.5, 0.5], [0.5, 0.5]]))
        rep2 = multilevel_second_law(f5, markov)
        np.testing.assert_allclose(rep2.chain, 0.0, atol=1e-12)


class TestStationarity:
    def test_stacked_markov_chains_strong(self, f2):
        q = Process(f2.target, f2.target, f2.kernel.copy())
        st = stationarity(f2, q)
        assert st.strong and st.weak and st.locally_homogeneous

    def test_scaled_fitness_homogeneous_not_weak(self):
        # Two parents with disjoint children; each child's fitness is a
        # common multiple of its parent's, so the ratio is constant != 1.
        src = Population(TypeSet(["a", "b"]), [1, 1])
        p = process(src, np.array([[1.5, 0.0], [0.0, 0.5]]))
        u = fitness(p).U.values
        lam = 0.6
        rows = np.array([[u[0] * lam, 0.0], [0.0, u[1] * lam]])
        # scale rows so that the continuation has E[U'] = 1 automatically
        q = process(p.target, rows)
        u_next = fitness(q).U.values
        ratio = u_next / u
        assert np.allclose(ratio, ratio[0])
        st = stationarity(p, q)
        assert st.locally_homogeneous and not st.weak and not st.strong

    def test_generic_pair_all_false(self):
        # Dense kernels with at least two children per parent: single-child
        # rows would make locally_constant hold vacuously.
        rng = np.random.default_rng(44)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            src = Population(TypeSet.range(k), rng.uniform(0.2, 2.0, k))
            p = process(src, rng.uniform(0.1, 1.5, (k, k)))
            q = process(p.target, rng.uniform(0.1, 1.5, (k, k)))
            st = stationarity(p, q)
            assert not any(
                [st.strong, st.weak, st.locally_homogeneous, st.locally_constant]
            )

    @pytest.mark.parametrize("k", [0.5e-12, 1.5e-12])
    def test_cells_are_the_profile_cells(self, k):
        """A cell is a flow share of the child mass above EPS_ZERO, as in the
        profile; both values of k leave (a, c1) below it, where the brood
        share k / (1 + k) of the old rule crossed it at k = 1.5e-12."""
        p = process(Population(TypeSet(["a", "b"]), [1, 1]), [[1.0, k], [0.0, 1.0]])
        q = process(p.target, [[1.0], [3.0]])
        assert not generating_profile(p).cells.p_tilde[0, 1] > 0
        assert stationarity(p, q).locally_constant

    def test_strong_implies_weak_and_homogeneous(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            p, q = random_composable_pair(rng, kmax=4)
            st = stationarity(p, q)
            if st.strong:
                assert st.weak and st.locally_homogeneous


class TestSaturationConsistency:
    """Classification and simultaneous saturation of the nontrivial links
    must agree: exact equilibria saturate everything, clearly generic
    processes saturate nothing."""

    def test_equilibria_saturate_all_nontrivial_links(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            p = selective_equilibrium_process(rng)
            z, f, s = zeroth_law(p), first_law(p), second_law(p)
            assert z.equilibrium_class == "selective_equilibrium"
            assert all(z.saturated[:2]) and f.saturated[0] and all(s.saturated[:-1])

    def test_clearly_generic_processes_saturate_nothing(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 40:
            p = random_process(rng, kmin=3, density=1.0)
            u = fitness(p).U.values
            alive = u > 1e-9
            spread = u[alive].max() - u[alive].min()
            if spread < 0.1 or u.min() < 1e-9:
                continue  # too close to an equilibrium or a boundary
            z, f, s = zeroth_law(p), first_law(p), second_law(p)
            assert z.equilibrium_class == "generic"
            assert not any(z.saturated[:2])
            assert not f.saturated[0]
            assert not any(s.saturated[:2])
            checked += 1
