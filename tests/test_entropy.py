import importlib
import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pricekit import (
    Partition,
    Population,
    TypeSet,
    compose,
    dispersion_mixing_bounds,
    environmental_entropy,
    environmental_equilibrium,
    environmental_profile,
    fitness,
    generating_profile,
    gibbs_report,
    intergenerational_ec_change,
    ks_entropy_curve,
    local_selective_entropy,
    process,
    reversibility,
    third_law,
)
from pricekit.config import EPS_ZERO
from pricekit.process import Process, flow_cells

from conftest import (
    bernoulli_dispersion,
    bernoulli_mixing,
    random_composable_pair,
    random_process,
)
from oracles import (
    equilibrium_by_loop,
    intergenerational_by_profiles,
    ks_entropy_curve_by_horizon,
    path_entropy_by_enumeration,
    set_partitions,
)

LOG2 = np.log(2)
SCALES = (0, -150, -60, 60, 150)


def outcome(fn, *args):
    """fn(*args) as the hex of every float it returns, or as the type and
    message of what it raised (a RuntimeWarning included, which the suite
    turns into an error)."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    values = result if isinstance(result, list) else astuple(result)
    return [float(v).hex() for v in values]


def random_kernel(rng, k, k2):
    """Entries 0 or in [0.05, 2), with a childless last row one draw in four."""
    kernel = rng.uniform(0.05, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.7)
    if k > 1 and rng.random() < 0.25:
        kernel[-1] = 0.0
    return kernel


class TestSelectiveEntropy:
    def test_fixture_values(self, f1, f2, f5):
        assert fitness(f1).s_ns == pytest.approx(-LOG2)
        assert fitness(f2).s_ns == pytest.approx(0.0, abs=1e-15)
        assert fitness(f5).s_ns == pytest.approx(-LOG2 / 3)

    def test_gibbs_window(self, f1, f5):
        rep = gibbs_report(f1)
        assert rep.lhs == pytest.approx(np.log(0.5))
        assert rep.saturated[0] and abs(rep.extras["lower_slack"]) <= 1e-9
        rep5 = gibbs_report(f5)
        assert rep5.extras["lower_bound"] < rep5.lhs < rep5.bounds[0]

    def test_nonpositive_and_zero_iff_constant(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            p = random_process(rng)
            s = fitness(p).s_ns
            assert s <= 1e-12
            u = fitness(p).U.values
            carried = p.source.weights > 0
            if np.max(np.abs(u[carried] - 1)) < 1e-12:
                assert abs(s) <= 1e-12


class TestLocalSelectiveEntropy:
    def test_full_cell_is_total(self, f5):
        full = local_selective_entropy(
            f5, f5.source.types.labels, f5.target.types.labels
        )
        assert full == pytest.approx(fitness(f5).s_ns)

    def test_purely_environmental_cells_vanish(self, f2):
        for a in (("a",), ("b",), ("a", "b")):
            for b in (("a",), ("b",)):
                assert local_selective_entropy(f2, a, b) == pytest.approx(0.0, abs=1e-15)

    def test_f5_single_cell(self, f5):
        got = local_selective_entropy(f5, ("a",), f5.target.types.labels)
        assert got == pytest.approx((1 / 3) * (-2 * LOG2))

    def test_additivity_over_partitions(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            p = random_process(rng, kmax=5)
            part_a = Partition.singletons(p.source.types)
            part_b = Partition.singletons(p.target.types)
            cells = [
                local_selective_entropy(p, a, b)
                for a in part_a.blocks
                for b in part_b.blocks
            ]
            assert sum(cells) == pytest.approx(fitness(p).s_ns, rel=1e-9, abs=1e-12)

    def test_cells_with_low_fitness_can_be_positive(self, f5):
        """Additivity and per-cell nonpositivity are incompatible: the
        U = 1/2 parent contributes -U_cell log U = +(log 2)/3 > 0."""
        got = local_selective_entropy(f5, ("b",), f5.target.types.labels)
        assert got == pytest.approx(LOG2 / 3)

    def test_renormalized_cells_are_nonpositive(self):
        rng = np.random.default_rng(151)
        for _ in range(40):
            p = random_process(rng, kmax=5)
            for a in Partition.singletons(p.source.types).blocks:
                for b in Partition.singletons(p.target.types).blocks:
                    assert local_selective_entropy(p, a, b, renormalized=True) <= 1e-12


class TestEnvironmentalProfile:
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_bernoulli_dispersion(self, q):
        prof = generating_profile(bernoulli_dispersion(q))
        h = -q * np.log(q) - (1 - q) * np.log(1 - q)
        assert prof.s_dis == pytest.approx(h, abs=1e-12)
        assert prof.s_mix == pytest.approx(0.0, abs=1e-12)
        assert prof.s_ec == pytest.approx(h, abs=1e-12)

    @pytest.mark.parametrize("p_mass", [0.1, 0.3, 0.5, 0.8])
    def test_bernoulli_mixing(self, p_mass):
        prof = generating_profile(bernoulli_mixing(p_mass))
        h = -p_mass * np.log(p_mass) - (1 - p_mass) * np.log(1 - p_mass)
        assert prof.s_mix == pytest.approx(h, abs=1e-12)
        assert prof.s_dis == pytest.approx(0.0, abs=1e-12)

    def test_f2_singletons(self, f2):
        prof = generating_profile(f2)
        assert prof.s_ec == pytest.approx(np.log(4))
        assert prof.s_dis == pytest.approx(LOG2)
        assert prof.s_mix == pytest.approx(LOG2)

    def test_identity_process_profile(self):
        pop = Population(TypeSet(["a", "b", "c"]), [1, 2, 1])
        ident = Process(pop, pop, np.eye(3))
        prof = generating_profile(ident)
        probs = pop.weights / pop.size
        assert prof.s_ec == pytest.approx(float(-(probs * np.log(probs)).sum()))
        assert prof.s_dis == pytest.approx(0.0, abs=1e-15)

    def test_decomposition_and_signs_randomized(self):
        rng = np.random.default_rng(52)
        for _ in range(150):
            p = random_process(rng)
            prof = generating_profile(p)
            assert prof.s_ec == pytest.approx(prof.s_dis + prof.s_mix, rel=1e-9, abs=1e-12)
            assert prof.s_dis >= -1e-12 and prof.s_mix >= -1e-12 and prof.s_ec >= -1e-12
            assert prof.s_ns <= 1e-12
            c = prof.cells
            live = c.p_tilde > 0
            assert np.all(c.gamma[live] <= c.lam[live] + 1e-12)
            assert np.all(c.lam[live] + 1e-12 <= c.phi[live] + 2e-12)

    def test_fluctuation_equality_iff_purely_dispersive_cell(self):
        c = generating_profile(bernoulli_dispersion(0.4)).cells
        live = c.p_tilde > 0
        # single-parent cells here have D < 1, so inequalities strict
        assert np.all(c.gamma[live] < c.lam[live]) and np.all(c.lam[live] < c.phi[live])
        ident = Process(
            Population(TypeSet(["a"]), [1.0]), Population(TypeSet(["a"]), [1.0]),
            np.eye(1),
        )
        c = generating_profile(ident).cells
        assert c.gamma == pytest.approx(c.lam) and c.lam == pytest.approx(c.phi)

    def test_partition_refinement_conservation(self):
        """Coarsening never raises the partition entropy, and the gap is the
        conditional entropy of the finer cells inside the coarser ones."""
        rng = np.random.default_rng(53)
        for _ in range(10):
            k, k2 = 3, 3
            src = Population(TypeSet.range(k), rng.uniform(0.2, 2, k))
            p = process(src, rng.uniform(0.05, 1.5, (k, k2)))
            fine_a = Partition.singletons(p.source.types)
            fine_b = Partition.singletons(p.target.types)
            fine = environmental_profile(p, fine_a, fine_b)
            for blocks_a in set_partitions(p.source.types.labels):
                for blocks_b in set_partitions(p.target.types.labels):
                    part_a = Partition(p.source.types, blocks_a)
                    part_b = Partition(p.target.types, blocks_b)
                    coarse = environmental_profile(p, part_a, part_b)
                    assert coarse.s_ec <= fine.s_ec + 1e-9
                    conditional = 0.0
                    for (i, ba), (j, bb) in itertools.product(
                            enumerate(fine.cells.keys_a), enumerate(fine.cells.keys_b)):
                        u_bar = fine.cells.u_bar[i, j]
                        if u_bar <= 0:
                            continue
                        a = next(k for k, b in enumerate(coarse.cells.keys_a) if ba[0] in b)
                        b = next(k for k, b in enumerate(coarse.cells.keys_b) if bb[0] in b)
                        conditional += -u_bar * np.log(u_bar / coarse.cells.u_bar[a, b])
                    assert fine.s_ec == pytest.approx(
                        coarse.s_ec + conditional, rel=1e-9, abs=1e-9
                    )


class TestEnvironmentalEntropy:
    """S_EC from the flow shares equals the singleton profile's bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 10), min_size=1, max_size=6),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10)), min_size=36, max_size=36),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
    )
    def test_equals_the_singleton_profile(self, weights, entries, k2, childless, zero_column):
        """K = 1, K != K', childless rows and zero columns, at weights x 1,
        1e+-60 and 1e+-150 (kernel entries 0 or >= 1e-6, so no child mass
        underflows at 1e-150)."""
        k = len(weights)
        kernel = np.reshape(entries[: k * k2], (k, k2))
        if childless:
            kernel[-1] = 0.0
        if zero_column:
            kernel[:, 0] = 0.0
        assume(kernel.sum(axis=1) @ weights > 0)
        for s in (0, -150, -60, 60, 150):
            p = process(Population(TypeSet.range(k), np.multiply(weights, 10.0**s)), kernel)
            prof = generating_profile(p)
            assert environmental_entropy(p) == prof.s_ec, f"weights x 1e{s}"
            assert fitness(p).s_ns + environmental_entropy(p) == prof.s_tot

    def test_single_type(self):
        p = process(Population(TypeSet(["a"]), [3.0]), [[0.25, 0.0, 0.75]])
        assert environmental_entropy(p) == generating_profile(p).s_ec
        assert environmental_entropy(p) == pytest.approx(-(0.25 * np.log(0.25) + 0.75 * np.log(0.75)))


class TestTotalEntropy:
    def test_fixture_values(self, f1, f2):
        assert fitness(f2).s_ns + environmental_entropy(f2) == pytest.approx(np.log(4))
        assert fitness(f1).s_ns + environmental_entropy(f1) == pytest.approx(-LOG2)

    def test_purely_selective_diagonal(self):
        pop = Population(TypeSet(["a", "b"]), [1, 2])
        p = process(pop, np.diag([2.0, 0.5]))
        prof = generating_profile(p)
        # the diagonal keeps each parent's mass on its own type, but the
        # partition functional still sees the spread of the flow масс
        assert prof.s_tot == pytest.approx(prof.s_ns + prof.s_ec)
        assert prof.s_dis == pytest.approx(0.0, abs=1e-12)


class TestEnvironmentalEquilibrium:
    def test_singletons_always_true(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            ok, witnesses = environmental_equilibrium(random_process(rng))
            assert ok and witnesses == []

    def test_f2_block_cell_constant(self, f2):
        part_a = Partition(f2.source.types, [("a", "b")])
        part_b = Partition.singletons(f2.target.types)
        ok, _ = environmental_equilibrium(f2, part_a, part_b)
        assert ok

    def test_unequal_row_splits_fail_at_block_level(self):
        src = Population(TypeSet(["a", "b"]), [1, 1])
        p = process(src, [[0.9, 0.1], [0.5, 0.5]])
        part_a = Partition(p.source.types, [("a", "b")])
        part_b = Partition.singletons(p.target.types)
        ok, witnesses = environmental_equilibrium(p, part_a, part_b)
        assert not ok and len(witnesses) == 2

    def test_reads_no_cell_statistics(self, monkeypatch):
        """Only each parent's dispersion is read; the twelve cell statistics
        are never built."""
        def refuse(*args):
            raise AssertionError("cell_arrays called")

        monkeypatch.setattr(importlib.import_module("pricekit.entropy"), "cell_arrays", refuse)
        p = process(Population(TypeSet(["a", "b"]), [1, 1]), [[0.9, 0.1], [0.5, 0.5]])
        ok, witnesses = environmental_equilibrium(p, Partition(p.source.types, [("a", "b")]),
                                                  Partition.singletons(p.target.types))
        assert not ok and len(witnesses) == 2
        assert environmental_equilibrium(p) == (True, [])

    @staticmethod
    def equilibrium_inputs(rng):
        """Processes on K, K' <= 3 types: random kernels with a childless row,
        at parent weights x 10^{0, +-60}, and kernels whose row 0 sends a flow
        share of 0.5, 1 and 2 x EPS_ZERO to child 0 and the rest to child 1."""
        for k, k2 in itertools.product((1, 2, 3), repeat=2):
            for s in (0, -60, 60):
                kernel = rng.uniform(0.05, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.8)
                if k > 1:
                    kernel[int(rng.integers(k))] = 0.0
                if not kernel.any():
                    kernel[-1, 0] = 1.0
                weights = rng.uniform(0.1, 2.0, k) * 10.0**s
                yield process(Population(TypeSet.range(k), weights), kernel)
            for factor in (0.5, 1.0, 2.0) if k2 > 1 else ():
                weights = rng.uniform(0.1, 2.0, k)
                kernel = rng.uniform(0.05, 2.0, (k, k2))
                kernel[0] = 0.0
                kernel[0, 1] = 1.0
                share = factor * EPS_ZERO     # t mu_0 = share * (mu_0 + mu.W) solves for t
                kernel[0, 0] = share * (weights @ kernel.sum(axis=1)) / (weights[0] * (1 - share))
                yield process(Population(TypeSet.range(k), weights), kernel)

    def test_matches_loop_on_every_pair_of_set_partitions(self):
        """Verdict and witness cells exactly, d_min and d_max to 1e-12 relative."""
        rng = np.random.default_rng(58)
        cases = failing = 0
        for p in self.equilibrium_inputs(rng):
            for blocks_a, blocks_b in itertools.product(set_partitions(p.source.types.labels),
                                                        set_partitions(p.target.types.labels)):
                part_a = Partition(p.source.types, blocks_a)
                part_b = Partition(p.target.types, blocks_b)
                ok, got = environmental_equilibrium(p, part_a, part_b)
                want_ok, want = equilibrium_by_loop(p, part_a, part_b)
                assert ok == want_ok
                assert [w["cell"] for w in got] == [w["cell"] for w in want]
                for g, w in zip(got, want):
                    for key in ("d_min", "d_max"):
                        assert abs(g[key] - w[key]) <= 1e-12 * abs(w[key]), (g, w)
                cases += 1
                failing += not ok
        assert cases > 300 and failing > 50


class TestDispersionMixingBounds:
    def test_bernoulli_dispersion_saturation(self):
        dis, mix = dispersion_mixing_bounds(bernoulli_dispersion(0.3))
        # dis chain: upper link touches S_EC; mixing lower bound is 0 = S_mix
        assert dis.bounds[0] == pytest.approx(dis.lhs, abs=1e-12)
        assert mix.bounds[2] == pytest.approx(0.0, abs=1e-12)
        assert mix.bounds[1] == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_mixing_mirror(self):
        dis, mix = dispersion_mixing_bounds(bernoulli_mixing(0.3))
        assert mix.bounds[0] == pytest.approx(mix.lhs, abs=1e-12)
        assert dis.bounds[1] == pytest.approx(0.0, abs=1e-12)

    def test_f2_inner_saturated_outer_strict(self, f2):
        dis, mix = dispersion_mixing_bounds(f2)
        # chain is [S_EC, upper, S, lower, 0]
        np.testing.assert_allclose(dis.chain, [np.log(4), LOG2, LOG2, LOG2, 0.0], atol=1e-12)
        np.testing.assert_allclose(mix.chain, [np.log(4), LOG2, LOG2, LOG2, 0.0], atol=1e-12)
        assert dis.chain[0] > dis.chain[1] + 0.5  # outer link strict

    def test_randomized_chains_hold_and_inner_saturate(self):
        rng = np.random.default_rng(55)
        for _ in range(120):
            p = random_process(rng)
            dis, mix = dispersion_mixing_bounds(p)
            assert min(dis.slacks) >= -1e-9
            assert min(mix.slacks) >= -1e-9
            # singleton partitions of a finite process sit in equilibrium,
            # so the inner links touch
            assert abs(dis.chain[1] - dis.chain[2]) <= 1e-9
            assert abs(dis.chain[2] - dis.chain[3]) <= 1e-9
            assert abs(mix.chain[1] - mix.chain[2]) <= 1e-9
            assert abs(mix.chain[2] - mix.chain[3]) <= 1e-9


class TestThirdLaw:
    def test_purely_environmental_zero(self, f2):
        reports = third_law(f2)
        for rep in reports.values():
            assert rep.lhs == pytest.approx(0.0, abs=1e-12)
            assert rep.bounds[0] == pytest.approx(0.0, abs=1e-12)
            assert rep.extras["lower_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_windows_collapse_onto_lhs_at_singletons(self):
        rng = np.random.default_rng(56)
        for _ in range(120):
            p = random_process(rng)
            for rep in third_law(p).values():
                assert rep.extras["window_width"] == pytest.approx(0.0, abs=1e-9)
                assert rep.extras["lower_bound"] - 1e-9 <= rep.lhs <= rep.bounds[0] + 1e-9

    def test_known_nonzero_value(self):
        """A plain discrete process whose selective change of the partition
        entropy is (log 3)/9; the change need not vanish off equilibrium."""
        src = Population(TypeSet(["a", "b"]), [1, 1])
        p = process(src, [[1, 1], [1, 0]])
        reports = third_law(p)
        assert reports["ns_s_ec"].lhs == pytest.approx(np.log(3) / 9)
        assert reports["ns_s_dis"].lhs == pytest.approx(2 * LOG2 / 9)
        assert reports["ns_s_mix"].lhs == pytest.approx(np.log(3 / 4) / 9)

    def test_closed_form_at_singleton_cells(self):
        """At singleton cells the selective change of S_EC is
        -E[(U-1) U (log(pi U) - H)], pi = mu/N and H_i the entropy of row i of
        d = W_ij / W_i; a childless row contributes 0.  This is why 8a's
        changes are generically nonzero."""
        def closed_form(mu, w):
            pi = mu / mu.sum()
            w_row = w.sum(axis=1)
            live = w_row > 0
            u = w_row[live] / (pi @ w_row)
            d = w[live] / w_row[live, None]
            h = -np.sum(d * np.log(np.where(d > 0, d, 1.0)), axis=1)
            return -float(np.sum(pi[live] * (u - 1.0) * u * (np.log(pi[live] * u) - h)))

        assert closed_form(np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 0.0]])) == \
            pytest.approx(np.log(3) / 9, rel=1e-15)
        rng = np.random.default_rng(58)
        for _ in range(300):
            k, k2 = (int(v) for v in rng.integers(1, 7, 2))
            mu = rng.uniform(0.1, 2.0, k) * 10.0 ** rng.integers(-3, 4)
            w = rng.uniform(0.05, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.8)
            w[rng.random(k) < 0.2] = 0.0             # childless rows
            if not w.any():
                w[0, 0] = 1.0
            w *= 10.0 ** rng.integers(-3, 4)
            p = process(Population(TypeSet.range(k), mu), w)
            assert third_law(p)["ns_s_ec"].lhs == pytest.approx(
                closed_form(mu, w), rel=1e-12, abs=1e-14)

    def test_block_partition_window_brackets_lhs(self):
        src = Population(TypeSet(["a", "b"]), [1, 1])
        p = process(src, [[0.9, 0.1], [0.5, 0.5]])
        part_a = Partition(p.source.types, [("a", "b")])
        part_b = Partition.singletons(p.target.types)
        ok, _ = environmental_equilibrium(p, part_a, part_b)
        assert not ok
        for rep in third_law(p, part_a, part_b).values():
            assert rep.extras["window_width"] > 1e-6
            assert rep.extras["lower_bound"] - 1e-9 <= rep.lhs <= rep.bounds[0] + 1e-9

    def test_split_identity(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            p = random_process(rng, kmax=5)
            reports = third_law(p)
            assert reports["ns_s_ec"].lhs == pytest.approx(
                reports["ns_s_dis"].lhs + reports["ns_s_mix"].lhs, rel=1e-9, abs=1e-12
            )


class TestIntergenerational:
    def test_purely_environmental_first_stage_routes_agree(self, f2):
        q = process(f2.target, np.array([[0.2, 0.8], [0.6, 0.4]]))
        r = intergenerational_ec_change(f2, q)
        assert r.ns_s_ec == pytest.approx(0.0, abs=1e-12)
        assert r.price_route == pytest.approx(r.formula_route, rel=1e-9, abs=1e-9)
        assert r.price_route == pytest.approx(r.s_ec_next - r.s_ec, rel=1e-9, abs=1e-12)

    def test_gap_identity_random_pairs(self):
        """The two routes differ by exactly (1/E[U^2] - 1) E[U X]."""
        rng = np.random.default_rng(58)
        for _ in range(60):
            p, q = random_composable_pair(rng, kmax=5)
            r = intergenerational_ec_change(p, q)
            u = fitness(p).U.values
            prob = p.source.weights / p.source.size
            m2 = float(prob @ u**2)
            flow = p.kernel * p.source.weights[:, None] / p.target.size
            e_ux = 0.0
            wbar = fitness(p).wbar
            for i in range(flow.shape[0]):
                for j in range(flow.shape[1]):
                    if flow[i, j] > 0:
                        e_ux += prob[i] * u[i] * (p.kernel[i, j] / wbar) * (-np.log(flow[i, j]))
            gap = r.formula_route - r.price_route
            assert gap == pytest.approx(-(1 / m2 - 1) * e_ux, rel=1e-9, abs=1e-9)

    def test_price_route_is_definitional(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            p, q = random_composable_pair(rng, kmax=5)
            r = intergenerational_ec_change(p, q)
            assert r.s_ec_next - r.s_ec == pytest.approx(
                r.ns_s_ec + r.price_route, rel=1e-9, abs=1e-12
            )

    def test_equals_the_two_profile_route_bit_for_bit(self):
        """q's S_EC' and next cells read from its flow equal those of its full
        singleton profile, every field and every error alike: K = 1, K != K',
        childless rows, weights x 1, 1e+-60 and 1e+-150, and a q whose stated
        children its kernel does not bear."""
        rng = np.random.default_rng(71)
        kinds = set()
        for draw in range(120):
            k, k2, k3 = (int(v) for v in rng.integers(1, 6, 3))
            kernel_p, kernel_q = random_kernel(rng, k, k2), random_kernel(rng, k2, k3)
            if draw % 10 == 0:
                kernel_q[:] = 0.0
            weights = rng.uniform(0.1, 2.0, k)
            for s in SCALES:
                try:
                    p = process(Population(TypeSet.range(k), weights * 10.0**s), kernel_p)
                except ValueError:
                    continue  # p bears no children: there is no pair
                q = Process(p.target, Population(TypeSet.range(k3, "n"), np.ones(k3)),
                            kernel_q, _check=False)
                expected = outcome(intergenerational_by_profiles, p, q)
                assert outcome(intergenerational_ec_change, p, q) == expected
                kinds.add(expected[0] if isinstance(expected[0], type) else "change")
        assert kinds == {"change", ValueError}

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_next_cells_at_the_zero_threshold(self, factor):
        """A q share at 0.5, 1 and 2 x EPS_ZERO is a next cell exactly when
        q's profile counts it."""
        share = EPS_ZERO * factor
        k = 2.0 * share / (1.0 - share)             # k / (2 + k) = share
        p = process(Population(TypeSet(["a", "b"]), [1, 1]), [[0.5, 0.5], [0.5, 0.5]])
        q = process(p.target, [[1.0, k], [0.0, 1.0]])
        assert outcome(intergenerational_ec_change, p, q) == outcome(
            intergenerational_by_profiles, p, q)

    def test_builds_one_profile(self, monkeypatch):
        """Only p's singleton profile is built; q's side comes from its flow."""
        entropy = importlib.import_module("pricekit.entropy")
        calls = []

        def counted(*args, _build=entropy.environmental_profile):
            calls.append(args[0])
            return _build(*args)

        monkeypatch.setattr(entropy, "environmental_profile", counted)
        p, q = random_composable_pair(np.random.default_rng(72))
        intergenerational_ec_change(p, q)
        assert calls == [p]


class TestReversibility:
    def test_bernoulli_dispersion_left_only(self):
        v = reversibility(bernoulli_dispersion(0.4))
        assert v.left_invertible and not v.right_invertible and not v.invertible
        # the retraction maps both children back to the single parent
        np.testing.assert_allclose(v.retraction.kernel, [[1.0], [1.0]])

    def test_bernoulli_mixing_right_only(self):
        v = reversibility(bernoulli_mixing(0.4))
        assert v.right_invertible and not v.left_invertible
        assert v.section is not None

    def test_permutation_kernel_fully_invertible(self):
        pop = Population(TypeSet(["a", "b", "c"]), [1, 2, 3])
        kernel = np.array([[0, 2.0, 0], [0, 0, 1.0], [0.5, 0, 0]])
        p = process(pop, kernel)
        v = reversibility(p)
        assert v.invertible and v.dollo_childbearing and v.dollo_full
        # full inverse sends the child population back to the source exactly
        recovered = v.inverse.kernel.T @ p.target.weights
        np.testing.assert_allclose(recovered, pop.weights, rtol=1e-12)

    def test_dense_kernel_forms_no_factorization(self, monkeypatch):
        """Both obstructions are positive, so no inverse is built and the
        redistribution stage is never formed."""
        def refuse(p):
            raise AssertionError("price_factorize called")

        monkeypatch.setattr(importlib.import_module("pricekit.entropy"), "price_factorize", refuse)
        p = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1.0, 0.5], [0.25, 2.0]])
        v = reversibility(p)
        assert v.dis_obstruction > 0 and v.mix_obstruction > 0
        assert (v.left_invertible, v.right_invertible, v.invertible) == (False, False, False)
        assert v.retraction is None and v.section is None and v.inverse is None

    def test_inverse_kernel_overflow_is_named(self):
        """Every entry of 1e-310 * I is finite, but the inverse kernel 1 / W is
        not; at 1e-300 the inverse (1e300) can be represented."""
        src = Population(TypeSet(["a", "b"]), [1, 2])
        assert reversibility(process(src, 1e-300 * np.eye(2))).invertible
        with pytest.raises(ValueError, match=r"inverse kernel overflow: got inf at \[0, 0\]"):
            reversibility(process(src, 1e-310 * np.eye(2)))

    def test_childless_type_blocks_dollo_full(self, f1):
        v = reversibility(f1)
        assert v.left_invertible  # single parent feeds the single child
        assert not v.dollo_full

    def test_verdict_matches_search_on_random_grid(self):
        from oracles import search_one_sided_inverses

        rng = np.random.default_rng(60)
        levels = np.array([0.0, 0.5, 1.0])
        for _ in range(300):
            k, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            kernel = levels[rng.integers(0, 3, size=(k, k2))]
            if kernel.sum() == 0:
                continue
            src = Population(TypeSet.range(k), np.ones(k))
            p = process(src, kernel)
            v = reversibility(p)
            left, right = search_one_sided_inverses(p)
            assert (v.left_invertible, v.right_invertible) == (left, right)

    @pytest.mark.parametrize("factor", [0.5, 1 + 5e-10, 2.0])
    def test_flow_cells_agree_with_profile_cells_at_the_zero_threshold(self, factor):
        """Both decide a (parent, child) cell on its share of the child mass
        n * wbar; a stated target 0.9e-9 above the kernel image passes
        validation and must not move the decision."""
        share = EPS_ZERO * factor
        k = 2.0 * share / (1.0 - share)             # k / (2 + k) = share
        image = np.array([1.0, 1.0 + k])
        p = Process(Population(TypeSet(["a", "b"]), [1, 1]),
                    Population(TypeSet(["c0", "c1"]), image + 0.9e-9), [[1.0, k], [0.0, 1.0]])
        support = generating_profile(p).cells.p_tilde > 0
        np.testing.assert_array_equal(support, flow_cells(p) > 0)
        assert support[0, 1] == (factor > 1)


class TestPathEntropy:
    def test_t1_equals_generating_profile(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            src = Population(TypeSet.range(k), rng.uniform(0.2, 2, k))
            kernel = rng.uniform(0.05, 1.5, (k, k))
            p = Process(src, Population(src.types, kernel.T @ src.weights), kernel)
            assert ks_entropy_curve(p, 1)[-1] == pytest.approx(
                generating_profile(p).s_ec, rel=1e-9, abs=1e-12
            )

    def test_symmetric_kernel_matches_enumeration(self):
        src = Population(TypeSet(["a", "b"]), [1, 1])
        p = Process(src, Population(src.types, [1, 1]), [[0.5, 0.5], [0.5, 0.5]])
        assert ks_entropy_curve(p, 2)[-1] == pytest.approx(
            path_entropy_by_enumeration(p, 2), abs=1e-12
        )
        assert ks_entropy_curve(p, 2)[-1] == pytest.approx(3 * LOG2, abs=1e-12)

    def test_permutation_kernel_constant_in_t(self):
        src = Population(TypeSet(["a", "b", "c"]), [1, 2, 3])
        kernel = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
        p = Process(src, Population(src.types, kernel.T @ src.weights), kernel)
        curve = ks_entropy_curve(p, 5)
        np.testing.assert_allclose(curve, curve[0], rtol=1e-12)
        for t in (1, 2, 3):
            assert curve[t - 1] == pytest.approx(path_entropy_by_enumeration(p, t), abs=1e-12)

    def test_monotone_and_matches_enumeration_randomized(self):
        rng = np.random.default_rng(62)
        done = 0
        while done < 20:
            k = int(rng.integers(2, 4))
            src = Population(TypeSet.range(k), rng.uniform(0.2, 2, k))
            kernel = rng.uniform(0.05, 1.2, (k, k)) * (rng.random((k, k)) < 0.8)
            if (kernel @ np.ones(k) ** 4).min() == 0 and kernel.sum() == 0:
                continue
            if kernel.sum() == 0:
                kernel[0, 0] = 1.0
            if np.linalg.matrix_power(kernel, 4).sum() <= 1e-12:
                continue  # the population dies out before the horizon
            p = Process(src, Population(src.types, kernel.T @ src.weights), kernel)
            curve = ks_entropy_curve(p, 4)
            for t in (1, 2, 3):
                assert curve[t - 1] == pytest.approx(
                    path_entropy_by_enumeration(p, t), rel=1e-9, abs=1e-9
                )
            done += 1

    def test_monotone_for_constant_fitness_kernels(self):
        """Longer horizons refine the path law only when fitness is constant;
        selective reweighting can make the curve dip otherwise."""
        rng = np.random.default_rng(65)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            raw = rng.uniform(0.1, 1.0, (k, k))
            kernel = raw / raw.sum(axis=1, keepdims=True)  # rows sum to one
            src = Population(TypeSet.range(k), rng.uniform(0.2, 2, k))
            p = Process(src, Population(src.types, kernel.T @ src.weights), kernel)
            curve = ks_entropy_curve(p, 5)
            assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_extinction_is_an_error(self):
        src = Population(TypeSet(["a", "b"]), [1, 1])
        kernel = np.array([[0.0, 1.0], [0.0, 0.0]])  # everything funnels into b, then dies
        p = Process(src, Population(src.types, kernel.T @ src.weights), kernel)
        with pytest.raises(ValueError):
            ks_entropy_curve(p, 3)

    def test_guards(self, f5, f2):
        with pytest.raises(ValueError):
            ks_entropy_curve(f5, 2)  # not endomorphic
        with pytest.raises(ValueError):
            ks_entropy_curve(f2, 0)
        with pytest.raises(ValueError):
            ks_entropy_curve(f2, 7)

    def test_equals_the_per_horizon_route_bit_for_bit(self):
        """Every horizon T = 1..6 of seeded kernels, K = 1 included, with
        childless rows, weights x 1, 1e+-60 and 1e+-150, nilpotent kernels that
        die out, kernels x 1e+-150, and kernels whose largest entry far exceeds
        the flow of the carried types: the same curve, or the same error at the
        same horizon.  Where the per-horizon route overflows (a kernel x 1e150),
        the curve is that route's on the unscaled kernel, within 1e-12 relative."""
        rng = np.random.default_rng(73)
        kinds = set()
        for draw in range(150):
            k = int(rng.integers(1, 6))
            kernel = unscaled = random_kernel(rng, k, k)
            if draw % 5 == 1:
                kernel = unscaled = np.triu(kernel, 1)     # every path dies within K steps
            if draw % 5 == 2:
                kernel = kernel * 10.0 ** rng.choice([-150, 150])
            if not kernel.any():
                continue
            src = Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k))
            for s in SCALES:
                parents = src if s == 0 else Population(src.types, src.weights * 10.0**s)
                p = Process(parents, src, kernel, _check=False)
                for t_max in range(1, 7):
                    expected = outcome(ks_entropy_curve_by_horizon, p, t_max)
                    got = outcome(ks_entropy_curve, p, t_max)
                    kinds.add(expected[0] if isinstance(expected[0], type) else "curve")
                    if expected[0] is RuntimeWarning:
                        expected = outcome(ks_entropy_curve_by_horizon,
                                           Process(parents, src, unscaled, _check=False), t_max)
                        assert list(map(float.fromhex, got)) == pytest.approx(
                            list(map(float.fromhex, expected)), rel=1e-12, abs=0)
                    else:
                        assert got == expected
        assert kinds == {"curve", ValueError, RuntimeWarning}
        # The rescaled masses do not decide die-out: weights (1, 1e-20) live on.
        src = Population(TypeSet.range(2), [1.0, 1e-20])
        for kernel in ([[0.1, 0.0], [0.0, 8.0]], [[0.01, 0.0], [0.0, 1000.0]]):
            p = Process(src, src, np.array(kernel), _check=False)
            for t_max in range(1, 7):
                expected = outcome(ks_entropy_curve_by_horizon, p, t_max)
                assert outcome(ks_entropy_curve, p, t_max) == expected
                assert not isinstance(expected[0], type)

    def test_a_large_kernel_scale_does_not_overflow(self):
        """Weights (1e60, 2e60) and the kernel c [[1, .5], [.3, 1]]: the curve at
        c = 1e150 is the one at c = 1, with no overflow.  Die-out is still
        measured against the population size, so at c = 1e-12 the mass left
        after two steps, about 1e-24 of it, counts as dying out."""
        src = Population(TypeSet(["a", "b"]), [1e60, 2e60])
        kernel = np.array([[1.0, 0.5], [0.3, 1.0]])
        curve = ks_entropy_curve(process(src, kernel, src.types), 3)
        assert curve == pytest.approx([1.2322, 1.8318, 2.4298], abs=1e-4)
        assert ks_entropy_curve(process(src, 1e150 * kernel, src.types), 3) == pytest.approx(
            curve, rel=1e-12, abs=0)
        with pytest.raises(ValueError, match="dies out before horizon 2"):
            ks_entropy_curve(process(src, 1e-12 * kernel, src.types), 3)

    @pytest.mark.parametrize("t_max", range(1, 7))
    def test_one_row_entropy_per_horizon(self, monkeypatch, t_max):
        """x log x runs twice per horizon: on its first marginal and on its
        one new row-entropy array."""
        entropy = importlib.import_module("pricekit.entropy")
        calls = []

        def counted(x, _xlogx=entropy.xlogx):
            calls.append(np.shape(x))
            return _xlogx(x)

        monkeypatch.setattr(entropy, "xlogx", counted)
        src = Population(TypeSet.range(3), [1.0, 2.0, 0.5])
        kernel = np.array([[0.5, 1.0, 0.0], [0.2, 0.3, 0.9], [1.1, 0.0, 0.4]])
        ks_entropy_curve(Process(src, src, kernel, _check=False), t_max)
        assert len(calls) == 2 * t_max


class TestComposedEntropy:
    def test_entropy_depends_only_on_selective_factor(self):
        """Two processes sharing relative fitness share selective entropy."""
        rng = np.random.default_rng(63)
        src = Population(TypeSet.range(3), rng.uniform(0.3, 2, 3))
        base = rng.uniform(0.1, 1.5, (3, 3))
        p = process(src, base)
        w = p.fitness_values
        # redistribute each row differently but keep row sums
        alt = np.zeros_like(base)
        alt[:, 0] = w
        q = process(src, alt)
        assert fitness(p).s_ns == pytest.approx(fitness(q).s_ns, rel=1e-12)

    def test_bernoulli_roundtrip_entropies(self):
        disp = bernoulli_dispersion(0.5)
        assert generating_profile(disp).s_ec == pytest.approx(LOG2)
        mix = Process(disp.target, Population(TypeSet(["o"]), [1.0]), [[1], [1]])
        # the round trip is the identity on a single type: no uncertainty left
        both = compose(disp, mix)
        assert generating_profile(both).s_ec == pytest.approx(0.0, abs=1e-15)


class TestReversibilityStructured:
    """Verdicts against the constructive oracle on structured real-valued
    kernels with random weights, beyond the small grid."""

    def _noisy_permutation(self, rng, k):
        perm = rng.permutation(k)
        kernel = np.zeros((k, k))
        kernel[np.arange(k), perm] = rng.uniform(0.5, 2.0, k)
        return kernel

    def _dispersion_families(self, rng, k, k2):
        # each parent owns a disjoint block of children
        kernel = np.zeros((k, k2))
        cuts = sorted(rng.choice(np.arange(1, k2), size=k - 1, replace=False)) if k > 1 else []
        bounds = [0, *cuts, k2]
        for i in range(k):
            lo, hi = bounds[i], bounds[i + 1]
            kernel[i, lo:hi] = rng.uniform(0.2, 1.5, hi - lo)
        return kernel

    def _mixing_families(self, rng, k, k2):
        # each parent sends everything to a single child
        kernel = np.zeros((k, k2))
        kernel[np.arange(k), rng.integers(0, k2, k)] = rng.uniform(0.3, 2.0, k)
        return kernel

    def test_structured_kernels_match_oracle(self):
        from oracles import search_one_sided_inverses

        rng = np.random.default_rng(160)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            weights = rng.uniform(0.2, 3.0, k)
            builders = [
                lambda: self._noisy_permutation(rng, k),
                lambda: self._dispersion_families(rng, k, int(rng.integers(k, 2 * k + 1))),
                lambda: self._mixing_families(rng, k, int(rng.integers(1, k + 1))),
                lambda: rng.uniform(0, 1.5, (k, int(rng.integers(1, 7))))
                * (rng.random((k, int(1))) < 2),
            ]
            kernel = builders[int(rng.integers(0, len(builders)))]()
            if kernel.sum() == 0:
                continue
            p = process(Population(TypeSet.range(k), weights), kernel)
            v = reversibility(p)
            left, right = search_one_sided_inverses(p)
            assert (v.left_invertible, v.right_invertible) == (left, right)

    def test_noisy_permutation_round_trip(self):
        rng = np.random.default_rng(161)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            perm = rng.permutation(k)
            kernel = np.zeros((k, k))
            kernel[np.arange(k), perm] = rng.uniform(0.5, 2.0, k)
            p = process(Population(TypeSet.range(k), rng.uniform(0.2, 3.0, k)), kernel)
            v = reversibility(p)
            assert v.invertible and v.dollo_full
            np.testing.assert_allclose(
                v.inverse.kernel.T @ p.target.weights, p.source.weights, rtol=1e-12
            )
