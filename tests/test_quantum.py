import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pricekit.quantum
from pricekit import (
    DensityOperator,
    Observable,
    OpenQuantumProcess,
    Population,
    QuantumObservable,
    QuantumProcess,
    TypeSet,
    embed_observable,
    embed_process,
    exp_first_law,
    first_law,
    fitness,
    generating_profile,
    gibbs_report,
    higher_order_first_law,
    kgs,
    kraus_to_super,
    price,
    process,
    q_expectation,
    q_factorize,
    q_kgs,
    q_laws,
    q_partition_entropy,
    q_price,
    second_law,
    selective_acceleration,
    speed_limits,
    zeroth_law,
)
from pricekit.config import EPS_OP, EPS_REL, IdentityViolation
from pricekit.openproc import OpenProcess
from pricekit.quantum import (_projector, _spectral, _support, apply_adjoint, apply_super,
                             hermitize, unvec, vec)

from conftest import random_observable, random_process
from oracles import adjoint, matrix_function

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_kraus_process(rng, d_in, d_out=None, n_kraus=3, trace_scale=None):
    d_out = d_in if d_out is None else d_out
    kraus = [
        rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
        for _ in range(n_kraus)
    ]
    if trace_scale is not None:
        total = sum(a.conj().T @ a for a in kraus)
        norm = np.linalg.eigvalsh(total).max()
        kraus = [a * np.sqrt(trace_scale / norm) for a in kraus]
    sup = kraus_to_super(kraus)
    g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    rho = DensityOperator(g @ g.conj().T)
    return QuantumProcess(sup, rho)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DensityOperator(g @ g.conj().T)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return QuantumObservable(0.5 * (g + g.conj().T))


class TestExpectation:
    def test_examples(self):
        rho = DensityOperator(np.diag([1.0, 1.0]))
        assert q_expectation(rho, QuantumObservable(np.diag([2.0, 0.0]))) == pytest.approx(1.0)
        assert q_expectation(rho, QuantumObservable(np.eye(2))) == pytest.approx(1.0)
        rho2 = DensityOperator(np.diag([1.0, 2.0]))
        assert q_expectation(rho2, QuantumObservable(SIGMA_X)) == pytest.approx(0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            q_expectation(DensityOperator(np.eye(2)), QuantumObservable(np.eye(3)))


class TestAdjoint:
    def test_kraus_example(self):
        a = np.diag([np.sqrt(2), 0.0]).astype(complex)
        sup = kraus_to_super([a])
        w = QuantumProcess(sup, DensityOperator(np.eye(2)))
        pulled = apply_adjoint(w.superoperator, np.eye(2, dtype=complex))
        np.testing.assert_allclose(pulled, np.diag([2.0, 0.0]), atol=1e-12)

    def test_identity_map(self):
        sup = kraus_to_super([np.eye(2)])
        w = QuantumProcess(sup, DensityOperator(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(adjoint(w), np.eye(4), atol=1e-12)

    def test_duality_on_probes(self):
        rng = np.random.default_rng(80)
        w = random_kraus_process(rng, 3)
        for _ in range(64):
            y = random_hermitian(rng, 3).matrix
            rho = random_density(rng, 3).matrix
            lhs = np.trace(apply_adjoint(w.superoperator, y) @ rho)
            rhs = np.trace(y @ apply_super(w.superoperator, rho))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_stacks_pull_back_member_by_member(self):
        """A stack of 1 to 6 operators pulls back as each member does through
        the adjoint matrix, d_in != d_out included, and each member keeps
        Tr(Phi-dagger(Y) rho) = Tr(Y Phi(rho))."""
        rng = np.random.default_rng(81)
        for d_in in range(1, 6):
            for d_out in range(1, 6):
                w = random_kraus_process(rng, d_in, d_out)
                rho = random_density(rng, d_in).matrix
                image = apply_super(w.superoperator, rho)
                for n in range(1, 7):
                    shape = (n, d_out, d_out)
                    ys = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    pulled = apply_adjoint(w.superoperator, ys)
                    assert pulled.shape == (n, d_in, d_in)
                    for y, got in zip(ys, pulled):
                        want = unvec(adjoint(w) @ vec(y), d_in)
                        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
                        lhs, rhs = np.trace(got @ rho), np.trace(y @ image)
                        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestHermitize:
    @staticmethod
    def member(rng, d, scale, gap):
        """A d x d matrix with |entry|max about scale and |A - A-dagger|max = gap."""
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = 0.5 * (g + g.conj().T)
        a *= scale / np.abs(a).max()
        a[0, -1] += gap if d > 1 else 0.5j * gap
        return a

    def test_a_stack_is_held_member_by_member(self):
        """A stack raises exactly when one of its members raises alone, and
        otherwise gives each member's Hermitian part.  Members at scale 1e3
        and 1e-3 share stacks, so a rule on the stack's largest entry would
        accept the small member's gap of 1e-8 * 1e3 / 2 that its own scale,
        floored at 1, rejects."""
        rng = np.random.default_rng(83)
        outcomes = set()
        for _ in range(300):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            scales = rng.choice([1e3, 1.0, 1e-3], size=n)
            gaps = [EPS_OP * max(s, 1.0) * f for s, f in
                    zip(scales, rng.choice([0.0, 0.5, 2.0, 0.5e3], size=n))]
            stack = np.array([self.member(rng, d, s, g) for s, g in zip(scales, gaps)])
            alone = []
            for a in stack:
                try:
                    alone.append(hermitize(a))
                except ValueError:
                    alone.append(None)
            raises_alone = any(a is None for a in alone)
            try:
                together = hermitize(stack)
            except ValueError as err:
                assert raises_alone and "is not Hermitian" in str(err)
            else:
                assert not raises_alone
                np.testing.assert_array_equal(together, np.array(alone))
            outcomes.add((raises_alone, 1e3 in scales and 1e-3 in scales))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_small_member_beside_a_large_one_raises(self):
        rng = np.random.default_rng(84)
        large = self.member(rng, 3, 1e3, 0.0)
        small = self.member(rng, 3, 1e-3, 0.5 * EPS_OP * 1e3)
        hermitize(large)
        with pytest.raises(ValueError, match="is not Hermitian"):
            hermitize(small)
        with pytest.raises(ValueError, match="is not Hermitian"):
            hermitize(np.array([large, small]))


class TestFitness:
    def test_diagonal_kraus(self):
        a = np.diag([np.sqrt(2), 0.0]).astype(complex)
        w = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
        fd = fitness(w)
        np.testing.assert_allclose(fd.W.matrix, np.diag([2.0, 0.0]), atol=1e-12)
        assert fd.wbar == pytest.approx(1.0)
        assert fd.p_star == pytest.approx(0.5)

    def test_wbar_is_the_state_weighted_mean_of_w(self):
        # The stated target's entries sit 9e-10 above the image's, inside the
        # constructor's EPS_REL * max(Tr, 1); wbar is Tr(W rho) / Tr rho, not
        # the ratio of the stated traces, so U keeps unit mean.
        w = QuantumProcess(kraus_to_super([np.eye(2)]), DensityOperator(5e-4 * np.eye(2)),
                           DensityOperator((5e-4 + 9e-10) * np.eye(2)))
        fd = fitness(w)
        assert fd.wbar == pytest.approx(1.0, abs=1e-15)
        assert fd.mean(fd.u) == pytest.approx(1.0, abs=1e-15)

    def test_map_without_child_mass_rejected(self):
        # The stated target passes the constructor's absolute 1e-9 gap.
        w = QuantumProcess(np.zeros((4, 4)), DensityOperator(1e-10 * np.eye(2)),
                           DensityOperator(1e-10 * np.eye(2)))
        with pytest.raises(ValueError, match="no child mass"):
            fitness(w)

    def test_trace_preserving_map_unit_fitness(self):
        rng = np.random.default_rng(81)
        # random unitary conjugation is trace preserving
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(g)
        w = QuantumProcess(kraus_to_super([q]), random_density(rng, 3))
        fd = fitness(w)
        np.testing.assert_allclose(fd.W.matrix, np.eye(3), atol=1e-10)

    def test_unit_mean_randomized(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            w = random_kraus_process(rng, int(rng.integers(2, 5)))
            fd = fitness(w)
            rho = w.source
            assert q_expectation(rho, fd.U) == pytest.approx(1.0, abs=1e-10)


class TestQPrice:
    def test_classical_embedding_matches(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            p = random_process(rng, kmax=5)
            w = embed_process(p)
            x = random_observable(rng, p.source.types)
            y = random_observable(rng, p.target.types)
            d = price(p, x, y)
            res = q_price(w, embed_observable(x.values), embed_observable(y.values))
            assert res.delta == pytest.approx(d.delta, rel=1e-10, abs=1e-10)
            assert res.left.ns.real == pytest.approx(d.ns, rel=1e-10, abs=1e-10)
            assert res.left.ec.real == pytest.approx(d.ec, rel=1e-10, abs=1e-10)
            assert res.residual_left <= 1e-10
            assert res.residual_right <= 1e-10

    def test_sigma_x_observable(self):
        a = np.diag([np.sqrt(2), 0.0]).astype(complex)
        w = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
        x = QuantumObservable(SIGMA_X)
        y = QuantumObservable(np.eye(2))
        res = q_price(w, x, y)
        assert abs(res.commutator_gap) == pytest.approx(0.0, abs=1e-12)
        assert res.residual_left <= 1e-10 and res.residual_right <= 1e-10

    def test_quantum_fisher(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            w = random_kraus_process(rng, d)
            w2 = QuantumProcess(
                kraus_to_super(
                    [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]
                ),
                w.target,
            )
            u = fitness(w).U
            u_next = fitness(w2).U
            res = q_price(w, u, u_next)
            assert res.delta == pytest.approx(0.0, abs=1e-9)
            var_u = q_expectation(w.source, QuantumObservable(u.matrix @ u.matrix)) - 1.0
            assert res.left.ns.real == pytest.approx(var_u, rel=1e-9, abs=1e-10)
            assert (res.left.ns + res.left.ec).real == pytest.approx(0.0, abs=1e-9)

    def test_left_right_gap_is_commutator(self):
        rng = np.random.default_rng(85)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            w = random_kraus_process(rng, d)
            x = random_hermitian(rng, d)
            y = random_hermitian(rng, w.target.dim)
            res = q_price(w, x, y)
            assert res.left.ns - res.right.ns == pytest.approx(res.commutator_gap, abs=1e-10)
            # commutator expectations of Hermitian operators are imaginary
            assert abs(res.commutator_gap.real) <= 1e-10
            assert res.residual_left <= 1e-9 and res.residual_right <= 1e-9


class TestFactorization:
    def test_diagonal_embedding_matches_classical(self):
        rng = np.random.default_rng(86)
        p = random_process(rng, kmax=4, density=1.0)
        w = embed_process(p)
        fac = q_factorize(w)
        np.testing.assert_allclose(
            np.diag(fac.fitness_operator).real, p.fitness_values, atol=1e-10
        )

    def test_trace_preserving_map_trivial_selective_factor(self):
        rng = np.random.default_rng(87)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        w = QuantumProcess(kraus_to_super([q]), random_density(rng, 2))
        fac = q_factorize(w)
        np.testing.assert_allclose(fac.fitness_operator, np.eye(2), atol=1e-10)

    def test_composition_check_fires_on_a_wrong_projector(self, monkeypatch):
        """A support projector off by a relative 1e-6 fails the composition
        check, which runs before the trace-preservation check, at every scale
        of the map: the check is dimensionless."""
        projector = pricekit.quantum._projector
        monkeypatch.setattr(pricekit.quantum, "_projector",
                            lambda vecs, keep: projector(vecs, keep) * (1 + 1e-6))
        w = random_kraus_process(np.random.default_rng(89), 3)
        for scale in (1.0, 1e-6, 1e-60):
            with pytest.raises(IdentityViolation) as info:
                q_factorize(QuantumProcess(w.superoperator * scale, w.source))
            assert info.value.name == "q_factorize_composition", scale

    def test_composition_reproduces_map(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            w = random_kraus_process(rng, d)
            fac = q_factorize(w)
            composite = fac.environmental @ np.kron(np.eye(d), fac.fitness_operator)
            # on support probes the composite equals the original map
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            probe = fac.support @ (g @ g.conj().T) @ fac.support
            np.testing.assert_allclose(
                apply_super(composite, probe),
                apply_super(w.superoperator, probe),
                atol=1e-8,
            )


class TestQuantumLaws:
    def test_selective_equilibrium_matches_classical_f1(self, f1):
        a = np.diag([np.sqrt(2), 0.0]).astype(complex)
        w = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
        reports = q_laws(w)
        assert reports["zeroth"].lhs == pytest.approx(zeroth_law(f1).lhs, abs=1e-12)
        assert reports["second"].lhs == pytest.approx(second_law(f1).lhs, abs=1e-12)
        assert reports["gibbs"].lhs == pytest.approx(fitness(f1).s_ns, abs=1e-12)
        assert reports["acceleration"].lhs == pytest.approx(-np.log(2), abs=1e-12)
        assert reports["zeroth"].extras["p_star"] == pytest.approx(0.5)
        assert reports["zeroth"].equilibrium_class == "selective_equilibrium"

    def test_trace_preserving_all_zero(self):
        rng = np.random.default_rng(89)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(g)
        w = QuantumProcess(kraus_to_super([q]), random_density(rng, 3))
        reports = q_laws(w)
        assert reports["zeroth"].lhs == pytest.approx(0.0, abs=1e-10)
        assert reports["second"].lhs == pytest.approx(0.0, abs=1e-10)
        assert reports["gibbs"].lhs == pytest.approx(0.0, abs=1e-10)

    def test_random_kraus_chains_hold(self):
        rng = np.random.default_rng(90)
        for _ in range(40):
            w = random_kraus_process(rng, 3)
            for rep in q_laws(w).values():
                assert min(rep.slacks) >= -1e-9, (rep.name, rep.chain)

    def test_spectral_entropy_matches_eigenvalues(self):
        rng = np.random.default_rng(91)
        w = random_kraus_process(rng, 3)
        fd = fitness(w)
        u = fd.U.matrix
        ent = _spectral(fd.u, fd.eigvecs, lambda v: -v * np.log(v), fd.support)
        vals = np.linalg.eigvalsh(u)
        expected = sorted(-v * np.log(v) if v > 1e-12 else 0.0 for v in vals)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(ent)), expected, atol=1e-10)


class TestQuantumJensen:
    def test_convex_functions_on_random_triples(self):
        rng = np.random.default_rng(92)
        funcs = [
            (lambda v: v**2, False),
            (lambda v: np.exp(v), False),
            (lambda v: v * np.log(np.maximum(v, 1e-300)), True),
        ]
        for _ in range(100):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            for f, needs_psd in funcs:
                if needs_psd:
                    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    x = g @ g.conj().T
                else:
                    x = random_hermitian(rng, d).matrix
                fx = matrix_function(x, f)
                mean_fx = float(np.real(np.trace(fx @ rho.matrix))) / rho.trace
                mean_x = float(np.real(np.trace(x @ rho.matrix))) / rho.trace
                assert mean_fx >= f(mean_x) - 1e-9


class TestPartitionEntropy:
    def test_diagonal_embedding_matches_classical_profile(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            p = random_process(rng, kmax=3, kmin=2)
            w = embed_process(p)
            k, k2 = p.kernel.shape
            projs_a = [np.diag((np.arange(k) == i).astype(complex)) for i in range(k)]
            projs_b = [np.diag((np.arange(k2) == j).astype(complex)) for j in range(k2)]
            result = q_partition_entropy(w, projs_a, projs_b)
            prof = generating_profile(p)
            assert result.profile.s_ec == pytest.approx(prof.s_ec, rel=1e-9, abs=1e-10)
            assert result.profile.s_dis == pytest.approx(prof.s_dis, rel=1e-9, abs=1e-10)
            assert result.profile.s_mix == pytest.approx(prof.s_mix, rel=1e-9, abs=1e-10)
            for key, rep in result.third_law.items():
                classical = {
                    "ns_s_ec": "ns_s_ec", "ns_s_dis": "ns_s_dis", "ns_s_mix": "ns_s_mix"
                }[key]
                from pricekit import third_law

                assert rep.lhs == pytest.approx(
                    third_law(p)[classical].lhs, rel=1e-9, abs=1e-10
                )

    def test_coarse_partition_zero(self):
        rng = np.random.default_rng(94)
        w = random_kraus_process(rng, 3)
        result = q_partition_entropy(w, [np.eye(3)], [np.eye(3)])
        assert result.profile.s_ec == pytest.approx(0.0, abs=1e-10)

    def test_hadamard_cells_on_dephasing_channel(self):
        # dephasing: rho -> diag(rho); Hadamard-rotated projections see spread
        kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        rho = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
        w = QuantumProcess(kraus_to_super(kraus), rho)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        projs = [np.outer(h[:, i], h[:, i].conj()).astype(complex) for i in range(2)]
        result = q_partition_entropy(w, projs, projs)
        assert result.profile.s_ec > 0.1
        assert result.profile.s_ec == pytest.approx(
            result.profile.s_dis + result.profile.s_mix, rel=1e-9
        )

    def test_spectral_functions_vanish_exactly_off_the_support(self):
        """Eigenvalues at 1e-11 and 1e-9 of the top one straddle the support
        cutoff; a support-only function is zero on exactly the rejected ones."""
        vals = np.array([[1e-11, 1e-9, 1.0], [3e-17, 3e-15, 3e-6], [-2e-11, 2e-9, 2.0]])
        vecs = np.broadcast_to(np.eye(3, dtype=complex), (3, 3, 3))
        out = _spectral(vals, vecs, np.sqrt, _support(vals))
        np.testing.assert_array_equal(np.diagonal(out, axis1=-2, axis2=-1) == 0, ~_support(vals))
        assert _support(vals)[:, 1:].all() and not _support(vals)[:, 0].any()

    def test_bad_resolution_rejected(self):
        rng = np.random.default_rng(95)
        w = random_kraus_process(rng, 2)
        with pytest.raises(ValueError):
            q_partition_entropy(w, [np.eye(2) * 0.5], [np.eye(2)])


class TestOpenQuantum:
    def _embedded_open_fixture(self, rng):
        p = random_process(rng, kmax=4)
        orphan = rng.uniform(0, 0.8, len(p.target.types))
        full = Population(p.target.types, p.target.weights + orphan)
        classical = OpenProcess(p, full)
        wq = embed_process(p)
        full_q = DensityOperator(np.diag(full.weights.astype(complex)))
        return classical, OpenQuantumProcess(wq, full_q)

    def test_closed_reduces_to_q_price(self):
        rng = np.random.default_rng(96)
        w = random_kraus_process(rng, 2)
        op = OpenQuantumProcess(w, w.target)
        x = random_hermitian(rng, 2)
        y = random_hermitian(rng, w.target.dim)
        res = q_kgs(op, x, y)
        base = q_price(w, x, y)
        for side in ("left", "right"):
            for density in ("nu", "pi"):
                assert res.forms[(side, density)].real == pytest.approx(
                    (base.left.total if side == "left" else base.right.total).real,
                    rel=1e-9, abs=1e-10,
                )

    def test_diagonal_embedding_matches_classical_kgs(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            classical, quantum = self._embedded_open_fixture(rng)
            x = random_observable(rng, classical.closed.source.types)
            y = random_observable(rng, classical.full_target.types)
            comp = kgs(classical, x, y)
            res = q_kgs(quantum, embed_observable(x.values), embed_observable(y.values))
            assert res.delta == pytest.approx(comp.delta, rel=1e-10, abs=1e-10)
            assert res.forms[("left", "nu")].real == pytest.approx(
                comp.delta, rel=1e-9, abs=1e-9
            )
            assert res.parented_share == pytest.approx(comp.parented_share, rel=1e-10)

    def test_random_open_fixture_four_routes(self):
        rng = np.random.default_rng(98)
        for _ in range(20):
            w = random_kraus_process(rng, 2)
            # orphan component commuting with the parented image
            vals, vecs = np.linalg.eigh(w.target.matrix)
            orphan = (vecs * rng.uniform(0.1, 1.0, 2)) @ vecs.conj().T
            full = DensityOperator(w.target.matrix + orphan)
            op = OpenQuantumProcess(w, full)
            x = random_hermitian(rng, 2)
            y = random_hermitian(rng, 2)
            res = q_kgs(op, x, y)
            for key in res.forms:
                assert res.residual(key[0], key[1]) <= 1e-9

    def test_noncommuting_orphans_rejected(self):
        rng = np.random.default_rng(99)
        w = random_kraus_process(rng, 2)
        bump = np.array([[0.5, 0.3], [0.3, 0.8]], dtype=complex)
        full = DensityOperator(w.target.matrix + bump @ bump.conj().T)
        with pytest.raises(ValueError):
            OpenQuantumProcess(w, full)


FOUND_KERNELS = [[[u, u], [1.0, 1.0]] for u in (5e-12, 1e-11, 5e-11, 2e-10)]


def singleton_projections(k: int) -> list[np.ndarray]:
    return [np.diag(row).astype(complex) for row in np.eye(k)]


def embedding_gaps(p) -> dict[str, float]:
    """|classical - embedded| / max(1, |classical|) for the support, U, p_star,
    every link of the zeroth, first, Gibbs, second and acceleration chains of
    q_laws, of the speed limits, higher-order first laws (n = 1..4) and, where
    the classical call does not overflow, the exponential first law, and the
    singleton S_NS, S_EC, S_dis, S_mix and third-law lhs; relative for wbar."""
    w = embed_process(p)
    fd_c, fd_q = fitness(p), fitness(w)
    pairs = {
        # the embedded support, as the diagonal of its projector (eigh reorders)
        "support": (fd_c.support.astype(float),
                    np.diag(_projector(fd_q.eigvecs, fd_q.support)).real),
        "U": (fd_c.U.values, np.diag(fd_q.U.matrix).real),
        "wbar": (fd_c.wbar, fd_q.wbar),
        "p_star": (fd_c.p_star, fd_q.p_star),
    }
    ql = q_laws(w)
    for name, classical in (("zeroth", zeroth_law(p)), ("first", first_law(p)),
                            ("second", second_law(p)), ("gibbs", gibbs_report(p)),
                            ("acceleration", selective_acceleration(p))):
        pairs[name] = (classical.chain, ql[name].chain)
    # the laws q_laws leaves out, called on the embedded process directly;
    # chains only, as the speed limits' stationary point is not held to 1e-12
    pairs["speed_limits"] = (speed_limits(p).chain, speed_limits(w).chain)
    for n in range(1, 5):
        pairs[f"higher_order_{n}"] = (higher_order_first_law(p, n).chain,
                                      higher_order_first_law(w, n).chain)
    try:
        classical = exp_first_law(p)
    except ValueError:
        pass  # e^U overflows double precision
    else:
        pairs["exp_first_law"] = (classical.chain, exp_first_law(w).chain)
    k, k2 = p.kernel.shape
    prof = generating_profile(p)
    q_prof = q_partition_entropy(w, singleton_projections(k), singleton_projections(k2)).profile
    for name in ("s_ns", "s_ec", "s_dis", "s_mix"):
        pairs[name] = (getattr(prof, name), getattr(q_prof, name))
    for key, rep in prof.third_law.items():
        pairs[key] = (rep.lhs, q_prof.third_law[key].lhs)
    gaps = {name: float(np.max(np.abs(np.subtract(c, q)) / np.maximum(1.0, np.abs(c))))
            for name, (c, q) in pairs.items()}
    gaps["wbar"] = abs(fd_c.wbar - fd_q.wbar) / fd_c.wbar   # relative, also below 1
    return gaps


def price_gaps(p, x, y) -> dict[str, float]:
    """q_price of the embedded process and observables against price: the
    gap of delta and of the real part of each side's ns and ec, relative to
    the classical value floored at 1, and the imaginary parts, the commutator
    gap and both residuals against the same scale, the largest of the three
    classical terms."""
    c = price(p, Observable(p.source.types, x), Observable(p.target.types, y))
    q = q_price(embed_process(p), embed_observable(x), embed_observable(y))
    scale = {name: max(1.0, abs(getattr(c, name))) for name in ("delta", "ns", "ec")}
    top = max(scale.values())
    gaps = {"delta": abs(q.delta - c.delta) / scale["delta"],
            "commutator_gap": abs(q.commutator_gap) / top,
            "residual_left": q.residual_left / top,
            "residual_right": q.residual_right / top}
    for side in ("left", "right"):
        for name in ("ns", "ec"):
            term = getattr(getattr(q, side), name)
            gaps[f"{side}_{name}"] = abs(term.real - getattr(c, name)) / scale[name]
            gaps[f"{side}_{name}_imag"] = abs(term.imag) / scale[name]
    return gaps


class TestEmbeddingFaithfulness:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 10), min_size=1, max_size=5),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10)), min_size=25, max_size=25),
        st.integers(1, 5),
        st.booleans(),
        st.sampled_from([0, -60, 60]),
        st.lists(st.floats(-10, 10), min_size=5, max_size=5),
        st.lists(st.floats(-10, 10), min_size=5, max_size=5),
    )
    @example([1.0, 1.0], sum(FOUND_KERNELS[0], []) + [0.0] * 21, 2, False, 0, [1.0] * 5, [2.0] * 5)
    @example([1.0, 1.0], sum(FOUND_KERNELS[1], []) + [0.0] * 21, 2, False, 0, [1.0] * 5, [2.0] * 5)
    @example([1.0, 1.0], sum(FOUND_KERNELS[2], []) + [0.0] * 21, 2, False, 0, [1.0] * 5, [2.0] * 5)
    @example([1.0, 1.0], sum(FOUND_KERNELS[3], []) + [0.0] * 21, 2, False, 0, [1.0] * 5, [2.0] * 5)
    def test_every_classical_functional(self, weights, entries, k2, childless, scale, xs, ys):
        """embed_process reproduces every classical functional to 1e-12 relative
        (floored at 1): K = 1, K != K', childless rows, weights x 1e+-60, and
        U values between EPS_ZERO and 1e-10 of the largest, which one support
        rule keeps in both paths; with embedded observables, q_price gives
        price's terms and no imaginary part, commutator gap or residual."""
        k = len(weights)
        kernel = np.reshape(entries[: k * k2], (k, k2))
        if childless:
            kernel[-1] = 0.0
        assume(kernel.sum(axis=1) @ weights > 0)
        p = process(Population(TypeSet.range(k), np.multiply(weights, 10.0**scale)), kernel)
        gaps = embedding_gaps(p) | price_gaps(p, np.array(xs[:k]), np.array(ys[:k2]))
        assert max(gaps.values()) <= 1e-12, gaps

    def test_subnormal_mean_fitness(self):
        """Weights 1e150 and one kernel entry 1e-310 give wbar = 2.5e-311, whose
        reciprocal overflows: W is divided by wbar part by part, and the chains
        agree with the classical ones."""
        p = process(Population(TypeSet.range(4), [1e150] * 4), 1e-310 * np.eye(4, 1))
        reports = q_laws(embed_process(p))
        classical = {rep.name: rep for rep in (zeroth_law(p), second_law(p))}
        for name, key in (("zeroth_law", "zeroth"), ("second_law", "second")):
            np.testing.assert_allclose(reports[key].chain, classical[name].chain,
                                       rtol=EPS_REL, atol=EPS_REL)


class TestOneSupportRule:
    @pytest.mark.parametrize("lam", [5e-12, 1e-11, 5e-11, 2e-10])
    def test_small_fitness_eigenvalue_stays_in_the_support(self, lam):
        """W = A-dagger A with eigenvalues (lam, 1, 2.5) in a random basis: every
        eigenvalue of U clears EPS_ZERO, so the support is the whole space, as
        p_star = 1 says, and the projector, factorization and U^(+-1/2) keep
        all three directions."""
        rng = np.random.default_rng(int(lam * 1e13))
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = (basis * np.sqrt([lam, 1.0, 2.5])) @ basis.conj().T
        w = QuantumProcess(kraus_to_super([a]), random_density(rng, 3))
        fd = fitness(w)
        assert fd.support.all()
        assert fd.p_star == pytest.approx(1.0, abs=1e-15)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        result = q_price(w, x, y)
        assert result.residual_left <= 1e-13 and result.residual_right <= 1e-13
        # Inverting W on all three directions loses ~eps * cond to rounding,
        # cond = 2.5 / lam; the factors must hold to ten times that.
        f = q_factorize(w)
        eye = np.eye(3)
        bound = 10 * np.finfo(float).eps * 2.5 / lam
        composition = f.environmental @ np.kron(eye, f.fitness_operator)
        assert np.abs(composition - w.superoperator @ np.kron(eye, f.support)).max() <= bound
        env_fitness = unvec(f.environmental.conj().T @ vec(eye.astype(complex)), 3)
        assert np.abs(env_fitness - f.support).max() <= bound
        q_partition_entropy(w, singleton_projections(3), singleton_projections(3))

    def test_rounded_null_direction_is_not_childbearing(self):
        """W = A-dagger A with eigenvalues (0, 1e-3, 10) and rho nearly off the top
        direction, so max U ~ 1.7e4: in a random basis eigh rounds the null
        eigenvalue of U to ~eps * max U, above EPS_ZERO.  The rank floor keeps it
        out of the support, and the process agrees with its diagonal copy."""
        def build(basis):
            a = (basis * np.sqrt([0.0, 1e-3, 10.0])) @ basis.conj().T
            rho = DensityOperator((basis * [0.5, 0.5, 1e-5]) @ basis.conj().T)
            projs = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)]
            w = QuantumProcess(kraus_to_super([a]), rho)
            return fitness(w), q_partition_entropy(w, projs, projs).profile

        fd0, prof0 = build(np.eye(3, dtype=complex))
        assert fd0.u.max() > 1e4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            basis, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            fd, prof = build(basis)
            null = np.argmax(np.abs(fd.eigvecs.conj().T @ basis[:, 0]))
            assert not fd.support[null] and fd.support.sum() == 2
            assert fd.p_star == pytest.approx(fd0.p_star, abs=1e-12)
            for name in ("s_ns", "s_ec", "s_dis", "s_mix"):
                assert getattr(prof, name) == pytest.approx(getattr(prof0, name), rel=1e-9, abs=1e-9)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k32_process():
    rng = np.random.default_rng(32)
    kernel = np.where(rng.uniform(size=(32, 32)) < 0.5, rng.uniform(0.05, 2, (32, 32)), 0.0)
    return process(Population(TypeSet.range(32), rng.uniform(0.1, 2, 32)), kernel), rng


class TestPullbackMemory:
    def test_no_call_copies_the_map(self):
        """Each pullback reads the superoperator in place: at K = 32 the
        embedded map holds 16.8 MB, and fitness (built fresh), q_price and
        q_partition_entropy over singletons each peak below half of that.
        q_factorize returns one map-sized array, its environmental factor,
        and forms no other: it peaks below 1.25 maps."""
        p, rng = _k32_process()
        w = embed_process(p)
        x, y = (embed_observable(rng.normal(size=32)) for _ in range(2))
        singletons = singleton_projections(32)
        calls = {
            "fitness": lambda: fitness(w),
            "q_price": lambda: q_price(w, x, y),
            "q_partition_entropy": lambda: q_partition_entropy(w, singletons, singletons),
        }
        peaks = {name: _peak_bytes(call) for name, call in calls.items()}
        assert max(peaks.values()) < w.superoperator.nbytes / 2, peaks
        assert _peak_bytes(lambda: q_factorize(w)) < 1.25 * w.superoperator.nbytes

    def test_embedding_builds_the_map_once(self):
        """embed_process hands its fresh map to QuantumProcess, which takes it
        over without a copy: the peak stays within 1.25 maps at K = 32."""
        p, _ = _k32_process()
        built = []
        peak = _peak_bytes(lambda: built.append(embed_process(p)))
        assert peak <= 1.25 * built[0].superoperator.nbytes, peak


class TestOwnership:
    def test_each_map_is_scanned_once(self, monkeypatch):
        """A map the package builds is scanned for non-finite entries where it
        is built, once, and not again when QuantumProcess takes it over; an
        embedded map's entries are a checked kernel's, and are not scanned."""
        rho = DensityOperator(np.diag([0.7, 0.3]))
        kraus = [np.diag([1.0, 0.5]), np.array([[0.0, 0.3], [0.2, 0.0]])]
        p = process(Population(TypeSet.range(2), [0.7, 0.3]), [[1.0, 0.5], [0.2, 1.5]])
        scanned = []
        scan = pricekit.quantum.finite_array
        monkeypatch.setattr(pricekit.quantum, "finite_array",
                            lambda *args: scanned.append(scan(*args)) or scanned[-1])
        builds = {"embed_process": (lambda: embed_process(p), 0),
                  "from_kraus": (lambda: QuantumProcess.from_kraus(kraus, rho), 1),
                  "given": (lambda: QuantumProcess(kraus_to_super(kraus), rho), 1)}
        for name, (build, scans) in builds.items():
            scanned.clear()
            shape = build().superoperator.shape
            assert sum(a.shape == shape for a in scanned) == scans, name

    def test_the_map_is_read_only_on_every_route(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        kraus = [np.diag([1.0, 0.5]), np.array([[0.0, 0.3], [0.2, 0.0]])]
        p = process(Population(TypeSet.range(2), [0.7, 0.3]), [[1.0, 0.5], [0.2, 1.5]])
        for w in (QuantumProcess(kraus_to_super(kraus), rho),
                  QuantumProcess.from_kraus(kraus, rho), embed_process(p)):
            assert not w.superoperator.flags.writeable


class TestValidation:
    def test_non_positive_map_rejected(self):
        # a map that flips the sign of the state is not positive
        sup = -kraus_to_super([np.eye(2)])
        with pytest.raises(ValueError, match="positive cone"):
            QuantumProcess(sup, DensityOperator(np.eye(2)))

    def test_transpose_map_is_accepted(self, monkeypatch):
        # positive but not completely positive: still a valid process, which
        # fails the Choi certificate and passes the sampled probes
        probed = []
        sampler = pricekit.quantum._sample_check_positive
        monkeypatch.setattr(pricekit.quantum, "_sample_check_positive",
                            lambda *args: probed.append(sampler(*args)))
        d = 2
        sup = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ij = np.zeros((d, d), dtype=complex)
                e_ij[i, j] = 1.0
                sup[:, j * d + i] = vec(e_ij.T)
        rho = DensityOperator(np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
        w = QuantumProcess(sup, rho)
        assert probed == [None]
        fd = fitness(w)
        np.testing.assert_allclose(fd.W.matrix, np.eye(2), atol=1e-10)

    def test_inconsistent_target_rejected(self):
        sup = kraus_to_super([np.eye(2)])
        with pytest.raises(ValueError):
            QuantumProcess(sup, DensityOperator(np.eye(2)),
                           DensityOperator(np.diag([2.0, 1.0])))


class TestPartitionChainDomain:
    def test_chains_hold_whenever_flag_applies(self):
        rng = np.random.default_rng(200)
        applied = 0
        for _ in range(60):
            d = int(rng.integers(2, 5))
            w = random_kraus_process(rng, d)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            s = int(rng.integers(1, d))
            projs = [q[:, :s] @ q[:, :s].conj().T, q[:, s:] @ q[:, s:].conj().T]
            r = q_partition_entropy(w, projs, projs)
            if r.chains_apply:
                applied += 1
                assert all(b.satisfied for b in r.profile.bounds)

    def test_diagonal_embedding_is_in_domain(self):
        rng = np.random.default_rng(201)
        p = random_process(rng, kmax=4, kmin=2)
        w = embed_process(p)
        k, k2 = p.kernel.shape
        projs_a = [np.diag((np.arange(k) == i).astype(complex)) for i in range(k)]
        projs_b = [np.diag((np.arange(k2) == j).astype(complex)) for j in range(k2)]
        r = q_partition_entropy(w, projs_a, projs_b)
        assert r.chains_apply
        assert all(b.satisfied for b in r.profile.bounds)

    def test_noncommuting_partitions_are_flagged(self):
        # rotated projections against a state with coherences leave the
        # derivation domain even when the inequalities happen to hold
        kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        rho = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
        w = QuantumProcess(kraus_to_super(kraus), rho)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        projs = [np.outer(h[:, i], h[:, i].conj()).astype(complex) for i in range(2)]
        r = q_partition_entropy(w, projs, projs)
        assert not r.chains_apply
        assert r.commutation_residual > 1e-3
