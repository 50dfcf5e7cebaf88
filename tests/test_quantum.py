import numpy as np
import pytest

import pricekit.quantum
from pricekit import (
    DensityOperator,
    OpenQuantumProcess,
    Population,
    QuantumObservable,
    QuantumProcess,
    adjoint,
    embed_observable,
    embed_process,
    fitness,
    generating_profile,
    kgs,
    kraus_to_super,
    price,
    q_expectation,
    q_factorize,
    q_fitness,
    q_kgs,
    q_laws,
    q_partition_entropy,
    q_price,
    second_law,
    selective_entropy,
    zeroth_law,
)
from pricekit.openproc import OpenProcess
from pricekit.quantum import (_spectral, _support, apply_adjoint, apply_super,
                             matrix_function, vec)

from conftest import random_observable, random_process

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
        pulled = apply_adjoint(w, np.eye(2, dtype=complex))
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
            lhs = np.trace(apply_adjoint(w, y) @ rho)
            rhs = np.trace(y @ apply_super(w.superoperator, rho))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestFitness:
    def test_diagonal_kraus(self):
        a = np.diag([np.sqrt(2), 0.0]).astype(complex)
        w = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
        fd = q_fitness(w)
        np.testing.assert_allclose(fd.W.matrix, np.diag([2.0, 0.0]), atol=1e-12)
        assert fd.wbar == pytest.approx(1.0)
        assert fd.p_star == pytest.approx(0.5)

    def test_wbar_is_the_state_weighted_mean_of_w(self):
        # The stated target's entries sit 9e-10 above the image's, inside the
        # constructor's EPS_REL * max(Tr, 1); wbar is Tr(W rho) / Tr rho, not
        # the ratio of the stated traces, so U keeps unit mean.
        w = QuantumProcess(kraus_to_super([np.eye(2)]), DensityOperator(5e-4 * np.eye(2)),
                           DensityOperator((5e-4 + 9e-10) * np.eye(2)))
        fd = q_fitness(w)
        assert fd.wbar == pytest.approx(1.0, abs=1e-15)
        assert fd.summary.mean(fd.summary.u) == pytest.approx(1.0, abs=1e-15)

    def test_map_without_child_mass_rejected(self):
        # The stated target passes the constructor's absolute 1e-9 gap.
        w = QuantumProcess(np.zeros((4, 4)), DensityOperator(1e-10 * np.eye(2)),
                           DensityOperator(1e-10 * np.eye(2)))
        with pytest.raises(ValueError, match="no child mass"):
            q_fitness(w)

    def test_trace_preserving_map_unit_fitness(self):
        rng = np.random.default_rng(81)
        # random unitary conjugation is trace preserving
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(g)
        w = QuantumProcess(kraus_to_super([q]), random_density(rng, 3))
        fd = q_fitness(w)
        np.testing.assert_allclose(fd.W.matrix, np.eye(3), atol=1e-10)

    def test_unit_mean_randomized(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            w = random_kraus_process(rng, int(rng.integers(2, 5)))
            fd = q_fitness(w)
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
            u = q_fitness(w).U
            u_next = q_fitness(w2).U
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
        np.testing.assert_allclose(fac.selective, np.eye(4), atol=1e-10)

    def test_composition_reproduces_map(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            w = random_kraus_process(rng, d)
            fac = q_factorize(w)
            composite = fac.environmental @ fac.selective
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
        assert reports["gibbs"].lhs == pytest.approx(selective_entropy(f1), abs=1e-12)
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
        u = q_fitness(w).U.matrix
        ent = matrix_function(u, lambda v: -v * np.log(v), support_only=True)
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
        out = _spectral(vals, vecs, np.sqrt, support_only=True)
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


class TestEmbeddingFaithfulness:
    def test_every_classical_functional(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            p = random_process(rng, kmax=4)
            w = embed_process(p)
            fd_c = fitness(p)
            fd_q = q_fitness(w)
            np.testing.assert_allclose(
                np.diag(fd_q.U.matrix).real, fd_c.U.values, atol=1e-10
            )
            assert fd_q.p_star == pytest.approx(fd_c.p_star, abs=1e-10)
            assert fd_q.wbar == pytest.approx(fd_c.wbar, rel=1e-12)
            ql = q_laws(w)
            assert ql["zeroth"].lhs == pytest.approx(zeroth_law(p).lhs, abs=1e-10)
            assert ql["second"].lhs == pytest.approx(second_law(p).lhs, abs=1e-10)
            assert ql["gibbs"].lhs == pytest.approx(selective_entropy(p), abs=1e-10)


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
        fd = q_fitness(w)
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
                assert r.dispersion_bounds.satisfied and r.mixing_bounds.satisfied

    def test_diagonal_embedding_is_in_domain(self):
        rng = np.random.default_rng(201)
        p = random_process(rng, kmax=4, kmin=2)
        w = embed_process(p)
        k, k2 = p.kernel.shape
        projs_a = [np.diag((np.arange(k) == i).astype(complex)) for i in range(k)]
        projs_b = [np.diag((np.arange(k2) == j).astype(complex)) for j in range(k2)]
        r = q_partition_entropy(w, projs_a, projs_b)
        assert r.chains_apply
        assert r.dispersion_bounds.satisfied and r.mixing_bounds.satisfied

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
