"""Positivity of quantum processes: the Choi-matrix certificate, and where it
and the sampled probes agree."""

import numpy as np
import pytest

import pricekit.quantum
from pricekit import DensityOperator, QuantumProcess, embed_process, kraus_to_super
from pricekit.quantum import _choi, _cp_certified, _sample_check_positive, apply_super, vec

from conftest import random_process

OUTSIDE_CONE = "map sends a sampled state outside the positive cone"
NOT_HERMITIAN = "map does not preserve Hermiticity on sampled states"


def unit(d: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def transpose_super(d: int) -> np.ndarray:
    """The transpose: positive, not completely positive."""
    sup = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sup[:, j * d + i] = vec(unit(d, i, j).T)
    return sup


def random_kraus_super(rng, d_in: int, d_out: int) -> np.ndarray:
    return kraus_to_super([rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
                           for _ in range(int(rng.integers(1, 4)))])


def threshold_super(d: int, t: float) -> np.ndarray:
    """The identity into the first d of d + 1 levels, plus t times the map
    rho -> -Tr(rho) on the last level: a unit-trace state goes to rho (+) (-t),
    whose least eigenvalue -t crosses the probes' -1e-8 at t = 1e-8."""
    iso = np.eye(d + 1, d, dtype=complex)
    return kraus_to_super([iso]) - t * np.outer(vec(unit(d + 1, d, d)), vec(np.eye(d)))


def outcome(s, d_in: int, d_out: int) -> str | None:
    try:
        _sample_check_positive(s, d_in, d_out)
    except ValueError as exc:
        return str(exc)
    return None


def test_choi_is_the_sum_of_unit_images():
    rng = np.random.default_rng(702)
    cases = [(random_kraus_super(rng, d_in, d_out), d_in, d_out)
             for d_in, d_out in ((1, 1), (1, 3), (3, 1), (2, 3), (4, 2), (3, 3))]
    cases += [(transpose_super(d), d, d) for d in (2, 3)]
    for s, d_in, d_out in cases:
        want = sum(np.kron(unit(d_in, i, j), apply_super(s, unit(d_in, i, j)))
                   for i in range(d_in) for j in range(d_in))
        np.testing.assert_array_equal(_choi(s, d_in, d_out), want)


def test_kraus_and_embedded_maps_are_certified_without_probes(monkeypatch):
    def no_probes(*args):
        raise AssertionError("probes ran on a certified map")

    monkeypatch.setattr(pricekit.quantum, "_sample_check_positive", no_probes)
    rng = np.random.default_rng(703)
    for d_in in range(1, 6):
        for d_out in range(1, 6):
            g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
            QuantumProcess(random_kraus_super(rng, d_in, d_out), DensityOperator(g @ g.conj().T))
    for _ in range(20):
        embed_process(random_process(rng, kmax=8))


def test_certificate_and_probes_agree_on_each_side_of_the_threshold():
    """lambda_min(J) = -t on the perturbed identity, so the shifted Cholesky
    certifies it on the side of t = 1e-8 where the probes accept it.  The
    image of a certified map passes DensityOperator, which holds the same
    operator band, and is clipped onto the cone."""
    for d in (1, 2, 3):
        below, above = threshold_super(d, 0.5e-8), threshold_super(d, 2e-8)
        assert _cp_certified(below, d, d + 1)
        assert outcome(below, d, d + 1) is None
        assert not _cp_certified(above, d, d + 1)
        assert outcome(above, d, d + 1) == OUTSIDE_CONE
        rho = DensityOperator(np.eye(d) / d)
        assert np.linalg.eigvalsh(QuantumProcess(below, rho).target.matrix).min() == 0.0
        with pytest.raises(ValueError, match="positive cone"):
            QuantumProcess(above, rho)


def test_scaled_maps_are_certified_where_probes_reject_them():
    """At 1e3 times the perturbed identity, |J|_max = 1e3 while a probe's
    output has |Phi(rho)|_max = 1e3 |rho|_max, so the certificate still cuts
    at t = 1e-8 but the probes cut at 1e-8 times the least |rho|_max among
    them (0.505 at d = 2, 0.367 at d = 3).  Between the two the certificate
    accepts what the probes would reject."""
    for d, (probes_accept, probes_reject) in {2: (0.50e-8, 0.51e-8),
                                              3: (0.36e-8, 0.37e-8)}.items():
        for t, certified, probes in ((probes_accept, True, None),
                                     (probes_reject, True, OUTSIDE_CONE),
                                     (0.99e-8, True, OUTSIDE_CONE),
                                     (1.01e-8, False, OUTSIDE_CONE)):
            s = 1e3 * threshold_super(d, t)
            assert _cp_certified(s, d, d + 1) == certified, (d, t)
            assert outcome(s, d, d + 1) == probes, (d, t)


def test_map_that_breaks_hermiticity_is_rejected(monkeypatch):
    """rho -> A rho with A = [[1, 2], [0, 1]], whose superoperator is kron(1, A):
    the Choi matrix is not Hermitian, so the certificate gives up before any
    factorization, and the probes reject the map."""
    s = np.kron(np.eye(2), np.array([[1, 2], [0, 1]], dtype=complex))
    with monkeypatch.context() as m:
        def no_factorization(*args):
            raise AssertionError("the certificate factorized a non-Hermitian Choi matrix")

        m.setattr(np.linalg, "cholesky", no_factorization)
        assert not _cp_certified(s, 2, 2)
    assert outcome(s, 2, 2) == NOT_HERMITIAN
    with pytest.raises(ValueError, match=NOT_HERMITIAN):
        QuantumProcess(s, DensityOperator(np.eye(2) / 2))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_certificate_reads_a_real_map_as_its_complex_copy(monkeypatch, dtype):
    """The Hermitian part is a new array for real input too: were it a view of
    the Choi matrix, the in-place steps would zero the anti-Hermitian part
    they test and certify kron(1, [[1, 2], [0, 1]])."""
    def no_factorization(*args):
        raise AssertionError("the certificate factorized a non-Hermitian Choi matrix")

    monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
    s = np.kron(np.eye(2), np.array([[1, 2], [0, 1]], dtype=dtype))
    assert s.dtype == dtype
    assert not _cp_certified(s, 2, 2)
