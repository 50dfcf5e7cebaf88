"""Positivity of quantum processes: the Choi-matrix certificate, where it
and the sampled probes agree, and the maps positive by construction."""

import dataclasses

import numpy as np
import pytest

import pricekit.quantum
from pricekit import (
    DensityOperator,
    QuantumObservable,
    QuantumProcess,
    embed_process,
    fitness,
    kraus_to_super,
    q_laws,
    q_price,
)
from pricekit.process import FitnessData
from pricekit.quantum import (
    _choi, _cp_certified, _herm_part, _sample_check_positive, apply_super, vec,
)

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


# ---------------------------------------------------------------------------
# Positivity by construction


def test_kraus_maps_agree_with_their_certified_superoperators():
    """from_kraus skips the certificate, and everything read from the map is
    the same as for its superoperator given directly, which is certified."""
    rng = np.random.default_rng(704)
    for d_in in range(1, 6):
        for d_out in range(1, 6):
            kraus = [rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
                     for _ in range(int(rng.integers(1, 4)))]
            g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
            rho = DensityOperator(g @ g.conj().T)
            built = QuantumProcess.from_kraus(kraus, rho)
            given = QuantumProcess(kraus_to_super(kraus), rho)
            assert (built.positivity, given.positivity) == ("by_construction", "cp_certified")
            np.testing.assert_array_equal(built.superoperator, given.superoperator)
            np.testing.assert_array_equal(built.target.matrix, given.target.matrix)
            for f in dataclasses.fields(FitnessData):
                a, b = getattr(fitness(built), f.name), getattr(fitness(given), f.name)
                if f.name in ("W", "U"):
                    a, b = a.matrix, b.matrix
                np.testing.assert_array_equal(a, b)
            laws = q_laws(given)
            assert {k: r.to_dict() for k, r in q_laws(built).items()} \
                == {k: r.to_dict() for k, r in laws.items()}
            x = QuantumObservable(_herm_part(rng.normal(size=(d_in, d_in))))
            y = QuantumObservable(_herm_part(rng.normal(size=(d_out, d_out))))
            assert q_price(built, x, y) == q_price(given, x, y)
    # a state in the kernel of every Kraus operator has no image: both reject it
    kraus, rho = [np.array([[0.0, 1.0]])], DensityOperator(np.diag([1.0, 0.0]))
    for build in (lambda: QuantumProcess.from_kraus(kraus, rho),
                  lambda: QuantumProcess(kraus_to_super(kraus), rho)):
        with pytest.raises(ValueError, match="positive trace"):
            build()


def test_embedded_and_kraus_maps_never_reach_the_certificate(monkeypatch):
    def no_certificate(*args):
        raise AssertionError("the certificate ran on a map positive by construction")

    monkeypatch.setattr(pricekit.quantum, "_cp_certified", no_certificate)
    rng = np.random.default_rng(705)
    for _ in range(20):
        assert embed_process(random_process(rng, kmax=8)).positivity == "by_construction"
    for d_in, d_out in ((1, 1), (2, 3), (4, 2), (5, 5)):
        kraus = [rng.normal(size=(d_out, d_in)) for _ in range(2)]
        w = QuantumProcess.from_kraus(kraus, DensityOperator(np.eye(d_in) / d_in))
        assert w.positivity == "by_construction"


def test_positivity_names_the_deciding_rule():
    rho = DensityOperator(np.eye(2) / 2)
    assert QuantumProcess(kraus_to_super([np.eye(2)]), rho).positivity == "cp_certified"
    w = QuantumProcess(transpose_super(2), rho)
    assert w.positivity == "positive_on_samples"
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.positivity = "by_construction"
