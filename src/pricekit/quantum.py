"""Finite-dimensional operator version of the change decompositions.

Populations are Hermitian PSD matrices with positive trace; a process is a
positive linear map given as a superoperator on column-major vectorized
matrices.  The fitness operator is the adjoint pullback of the identity;
left and right decompositions differ by a commutator expectation, which is
the quantumness of an observable pair.  Scalar functionals of the fitness
operator are evaluated spectrally: the law functions of ``laws`` read U's
eigenvalue distribution for a QuantumProcess as they read U for a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import EPS_COND, EPS_INVERSE, EPS_OP, EPS_REL, EPS_SUPPORT, EPS_ZERO, IdentityViolation
from .entropy import CellArrays, EntropyProfile, _ratio
from .laws import (LawReport, first_law, gibbs_report, second_law, selective_acceleration,
                   zeroth_law)
from .measure import finite_array, xlogx
from .process import FitnessData, Process, summarize_fitness


# ---------------------------------------------------------------------------
# Linear-algebra helpers (column-major vectorization throughout)


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return np.asarray(v).reshape((rows, cols), order="F")


def hermitize(a: np.ndarray, what: str = "operator") -> np.ndarray:
    """(A + A-dagger) / 2 of a matrix or of each in a stack, each held to EPS_OP*max(|A|max, 1)."""
    gap = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if gap.max() > EPS_OP:                    # below it no member fails: the scale is >= 1
        bad = gap > EPS_OP * np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
        if bad.any():
            raise ValueError(f"{what} is not Hermitian (residual {float(gap[bad].max()):.3e})")
    return _herm_part(a)


def _herm_part(a: np.ndarray) -> np.ndarray:
    """(A + A-dagger) / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A B) of each pair in a stack, as an elementwise sum (no product)."""
    return np.einsum("...ij,...ji->...", a, b).real


def _support(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues above EPS_SUPPORT of the top eigenvalue, per spectrum in a stack;
    only for spectra without unit mean (D-hat cells, a full target state), not U."""
    return vals > EPS_SUPPORT * np.maximum(np.abs(vals).max(axis=-1, keepdims=True), EPS_ZERO)


def _projector(vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    return (vecs * keep[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _spectral(vals: np.ndarray, vecs: np.ndarray, f, keep: np.ndarray) -> np.ndarray:
    """Apply a scalar function through an eigendecomposition or a stack of them;
    eigenvalues outside the caller's ``keep`` mask map to 0 unseen by f (True keeps all)."""
    fv = np.where(keep, f(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * fv[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# States, observables, processes


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray = field(repr=False)

    def __init__(self, matrix):
        m = hermitize(finite_array(matrix, "density operator entries", complex),
                      what="density operator")
        vals, vecs = np.linalg.eigh(m)
        scale = max(float(vals.max()), EPS_ZERO)
        if vals.min() < -EPS_OP * max(scale, 1.0):
            raise ValueError(f"density operator has eigenvalue {vals.min():.3e}")
        m = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        if np.real(np.trace(m)) <= 0:
            raise ValueError("density operator needs positive trace")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class QuantumObservable:
    matrix: np.ndarray = field(repr=False)

    def __init__(self, matrix):
        m = hermitize(finite_array(matrix, "observable entries", complex), what="observable")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def apply_super(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d_out = int(round(np.sqrt(s.shape[0])))
    return unvec(s @ vec(rho), d_out)


def apply_adjoint(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi-dagger(Y) of an operator or of each in a stack: conj(conj(vec Y) S), S never copied."""
    d_in = round(s.shape[1] ** 0.5)
    rows = y.conj().swapaxes(-1, -2).reshape(y.shape[:-2] + (-1,))     # conj(vec Y) of each Y
    return (rows @ s).reshape(y.shape[:-2] + (d_in, d_in)).conj().swapaxes(-1, -2)


def kraus_to_super(kraus) -> np.ndarray:
    mats = finite_array(kraus, "Kraus operator entries", complex)
    d_out, d_in = mats[0].shape
    s = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for a in mats:
        s += np.kron(a.conj(), a)
    return s


@dataclass(frozen=True)
class QuantumProcess:
    """A positive map (column-major superoperator) with its source state and
    the target state it maps the source to.

    Positivity is decided by one of three rules, named by ``positivity``:
    ``"by_construction"`` for ``embed_process`` (a nonnegative dephasing map,
    whose Choi matrix is diagonal and nonnegative) and ``from_kraus`` (sum_k
    conj(A_k) (x) A_k is completely positive), which are not tested;
    ``"cp_certified"`` for a given superoperator that passes Choi's
    certificate; ``"positive_on_samples"`` for one that passes only the probes.

    A given superoperator is decided in two steps.  First Choi's test: the
    Choi matrix J = sum_ij E_ij (x) Phi(E_ij), realigned from the map, must be
    Hermitian to within EPS_OP * scale and Cholesky-factorizable after a shift
    by EPS_OP * scale (scale = max(|J|_max, 1)), i.e. lambda_min(J) >
    -EPS_OP * scale; a positive semidefinite J proves complete positivity and
    so positivity.  Only when that fails do the 64 seeded probes run
    (``_sample_check_positive``), which accept maps that are positive but not
    completely positive, such as the transpose.  Both run before the source's
    image is formed, so a non-positive map fails as one.

    A map is rejected only by the probes.  For a unit-trace state rho,
    lambda_min(Phi(rho)) >= lambda_min(J), so the two rules differ only in
    their scales: each probe measures -EPS_OP against max(|Phi(rho)|_max, 1),
    the certificate against max(|J|_max, 1).  Where |J|_max > 1 the
    certificate accepts maps within EPS_OP * scale of the completely positive
    cone that a probe with a smaller output would reject, looser by up to
    the ratio of the two scales.
    """

    superoperator: np.ndarray = field(repr=False)
    source: DensityOperator
    target: DensityOperator
    positivity: str = field(repr=False, compare=False)

    def __init__(self, superoperator, source: DensityOperator,
                 target: DensityOperator | None = None, _cp: bool = False):
        s = finite_array(np.array(superoperator, dtype=complex), "superoperator entries", complex)
        d_in = source.dim
        if s.shape[1] != d_in * d_in:
            raise ValueError("superoperator input dimension mismatch")
        d_out = int(round(np.sqrt(s.shape[0])))
        if d_out * d_out != s.shape[0]:
            raise ValueError("superoperator output dimension is not a square")
        positivity = "by_construction" if _cp else "cp_certified"
        if not _cp and not _cp_certified(s, d_in, d_out):
            _sample_check_positive(s, d_in, d_out)
            positivity = "positive_on_samples"
        image = apply_super(s, source.matrix)
        if target is None:
            target = DensityOperator(image)
        else:
            gap = float(np.abs(image - target.matrix).max())
            if gap > EPS_REL * max(target.trace, 1.0):
                raise ValueError(f"target is not the image of the source ({gap:.3e})")
        s.setflags(write=False)
        object.__setattr__(self, "superoperator", s)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "positivity", positivity)

    @classmethod
    def from_kraus(cls, kraus, source: DensityOperator) -> QuantumProcess:
        """The map rho -> sum_k A_k rho A_k-dagger, completely positive by construction."""
        return cls(kraus_to_super(kraus), source, _cp=True)

    @property
    def dims(self) -> tuple[int, int]:
        return self.source.dim, self.target.dim

    @cached_property
    def fitness_data(self) -> FitnessData:
        # Built on first use and kept: the superoperator and states are read-only.
        w_op = apply_adjoint(self.superoperator, np.eye(self.target.dim, dtype=complex))
        w_op = hermitize(w_op, what="fitness operator")
        rho = self.source.matrix
        wbar = float(_pair(w_op, rho)) / self.source.trace
        if wbar <= 0:
            raise ValueError("map carries no child mass")
        u_op = w_op / wbar
        vals, vecs = np.linalg.eigh(u_op)
        if vals.min() * wbar < -EPS_OP * max(float(vals.max()) * wbar, 1.0):
            raise ValueError("fitness operator is not positive: non-positive map")
        weights = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs)), 0.0, None)
        vecs.setflags(write=False)
        return FitnessData(
            W=QuantumObservable(w_op),
            wbar=wbar,
            U=QuantumObservable(u_op),
            eigvecs=vecs,
            summary=summarize_fitness(vals, weights / weights.sum()),
        )


def _choi(s: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The Choi matrix sum_ij E_ij (x) Phi(E_ij), realigned from the superoperator
    into a new array."""
    n = d_in * d_out
    return np.array(s.reshape(d_out, d_out, d_in, d_in, order="F").transpose(2, 0, 3, 1)
                    ).reshape(n, n)


def _cp_certified(s: np.ndarray, d_in: int, d_out: int) -> bool:
    """Choi's test: J Hermitian and J + EPS_OP * scale * 1 Cholesky-factorizable."""
    j = _choi(s, d_in, d_out)
    try:
        h = hermitize(j, what="Choi matrix")  # a new array, also for real j
    except ValueError:
        return False
    diag = np.arange(len(h))
    h[diag, diag] += EPS_OP * max(float(np.abs(j).max()), 1.0)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _sample_check_positive(s: np.ndarray, d_in: int, d_out: int) -> None:
    """Positivity of a general map is not decidable at desk scale; sample it.

    64 random PSD probes must map to Hermitian, nearly-PSD outputs.
    """
    rng = np.random.default_rng(20240317)
    for _ in range(64):
        g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        probe = g @ g.conj().T
        probe /= np.trace(probe).real
        out = apply_super(s, probe)
        scale = max(float(np.abs(out).max()), 1.0)
        try:
            out = hermitize(out)
        except ValueError:
            raise ValueError("map does not preserve Hermiticity on sampled states") from None
        if float(np.linalg.eigvalsh(out).min()) < -EPS_OP * scale:
            raise ValueError("map sends a sampled state outside the positive cone")


def q_expectation(rho: DensityOperator, x: QuantumObservable) -> float:
    """Re Tr(X rho) / N; a non-real trace beyond tolerance is an error."""
    if rho.dim != x.dim:
        raise ValueError("dimension mismatch")
    val = complex(np.trace(x.matrix @ rho.matrix)) / rho.trace
    IdentityViolation.check("q_expectation_imaginary_part", abs(val.imag),
                            EPS_OP * max(abs(val.real), 1.0))
    return float(val.real)


# ---------------------------------------------------------------------------
# Fitness operator and spectral summaries


def q_fitness(w: QuantumProcess) -> FitnessData:
    """The process's fitness data, computed once per process."""
    return w.fitness_data


# ---------------------------------------------------------------------------
# Left and right change decompositions


@dataclass(frozen=True)
class QPriceSide:
    ns: complex
    ec: complex
    tower_residual: float

    @property
    def total(self) -> complex:
        return self.ns + self.ec


@dataclass(frozen=True)
class QPriceResult:
    delta: float
    left: QPriceSide
    right: QPriceSide
    commutator_gap: complex

    @property
    def residual_left(self) -> float:
        return abs(self.delta - self.left.total)

    @property
    def residual_right(self) -> float:
        return abs(self.delta - self.right.total)


def q_price(w: QuantumProcess, x: QuantumObservable, y: QuantumObservable) -> QPriceResult:
    """Left and right decompositions of the change of (X, Y).

    Local averages use the support pseudo-inverse of the fitness operator;
    any weight of the pulled-back Y outside that support shows up as the
    reported tower residual rather than being silently dropped.
    """
    d_in, d_out = w.dims
    if x.dim != d_in or y.dim != d_out:
        raise ValueError("observable dimensions do not match the process")
    rho = w.source.matrix
    n = w.source.trace
    fd = q_fitness(w)
    u = fd.U.matrix
    pulled = apply_adjoint(w.superoperator, y.matrix)
    proj = _projector(fd.eigvecs, fd.support)

    e_x = float(np.real(np.trace(x.matrix @ rho))) / n
    e_y_next = q_expectation(w.target, y)
    delta = e_y_next - e_x

    t_xu = complex(np.trace(x.matrix @ u @ rho)) / n
    t_ux = complex(np.trace(u @ x.matrix @ rho)) / n
    tower = complex(np.trace(pulled @ proj @ rho)) / (n * fd.wbar)
    tower_r = complex(np.trace(proj @ pulled @ rho)) / (n * fd.wbar)

    left = QPriceSide(
        ns=t_xu - e_x,
        ec=tower - t_xu,
        tower_residual=abs(tower - e_y_next),
    )
    right = QPriceSide(
        ns=t_ux - e_x,
        ec=tower_r - t_ux,
        tower_residual=abs(tower_r - e_y_next),
    )
    gap = complex(np.trace((x.matrix @ u - u @ x.matrix) @ rho)) / n
    return QPriceResult(delta=delta, left=left, right=right, commutator_gap=gap)


# ---------------------------------------------------------------------------
# Factorization


@dataclass(frozen=True)
class QFactorization:
    environmental: np.ndarray = field(repr=False)  # process after undoing W
    fitness_operator: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)

    @property
    def selective(self) -> np.ndarray:
        """vec(rho) -> vec(W rho), formed when read."""
        w_op = self.fitness_operator
        return np.kron(np.eye(len(w_op), dtype=complex), w_op)


def q_factorize(w: QuantumProcess) -> QFactorization:
    """Split into left-multiplication by the fitness operator followed by a
    trace-preserving map on its support subspace; verified by composition."""
    fd = q_fitness(w)
    w_op = fd.W.matrix
    proj = _projector(fd.eigvecs, fd.support)
    vals, vecs = fd.eigvals[fd.support] * fd.wbar, fd.eigvecs[:, fd.support]
    inv = (vecs / vals) @ vecs.conj().T
    s = w.superoperator
    # S kron(1, A) as the product of each of S's column blocks with A, O(d^5).
    env = (s.reshape(-1, len(inv)) @ inv).reshape(s.shape)

    # Verification error grows with the spread of the kept spectrum: an
    # eigenvalue just above the support cutoff inverts with error ~ EPS_COND * cond.
    cond = float(vals.max() / vals.min()) if len(vals) else 1.0
    tol = max(EPS_INVERSE, EPS_COND * cond)

    # The composite env kron(1, W) minus the restricted map S kron(1, P) is
    # S kron(1, E), E = A W - P, whose entry [r, k d + m] is
    # sum_l S[r, k d + l] E[l, m]; in exact arithmetic its largest entry is
    # at most |S|max * ||E||_1 (largest column absolute sum), so checking
    # that product is never looser than checking the formed difference.
    s_max = float(np.abs(s).max())
    residual = float(np.abs(inv @ w_op - proj).sum(axis=0).max()) * s_max
    IdentityViolation.check("q_factorize_composition", residual, tol * max(1.0, s_max))
    # Trace preservation of the environmental factor on the support subspace.
    env_fitness = apply_adjoint(env, np.eye(w.target.dim, dtype=complex))
    IdentityViolation.check("q_factorize_trace_preservation",
                            float(np.abs(env_fitness - proj).max()), tol)
    return QFactorization(environmental=env, fitness_operator=w_op, support=proj)


# ---------------------------------------------------------------------------
# Law chains from the spectrum


def q_laws(w: QuantumProcess) -> dict[str, LawReport]:
    """The zeroth, first, Gibbs, second and acceleration chains of w, from the
    law functions themselves, which read the spectrum of the relative-fitness
    operator as a kernel process's U; the acceleration has no lower bound."""
    return {
        "zeroth": zeroth_law(w),
        "first": first_law(w),
        "gibbs": gibbs_report(w),
        "second": second_law(w),
        "acceleration": selective_acceleration(w, with_lower=False),
    }


# ---------------------------------------------------------------------------
# Partition entropies


def _check_resolution(projs, dim: int, label: str) -> np.ndarray:
    """The projections, stacked, once checked Hermitian, idempotent and complete."""
    mats = hermitize(np.array(projs, dtype=complex), what=f"{label} projection")
    if float(np.abs(mats.sum(axis=0) - np.eye(dim)).max()) > EPS_OP * max(1.0, dim):
        raise ValueError(f"{label} projections do not resolve the identity")
    if float(np.abs(mats @ mats - mats).max()) > EPS_OP:
        raise ValueError(f"{label} projection is not idempotent")
    return mats


@dataclass(frozen=True)
class QPartitionResult:
    profile: EntropyProfile
    dispersion_bounds: LawReport
    mixing_bounds: LawReport
    third_law: dict[str, LawReport]
    commutation_residual: float

    @property
    def chains_apply(self) -> bool:
        """The moment chains are derived for cells that commute with the
        intermediate state; outside that domain they are reported but make
        no claim."""
        return self.commutation_residual <= EPS_OP


def q_partition_entropy(w: QuantumProcess, projs_a, projs_b) -> QPartitionResult:
    """Partition entropies over projection-valued cells.

    Cell operators are the sandwiched pullbacks pi_a W-dagger(pi_b) pi_a
    normalized by the selective coefficient; dispersion coefficients divide
    out the fitness operator on its support.  The mixing part is defined
    through the exact cell decomposition, so profile identities hold by
    construction; sign properties are what the chains check.

    Each cell lives in its source projection's range, of rank r_a <= r:
    with V_a its orthonormal basis (zero-padded to r columns), the cell is
    u_cell = V M V-dagger and D-hat = Q H Q-dagger, where M = V-dagger
    W-dagger(pi_b) V / wbar, Q R = U^{-1/2} V (thin QR) and H = R M R-dagger,
    so every statistic is a trace of r x r matrices.  The basis is taken from
    the eigenvalues above 1/2 of pi_a: a source projection accepted as
    idempotent within EPS_OP, whose eigenvalues then lie within ~1e-8 of 0
    or 1, stands for the exact projection V V-dagger onto its range.  Target
    projections enter linearly through W-dagger and are used as given.
    """
    d_in, d_out = w.dims
    projs_a = _check_resolution(projs_a, d_in, "source")
    projs_b = _check_resolution(projs_b, d_out, "target")
    fd = q_fitness(w)
    rho = w.source.matrix
    n = w.source.trace
    u_op = fd.U.matrix
    u_half = _spectral(fd.eigvals, fd.eigvecs, np.sqrt, fd.support)
    u_inv_half = _spectral(fd.eigvals, fd.eigvecs, lambda v: 1.0 / np.sqrt(v), fd.support)
    inter = u_half @ rho @ u_half            # intermediate state, trace N
    inter_scale = float(np.abs(inter).max())  # > 0: the trace is N > 0
    centered_rho = (u_op - np.eye(d_in)) @ rho
    centered_inter = u_half @ centered_rho @ u_half
    pulled_b = apply_adjoint(w.superoperator, projs_b)

    # Range bases (nA, d, r) of the source projections, then r x r cells (nA, nB, r, r).
    p_vals, p_vecs = np.linalg.eigh(projs_a)
    r = int((p_vals > 0.5).sum(axis=-1).max())
    v = p_vecs[..., d_in - r:] * (p_vals[:, None, d_in - r:] > 0.5)
    vh = v.conj().swapaxes(-1, -2)
    q, r_fac = np.linalg.qr(u_inv_half @ v)
    qh = q.conj().swapaxes(-1, -2)
    m = _herm_part(vh[:, None] @ (pulled_b[None] @ v[:, None])) / fd.wbar
    h = _herm_part(r_fac[:, None] @ m @ r_fac.conj().swapaxes(-1, -2)[:, None])
    inter_q = (qh @ inter @ q)[:, None]
    u_q = (qh @ u_op @ q)[:, None]

    d_vals, d_vecs = np.linalg.eigh(h)
    d_keep = _support(d_vals)
    d_log_d = _spectral(d_vals, d_vecs, lambda x: x * np.log(x), d_keep)
    p_cell = _projector(d_vecs, d_keep)
    u_bar = _pair(m, (vh @ rho @ v)[:, None]) / n
    p_tilde = _pair(p_cell, inter_q) / n
    # n * p_tilde * sigma, sigma the intermediate state on the cell support
    sigma_n = p_cell @ inter_q @ p_cell
    norm = np.where(p_tilde > EPS_ZERO, n * p_tilde, 0.0)
    ud = u_q @ h
    log_ubar = np.log(u_bar, out=np.zeros_like(u_bar), where=u_bar > EPS_ZERO)
    s_ec = -xlogx(np.maximum(u_bar, 0.0))
    s_dis = -_pair(d_log_d, inter_q) / n
    cov_ec = -log_ubar * _pair(m, (vh @ centered_rho @ v)[:, None]) / n
    cov_dis = -_pair(d_log_d, (qh @ centered_inter @ q)[:, None]) / n
    phi, lam, gamma = (_ratio(_pair(x, sigma_n), norm) for x in (u_q, ud, h @ ud))
    stats = [u_bar, s_ec, s_dis, s_ec - s_dis, p_tilde, phi, lam, gamma,
             _pair(h, h @ inter_q) / n, cov_ec, cov_dis, cov_ec - cov_dis]

    # Commutator D-hat inter - inter D-hat = T - T-dagger, T = Q H (Q-dagger inter),
    # one source projection at a time so that no (nA, nB, d, d) array is formed.
    comm_residual = 0.0
    for qa, qa_h, ha in zip(q, qh, h):
        d_scale = np.maximum(np.abs(qa @ ha @ qa_h).max(axis=(-2, -1)), EPS_ZERO)
        t = qa @ (ha @ (qa_h @ inter))
        comm = np.abs(t - t.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        comm_residual = max(comm_residual, float((comm / (d_scale * inter_scale)).max()))

    cells = CellArrays(tuple(range(len(projs_a))), tuple(range(len(projs_b))), *stats)
    profile = EntropyProfile.from_cells(fd.summary, cells, suffix="_partition")
    dis, mix = profile.bounds
    return QPartitionResult(
        profile=profile, dispersion_bounds=dis, mixing_bounds=mix,
        third_law=profile.third_law, commutation_residual=comm_residual,
    )


# ---------------------------------------------------------------------------
# Open quantum processes


@dataclass(frozen=True)
class OpenQuantumProcess:
    closed: QuantumProcess
    full_target: DensityOperator

    def __init__(self, closed: QuantumProcess, full_target: DensityOperator):
        if closed.target.dim != full_target.dim:
            raise ValueError("full target dimension mismatch")
        gap = closed.target.matrix @ full_target.matrix \
            - full_target.matrix @ closed.target.matrix
        if float(np.abs(gap).max()) > EPS_OP * max(1.0, full_target.trace):
            raise ValueError("parented component must commute with the full target")
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "full_target", full_target)

    @cached_property
    def parented_operator(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.full_target.matrix)
        inv_half = _spectral(vals, vecs, lambda v: 1.0 / np.sqrt(v), _support(vals))
        pi = _herm_part(inv_half @ self.closed.target.matrix @ inv_half)
        pi.setflags(write=False)
        return pi

    @property
    def orphan_operator(self) -> np.ndarray:
        return np.eye(self.full_target.dim) - self.parented_operator

    @property
    def parented_share(self) -> float:
        return self.closed.target.trace / self.full_target.trace


@dataclass(frozen=True)
class QKgsResult:
    delta: float
    forms: dict  # keys (side, density) -> complex total of the three terms
    parented_share: float

    def residual(self, side: str, density: str) -> float:
        return abs(self.delta - self.forms[(side, density)])


def q_kgs(op: OpenQuantumProcess, x: QuantumObservable, y: QuantumObservable) -> QKgsResult:
    """Four open-process change identities: left/right x orphan/parented."""
    share = op.parented_share
    if share <= EPS_ZERO:
        raise ValueError("all children are orphans: the correction is undefined")
    w = op.closed
    rho = w.source.matrix
    n = w.source.trace
    full = op.full_target
    n_full = full.trace
    sides = q_price(w, x, y)

    e_x = float(np.real(np.trace(x.matrix @ rho))) / n
    e_y = q_expectation(full, y)
    delta = e_y - e_x

    pi = op.parented_operator
    nu = op.orphan_operator

    def cov_full(a: np.ndarray, b: np.ndarray) -> complex:
        mean_a = complex(np.trace(a @ full.matrix)) / n_full
        mean_b = complex(np.trace(b @ full.matrix)) / n_full
        return complex(np.trace(a @ b @ full.matrix)) / n_full - mean_a * mean_b

    third = {
        ("left", "nu"): cov_full(y.matrix, nu) / share,
        ("left", "pi"): -cov_full(y.matrix, pi) / share,
        ("right", "nu"): cov_full(nu, y.matrix) / share,
        ("right", "pi"): -cov_full(pi, y.matrix) / share,
    }
    forms = {
        (side, density): getattr(sides, side).total + t
        for (side, density), t in third.items()
    }
    return QKgsResult(delta=delta, forms=forms, parented_share=share)


# ---------------------------------------------------------------------------
# Classical embedding


def embed_process(p: Process) -> QuantumProcess:
    """Diagonal embedding: weights on the diagonal, kernel as a dephasing
    transfer map.  Every classical functional is reproduced exactly."""
    k, k_out = p.kernel.shape
    s = np.zeros((k_out * k_out, k * k), dtype=complex)
    ii, jj = np.nonzero(p.kernel)
    s[jj + jj * k_out, ii + ii * k] = p.kernel[ii, jj]
    rho = DensityOperator(np.diag(p.source.weights.astype(complex)))
    target = DensityOperator(np.diag(p.target.weights.astype(complex)))
    return QuantumProcess(s, rho, target, _cp=True)


def embed_observable(values) -> QuantumObservable:
    return QuantumObservable(np.diag(np.asarray(values, dtype=complex)))
