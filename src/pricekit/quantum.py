"""Finite-dimensional operator version of the change decompositions.

Populations are Hermitian PSD matrices with positive trace; a process is a
positive linear map given as a superoperator on column-major vectorized
matrices.  The fitness operator is the adjoint pullback of the identity;
left and right decompositions differ by a commutator expectation, which is
the quantumness of an observable pair.  Scalar functionals of the fitness
operator are evaluated spectrally, so the classical law chains apply to the
eigenvalue distribution unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import EPS_HERM, EPS_PSD, EPS_REL, EPS_ZERO
from .entropy import CELL_FIELDS, CellArrays, EntropyProfile
from .laws import (
    LawReport,
    acceleration_report,
    first_report,
    gibbs_report_from_summary,
    second_report,
    zeroth_report,
)
from .measure import xlogx
from .process import FitnessSummary, Process, summarize_fitness


# ---------------------------------------------------------------------------
# Linear-algebra helpers (column-major vectorization throughout)


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return np.asarray(v).reshape((rows, cols), order="F")


def hermitize(a: np.ndarray, tol: float = EPS_HERM, what: str = "operator") -> np.ndarray:
    scale = max(float(np.abs(a).max()), 1.0)
    gap = float(np.abs(a - a.conj().T).max())
    if gap > tol * scale:
        raise ValueError(f"{what} is not Hermitian (residual {gap:.3e})")
    return 0.5 * (a + a.conj().T)


def _support(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues above 1e-10 of the top eigenvalue."""
    return vals > 1e-10 * max(float(np.abs(vals).max()), EPS_ZERO)


def _projector(vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    return vecs[:, keep] @ vecs[:, keep].conj().T


def _spectral(vals: np.ndarray, vecs: np.ndarray, f, support_only: bool = False) -> np.ndarray:
    """Apply a scalar function through a given eigendecomposition; with
    ``support_only`` eigenvalues at or below 1e-12 of the top one map to 0."""
    if support_only:
        cutoff = 1e-12 * max(float(np.abs(vals).max()), EPS_ZERO)
        fv = np.where(vals > cutoff, f(np.maximum(vals, cutoff)), 0.0)
    else:
        fv = f(vals)
    return (vecs * fv) @ vecs.conj().T


def matrix_function(h: np.ndarray, f, support_only: bool = False) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    return _spectral(*np.linalg.eigh(h), f, support_only)


# ---------------------------------------------------------------------------
# States, observables, processes


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray = field(repr=False)

    def __init__(self, matrix):
        m = hermitize(np.array(matrix, dtype=complex), what="density operator")
        vals, vecs = np.linalg.eigh(m)
        scale = max(float(vals.max()), EPS_ZERO)
        if vals.min() < -EPS_PSD * max(scale, 1.0):
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
        m = hermitize(np.array(matrix, dtype=complex), what="observable")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def apply_super(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d_in = rho.shape[0]
    d_out = int(round(np.sqrt(s.shape[0])))
    return unvec(s @ vec(rho), d_out)


def kraus_to_super(kraus) -> np.ndarray:
    mats = [np.asarray(a, dtype=complex) for a in kraus]
    d_out, d_in = mats[0].shape
    s = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for a in mats:
        s += np.kron(a.conj(), a)
    return s


@dataclass(frozen=True)
class QuantumProcess:
    superoperator: np.ndarray = field(repr=False)
    source: DensityOperator
    target: DensityOperator

    def __init__(self, superoperator, source: DensityOperator,
                 target: DensityOperator | None = None):
        s = np.array(superoperator, dtype=complex)
        d_in = source.dim
        if s.shape[1] != d_in * d_in:
            raise ValueError("superoperator input dimension mismatch")
        d_out = int(round(np.sqrt(s.shape[0])))
        if d_out * d_out != s.shape[0]:
            raise ValueError("superoperator output dimension is not a square")
        image = apply_super(s, source.matrix)
        if target is None:
            target = DensityOperator(image)
        else:
            gap = float(np.abs(image - target.matrix).max())
            if gap > EPS_REL * max(target.trace, 1.0):
                raise ValueError(f"target is not the image of the source ({gap:.3e})")
        _sample_check_positive(s, d_in, d_out)
        s.setflags(write=False)
        object.__setattr__(self, "superoperator", s)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    @property
    def dims(self) -> tuple[int, int]:
        return self.source.dim, self.target.dim

    @cached_property
    def fitness_data(self) -> QFitness:
        # Built on first use and kept: the superoperator and states are read-only.
        w_op = apply_adjoint(self, np.eye(self.target.dim, dtype=complex))
        w_op = hermitize(w_op, tol=1e-8, what="fitness operator")
        wbar = self.target.trace / self.source.trace
        u_op = w_op / wbar
        vals, vecs = np.linalg.eigh(u_op)
        if vals.min() * wbar < -1e-8 * max(float(vals.max()) * wbar, 1.0):
            raise ValueError("fitness operator is not positive: non-positive map")
        rho = self.source.matrix
        weights = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs)), 0.0, None)
        summary = summarize_fitness(vals, weights / weights.sum())
        if abs(summary.mean(summary.u) - 1.0) > 1e-8:
            raise AssertionError("relative-fitness operator does not have unit mean")
        support = _support(vals)
        for a in (vals, vecs, support):
            a.setflags(write=False)
        return QFitness(
            W=QuantumObservable(w_op),
            wbar=wbar,
            U=QuantumObservable(u_op),
            eigvals=vals,
            eigvecs=vecs,
            support=support,
            summary=summary,
        )


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
        if float(np.abs(out - out.conj().T).max()) > 1e-8 * scale:
            raise ValueError("map does not preserve Hermiticity on sampled states")
        if float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min()) < -1e-8 * scale:
            raise ValueError("map sends a sampled state outside the positive cone")


def q_expectation(rho: DensityOperator, x: QuantumObservable) -> float:
    """Re Tr(X rho) / N; a non-real trace beyond tolerance is an error."""
    if rho.dim != x.dim:
        raise ValueError("dimension mismatch")
    val = complex(np.trace(x.matrix @ rho.matrix)) / rho.trace
    if abs(val.imag) > 1e-8 * max(abs(val.real), 1.0):
        raise AssertionError(f"expectation has imaginary residual {val.imag:.3e}")
    return float(val.real)


def adjoint(w: QuantumProcess) -> np.ndarray:
    """Adjoint superoperator in the trace pairing: the conjugate transpose."""
    return w.superoperator.conj().T


def apply_adjoint(w: QuantumProcess, y: np.ndarray) -> np.ndarray:
    return unvec(adjoint(w) @ vec(y), w.source.dim)


# ---------------------------------------------------------------------------
# Fitness operator and spectral summaries


@dataclass(frozen=True)
class QFitness:
    """W = W-dagger(1), wbar = N'/N and U = W/wbar, with the one eigh of U
    that every spectral functional reads: ``summary`` holds its eigenvalues
    weighted by the state, ``support`` those above 1e-10 of the top one."""

    W: QuantumObservable
    wbar: float
    U: QuantumObservable
    eigvals: np.ndarray = field(repr=False)
    eigvecs: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    summary: FitnessSummary = field(repr=False)

    @property
    def p_star(self) -> float:
        return self.summary.p_star


def q_fitness(w: QuantumProcess) -> QFitness:
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
    pulled = apply_adjoint(w, y.matrix)           # W-dagger applied to Y
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
    selective: np.ndarray = field(repr=False)      # vec(rho) -> vec(W rho)
    environmental: np.ndarray = field(repr=False)  # process after undoing W
    fitness_operator: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)


def q_factorize(w: QuantumProcess) -> QFactorization:
    """Split into left-multiplication by the fitness operator followed by a
    trace-preserving map on its support subspace; verified by composition."""
    d_in, d_out = w.dims
    fd = q_fitness(w)
    w_op = fd.W.matrix
    proj = _projector(fd.eigvecs, fd.support)
    vals, vecs = fd.eigvals[fd.support] * fd.wbar, fd.eigvecs[:, fd.support]
    eye = np.eye(d_in, dtype=complex)
    sel = np.kron(eye, w_op)
    env = w.superoperator @ np.kron(eye, (vecs / vals) @ vecs.conj().T)

    # Verification error grows with the spread of the kept spectrum: an
    # eigenvalue just above the support cutoff is inverted with relative
    # error eps * cond.
    cond = float(vals.max() / vals.min()) if len(vals) else 1.0
    tol = max(1e-10, 1e-13 * cond)

    composite = env @ sel
    restricted = w.superoperator @ np.kron(eye, proj)
    if float(np.abs(composite - restricted).max()) > tol * max(
        1.0, float(np.abs(w.superoperator).max())
    ):
        raise AssertionError("factor composition fails on the support subspace")
    # Trace preservation of the environmental factor on the support subspace.
    env_fitness = unvec(env.conj().T @ vec(np.eye(d_out, dtype=complex)), d_in)
    if float(np.abs(env_fitness - proj).max()) > tol:
        raise AssertionError("environmental factor is not trace-preserving")
    return QFactorization(
        selective=sel, environmental=env, fitness_operator=w_op, support=proj
    )


# ---------------------------------------------------------------------------
# Law chains from the spectrum


def q_laws(w: QuantumProcess) -> dict[str, LawReport]:
    """Zeroth, first, Gibbs, second, and acceleration chains, evaluated on
    the eigenvalue distribution of the relative-fitness operator."""
    ins = q_fitness(w).summary
    return {
        "zeroth": zeroth_report(ins),
        "first": first_report(ins),
        "gibbs": gibbs_report_from_summary(ins),
        "second": second_report(ins),
        "acceleration": acceleration_report(ins, with_lower=False),
    }


# ---------------------------------------------------------------------------
# Partition entropies


def _check_resolution(projs, dim: int, label: str) -> list[np.ndarray]:
    mats = [hermitize(np.array(p, dtype=complex), what=f"{label} projection")
            for p in projs]
    total = sum(mats)
    if float(np.abs(total - np.eye(dim)).max()) > EPS_HERM * max(1.0, dim):
        raise ValueError(f"{label} projections do not resolve the identity")
    for m in mats:
        if float(np.abs(m @ m - m).max()) > 1e-8:
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
        return self.commutation_residual <= 1e-8


def q_partition_entropy(w: QuantumProcess, projs_a, projs_b) -> QPartitionResult:
    """Partition entropies over projection-valued cells.

    Cell operators are the sandwiched pullbacks pi_a W-dagger(pi_b) pi_a
    normalized by the selective coefficient; dispersion coefficients divide
    out the fitness operator on its support.  The mixing part is defined
    through the exact cell decomposition, so profile identities hold by
    construction; sign properties are what the chains check.
    """
    d_in, d_out = w.dims
    projs_a = _check_resolution(projs_a, d_in, "source")
    projs_b = _check_resolution(projs_b, d_out, "target")
    fd = q_fitness(w)
    rho = w.source.matrix
    n = w.source.trace
    u_op = fd.U.matrix
    u_half = _spectral(fd.eigvals, fd.eigvecs, np.sqrt, support_only=True)
    u_inv_half = _spectral(fd.eigvals, fd.eigvecs, lambda v: 1.0 / np.sqrt(v),
                           support_only=True)
    inter = u_half @ rho @ u_half            # intermediate state, trace N

    stats = np.zeros((len(projs_a), len(projs_b), len(CELL_FIELDS)))
    comm_residual = 0.0
    inter_scale = max(float(np.abs(inter).max()), EPS_ZERO)
    centered = u_op - np.eye(d_in)
    pulled_b = [apply_adjoint(w, pb) for pb in projs_b]
    for a, pa in enumerate(projs_a):
        for b, pulled in enumerate(pulled_b):
            u_cell = pa @ pulled @ pa / fd.wbar
            u_cell = 0.5 * (u_cell + u_cell.conj().T)
            u_bar = float(np.real(np.trace(u_cell @ rho))) / n
            d_hat = u_inv_half @ u_cell @ u_inv_half
            d_hat = 0.5 * (d_hat + d_hat.conj().T)
            d_scale = max(float(np.abs(d_hat).max()), EPS_ZERO)
            comm = d_hat @ inter - inter @ d_hat
            comm_residual = max(
                comm_residual, float(np.abs(comm).max()) / (d_scale * inter_scale)
            )

            s_ec = float(-xlogx(max(u_bar, 0.0)))
            d_vals, d_vecs = np.linalg.eigh(d_hat)
            d_log_d = _spectral(d_vals, d_vecs, lambda v: v * np.log(v), support_only=True)
            s_dis = -float(np.real(np.trace(d_log_d @ inter))) / n

            p_cell = _projector(d_vecs, _support(d_vals))
            p_tilde = float(np.real(np.trace(p_cell @ inter))) / n
            if p_tilde > EPS_ZERO:
                sigma = p_cell @ inter @ p_cell / (n * p_tilde)
                phi = float(np.real(np.trace(u_op @ sigma)))
                sym_ud = 0.5 * (u_op @ d_hat + d_hat @ u_op)
                lam = float(np.real(np.trace(sym_ud @ sigma)))
                gamma = float(np.real(np.trace(d_hat @ u_op @ d_hat @ sigma)))
            else:
                phi = lam = gamma = 0.0
            mean_d2 = float(np.real(np.trace(d_hat @ d_hat @ inter))) / n

            log_ubar = np.log(u_bar) if u_bar > EPS_ZERO else 0.0
            cov_ec = float(np.real(np.trace((-u_cell * log_ubar) @ centered @ rho))) / n
            x_dis = -u_half @ d_log_d @ u_half
            cov_dis = float(np.real(np.trace(x_dis @ centered @ rho))) / n
            stats[a, b] = (u_bar, s_ec, s_dis, s_ec - s_dis, p_tilde, phi, lam, gamma,
                           mean_d2, cov_ec, cov_dis, cov_ec - cov_dis)

    cells = CellArrays(tuple(range(len(projs_a))), tuple(range(len(projs_b))),
                       *np.moveaxis(stats, -1, 0))
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
        if float(np.abs(gap).max()) > 1e-8 * max(1.0, full_target.trace):
            raise ValueError("parented component must commute with the full target")
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "full_target", full_target)

    @cached_property
    def parented_operator(self) -> np.ndarray:
        inv_half = matrix_function(
            self.full_target.matrix, lambda v: 1.0 / np.sqrt(v), support_only=True
        )
        pi = inv_half @ self.closed.target.matrix @ inv_half
        pi = 0.5 * (pi + pi.conj().T)
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
    return QuantumProcess(s, rho, target)


def embed_observable(values) -> QuantumObservable:
    return QuantumObservable(np.diag(np.asarray(values, dtype=complex)))
