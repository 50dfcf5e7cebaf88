"""Evolutionary processes as kernel matrices between two populations.

A process stores a K x K' nonnegative kernel whose row i gives the child
mass that one unit of parent type i deposits on each child type.  The
defining constraint is the disintegration identity: the child population is
exactly the kernel-weighted image of the parent population.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import EPS_REL, EPS_SAT, EPS_ZERO
from .measure import Observable, Population, TypeSet, xlogx


@dataclass(frozen=True)
class Diagnostics:
    """Per-child-type disintegration residuals."""

    residuals: np.ndarray = field(repr=False)
    max_residual: float
    passed: bool


def _relative_residuals(predicted: np.ndarray, stated: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(predicted), np.abs(stated)), EPS_ZERO)
    res = np.abs(predicted - stated) / scale
    res[(predicted == 0) & (stated == 0)] = 0.0
    return res


@dataclass(frozen=True)
class FitnessSummary:
    """Values of U (zero within EPS_ZERO or the rank floor) with their
    probabilities, U log U, the support U > 0 (the one childbearing rule, read
    by classical and operator code alike), and the p_star, var(U), S_NS and
    equilibrium class read off them; the operator version reads U's spectrum."""

    u: np.ndarray
    prob: np.ndarray
    u_log_u: np.ndarray
    support: np.ndarray
    p_star: float
    var_u: float
    s_ns: float
    equilibrium_class: str

    def mean(self, values: np.ndarray) -> float:
        return float(self.prob @ values)

    def moment(self, k: float) -> float:
        return self.mean(self.u**k)

    @cached_property
    def ns_s_ns(self) -> float:
        """E[-(U-1) U log U], the selective change of S_NS (the Second Law's lhs)."""
        return self.mean(-self.u_log_u * (self.u - 1.0))

    @cached_property
    def u2_log_u(self) -> float:
        """E[U^2 log U] with 0 log 0 = 0."""
        pos = self.support
        vals = np.zeros_like(self.u)
        vals[pos] = self.u[pos] ** 2 * np.log(self.u[pos])
        return self.mean(vals)


def summarize_fitness(u_values: np.ndarray, prob: np.ndarray) -> FitnessSummary:
    u = np.array(u_values, dtype=float)
    # EPS_ZERO, or the rank floor size * eps * max|U| of an eigh if larger
    floor = max(EPS_ZERO, u.size * np.finfo(float).eps * float(np.abs(u).max(initial=0.0)))
    u[np.abs(u) <= floor] = 0.0
    prob = np.array(prob, dtype=float)
    u_log_u = xlogx(u)
    support = u > 0
    for a in (u, prob, u_log_u, support):
        a.setflags(write=False)
    # equilibrium class: purely_environmental, selective_equilibrium or generic
    carried = u[prob > 0]
    live = u[(prob > 0) & support]
    if np.all(np.abs(carried - 1.0) <= EPS_SAT):
        eq = "purely_environmental"
    elif len(live) and live.max() - live.min() <= EPS_SAT * max(1.0, live.max()):
        eq = "selective_equilibrium"
    else:
        eq = "generic"
    return FitnessSummary(
        u=u,
        prob=prob,
        u_log_u=u_log_u,
        support=support,
        p_star=float(prob[support].sum()),
        var_u=float(prob @ (u - 1.0) ** 2),
        s_ns=float(prob @ (-u_log_u)),
        equilibrium_class=eq,
    )


@dataclass(frozen=True)
class FitnessData:
    """Row sums W, their source-weighted mean wbar = mu.W / N and U = W/wbar,
    which has unit mean by construction; ``support`` marks the childbearing
    rows and is the summary's own array."""

    W: Observable
    wbar: float
    U: Observable
    summary: FitnessSummary = field(repr=False)

    @property
    def support(self) -> np.ndarray:
        return self.summary.support

    @property
    def p_star(self) -> float:
        return self.summary.p_star


@dataclass(frozen=True)
class Process:
    source: Population
    target: Population
    kernel: np.ndarray = field(repr=False)

    def __init__(self, source, target, kernel, _check: bool = True):
        k = np.array(kernel, dtype=float)
        if k.ndim != 2 or k.shape != (len(source.types), len(target.types)):
            raise ValueError(
                f"kernel must be {len(source.types)}x{len(target.types)}, got {k.shape}"
            )
        if np.any(k < 0):
            raise ValueError("kernel entries must be nonnegative")
        k.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kernel", k)
        if _check:
            diag = validate(self)
            if not diag.passed:
                raise ValueError(
                    f"disintegration violated, max relative residual {diag.max_residual:.3e}"
                )

    @property
    def fitness_values(self) -> np.ndarray:
        return self.kernel.sum(axis=1)

    @cached_property
    def fitness_data(self) -> FitnessData:
        # Built on first use and kept: kernel and weights are read-only.
        w_values = self.fitness_values
        wbar = float(self.source.weights @ w_values) / self.source.size
        if wbar <= 0:
            raise ValueError("kernel carries no child mass")
        u_values = w_values / wbar
        return FitnessData(
            W=Observable(self.source.types, w_values),
            wbar=wbar,
            U=Observable(self.source.types, u_values),
            summary=summarize_fitness(u_values, self.source.weights / self.source.size),
        )


def process(source: Population, kernel, target: Population | None = None) -> Process:
    """Build a process; when no target is given, derive it from the kernel."""
    k = np.asarray(kernel, dtype=float)
    if target is None:
        weights = k.T @ source.weights
        target = Population(TypeSet.range(k.shape[1], prefix="c"), weights)
    return Process(source, target, k)


def fitness(p: Process) -> FitnessData:
    """The process's fitness data, computed once per process."""
    return p.fitness_data


def flow_shares(p: Process) -> np.ndarray:
    """Parent-child mass flow mu_i W_ij as shares of the child mass n * wbar,
    which sum to one; unthresholded."""
    return p.kernel * p.source.weights[:, None] / (p.source.size * fitness(p).wbar)


def flow_cells(p: Process) -> np.ndarray:
    """The flow shares with every share at or below EPS_ZERO, or on a childless
    row, set to zero: the (parent, child) cells that carry flow."""
    flow = flow_shares(p)
    flow[(flow <= EPS_ZERO) | ~fitness(p).support[:, None]] = 0.0
    return flow


def validate(p: Process) -> Diagnostics:
    """Report how well the kernel image of the source matches the target."""
    predicted = p.kernel.T @ p.source.weights
    residuals = _relative_residuals(predicted, p.target.weights)
    mx = float(residuals.max()) if len(residuals) else 0.0
    return Diagnostics(residuals=residuals, max_residual=mx, passed=mx <= EPS_REL)


def local_average(p: Process, y: Observable) -> Observable:
    """Fitness-normalized average of a child observable over each parent's brood.

    Rows with no children get the value 0; every use multiplies by U = 0
    there, so the choice never reaches an average.
    """
    if y.types != p.target.types:
        raise ValueError("observable must live on the target type set")
    fd = fitness(p)
    raw = p.kernel @ y.values
    out = np.zeros_like(raw)
    live = fd.support
    out[live] = raw[live] / fd.W.values[live]
    return Observable(p.source.types, out)


def local_change(p: Process, x: Observable, y: Observable) -> Observable:
    """Pointwise gap between the brood average of y and the parent value x."""
    if x.types != p.source.types:
        raise ValueError("x must live on the source type set")
    avg = local_average(p, y)
    return Observable(p.source.types, avg.values - x.values)


def check_composable(p: Process, q: Process) -> None:
    """Raise unless the intermediate populations agree within tolerance."""
    a, b = p.target, q.source
    if a.types != b.types:
        raise ValueError("processes are not composable")
    if not np.all(np.abs(a.weights - b.weights) <= EPS_REL * max(a.size, b.size, 1.0)):
        raise ValueError("intermediate populations differ beyond tolerance")


def compose(p: Process, q: Process) -> Process:
    """Run p, then q.  The kernel of the composite is the matrix product."""
    check_composable(p, q)
    return Process(p.source, q.target, p.kernel @ q.kernel, _check=False)


@dataclass(frozen=True)
class Factorization:
    """Selective scaling followed by a row-stochastic redistribution.

    Childless parent types carry zero intermediate mass; they are dropped
    from the redistribution stage (kept, they would break row-stochasticity)
    and listed in ``dropped_types``.
    """

    selective: Process
    environmental: Process
    fitness_diagonal: np.ndarray
    dropped_types: tuple[str, ...]


def price_factorize(p: Process) -> Factorization:
    fd = fitness(p)
    w = fd.W.values
    support = fd.support
    labels = np.asarray(p.source.types.labels)
    mid_types = TypeSet(labels[support])
    mid_pop = Population(mid_types, (w * p.source.weights)[support])

    k = len(p.source.types)
    sel_kernel = np.zeros((k, int(support.sum())))
    sel_kernel[np.nonzero(support)[0], np.arange(int(support.sum()))] = w[support]
    selective = Process(p.source, mid_pop, sel_kernel, _check=False)

    env_kernel = p.kernel[support] / w[support, None]
    environmental = Process(mid_pop, p.target, env_kernel, _check=False)

    return Factorization(
        selective=selective,
        environmental=environmental,
        fitness_diagonal=w.copy(),
        dropped_types=tuple(labels[~support]),
    )


class Purity(enum.Enum):
    PURELY_SELECTIVE = "purely_selective"
    PURELY_ENVIRONMENTAL = "purely_environmental"
    MIXED = "mixed"


def classify_purity(p: Process) -> Purity:
    """Constant relative fitness means a Markov chain; a diagonal kernel on a
    shared type set means a pure density scaling; anything else is mixed."""
    if fitness(p).summary.equilibrium_class == "purely_environmental":
        return Purity.PURELY_ENVIRONMENTAL
    if p.source.types == p.target.types:
        off_diag = p.kernel - np.diag(np.diag(p.kernel))
        if np.all(np.abs(off_diag) <= EPS_ZERO * max(1.0, float(p.kernel.max()))):
            return Purity.PURELY_SELECTIVE
    return Purity.MIXED
