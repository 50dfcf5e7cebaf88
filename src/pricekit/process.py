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
from .measure import (Observable, Population, TypeSet, _built, _population_size, _set, _Value,
                      finite_array, xlogx)

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class Diagnostics(_Value):
    """Per-child-type disintegration residuals."""

    residuals: np.ndarray = field(repr=False)
    max_residual: float
    passed: bool


def _relative_residuals(predicted: np.ndarray, stated: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(predicted), np.abs(stated)), EPS_ZERO)
    res = np.abs(predicted - stated) / scale
    res[(predicted == 0) & (stated == 0)] = 0.0
    return res


@dataclass(frozen=True, eq=False)
class FitnessData(_Value):
    """The one fitness record of a kernel or operator process, built by
    ``summarize_fitness`` and read by every law, entropy and quantum function.

    ``U`` is the observable (an operator for a map) W/wbar, of unit mean: W is
    the kernel's row sums or Phi-dagger(1), wbar its source-weighted mean, and
    ``eigvecs`` U's one eigh (None for a kernel).  ``u`` and ``prob`` are the
    distribution of U that the laws read: U's values, or its eigenvalues
    weighted by the source state, with each within EPS_ZERO or the rank floor
    of zero set to 0.  U log U, the support u > 0 (the one childbearing rule),
    p_star, var(U), S_NS and the equilibrium class are read off them.  On (G, K) stacks
    of u and prob (``trajectory``) it has no U, and its statistics and means are per row."""

    W: Observable
    wbar: float
    U: Observable | None
    u: np.ndarray = field(repr=False)
    prob: np.ndarray = field(repr=False)
    u_log_u: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    p_star: float
    var_u: float
    s_ns: float
    equilibrium_class: str
    eigvecs: np.ndarray | None = field(default=None, repr=False)

    def mean(self, values: np.ndarray) -> float:
        return _item(np.vecdot(self.prob, values))

    def moment(self, k: float) -> float:
        return self.mean(self.u**k)

    @cached_property
    def ns_s_ns(self) -> float:
        """E[-(U-1) U log U], the selective change of S_NS (the Second Law's lhs)."""
        return self.mean(-self.u_log_u * (self.u - 1.0))

    @cached_property
    def u2_log_u(self) -> float:
        """E[U^2 log U] with 0 log 0 = 0: off the support U is read as 1."""
        safe = np.where(self.support, self.u, 1.0)
        return self.mean(safe**2 * np.log(safe))


def _item(x):
    """x, a numpy array or scalar, as a Python float where it has no axes."""
    return float(x) if x.ndim == 0 else x


def _row_summary(u: np.ndarray, prob: np.ndarray, support: np.ndarray) -> tuple:
    """p_star and the equilibrium class of one process, or of each row of a stack, row by
    row: a where-sum over the stack adds in another order."""
    if u.ndim > 1:
        return tuple(map(np.array, zip(*map(_row_summary, u, prob, support))))
    carried, p_star = prob > 0, float(prob[support].sum())
    c, live = u[carried], u[carried & support]
    # max |c - 1| <= EPS_SAT, read off c's extremes: rounding is monotone
    if max(c.max(initial=1.0) - 1.0, 1.0 - c.min(initial=1.0)) <= EPS_SAT:
        return p_star, "purely_environmental"
    if len(live) and live.max() - live.min() <= EPS_SAT * max(1.0, live.max()):
        return p_star, "selective_equilibrium"
    return p_star, "generic"


def summarize_fitness(W, wbar, U, u_values: np.ndarray, prob: np.ndarray,
                      eigvecs: np.ndarray | None = None) -> FitnessData:
    u = np.array(u_values, dtype=float)
    abs_u = np.abs(u)
    # EPS_ZERO, or the rank floor size * eps * max|U| of an eigh if larger
    floor = np.maximum(EPS_ZERO, u.shape[-1] * _EPS * abs_u.max(-1, initial=0.0, keepdims=True))
    u[abs_u <= floor] = 0.0
    prob = np.array(prob, dtype=float)
    u_log_u = xlogx(u)
    support = u > 0
    p_star, eq = _row_summary(u, prob, support)
    return FitnessData(W=W, wbar=wbar, U=U, u=u, prob=prob, u_log_u=u_log_u, support=support,
                       p_star=p_star, var_u=_item(np.vecdot(prob, (u - 1.0) ** 2)),
                       s_ns=_item(np.vecdot(prob, -u_log_u)), equilibrium_class=eq, eigvecs=eigvecs)


@dataclass(frozen=True, eq=False)
class Process(_Value):
    source: Population
    target: Population
    kernel: np.ndarray = field(repr=False)

    def __init__(self, source, target, kernel, _check: bool = True):
        _set(self, source=source, target=target, kernel=_kernel(kernel, source.types, target.types))
        if _check:
            diag = validate(self)
            if not diag.passed:
                raise ValueError(
                    f"disintegration violated, max relative residual {diag.max_residual:.3e}"
                )

    @property
    def fitness_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.kernel.sum(axis=1)

    @cached_property
    def fitness_data(self) -> FitnessData:
        # Built on first use and kept: kernel and weights are read-only.
        w_values = self.fitness_values
        wbar, u_values = _relative_fitness(w_values, self.source.weights, self.source.size)
        # W is finite where mu.W is, U where _relative_fitness passed
        types = self.source.types
        return summarize_fitness(_built(Observable, types=types, values=w_values), wbar,
                                 _built(Observable, types=types, values=u_values), u_values,
                                 self.source.weights / self.source.size)

    @cached_property
    def flow_cells(self) -> np.ndarray:
        flow = flow_shares(self)
        flow[(flow <= EPS_ZERO) | ~self.fitness_data.support[:, None]] = 0.0
        _set(self, flow_cells=flow)
        return flow


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, formed under np.errstate; raises, naming ``what`` and the first
    entry, where one overflowed."""
    if not np.isfinite(values).all():
        at = np.unravel_index(np.argmin(np.isfinite(values)), values.shape)
        raise ValueError(f"{what} overflow: got {values[at]} at [{', '.join(map(str, at))}]")
    return values


def _relative_fitness(w: np.ndarray, weights: np.ndarray, size: float) -> tuple[float, np.ndarray]:
    """wbar = weights.W / size and U = W / wbar: weights.W finite, wbar > 0, U finite, in turn."""
    with np.errstate(over="ignore", invalid="ignore"):
        mass = float(weights @ w)
        if not np.isfinite(mass):
            raise ValueError(f"child mass mu.W overflows: {mass}")
        wbar = mass / size
        if wbar <= 0:
            raise ValueError("kernel carries no child mass")
        return wbar, _finite(w / wbar, "relative fitness W/wbar")


def _kernel(kernel, rows: TypeSet, cols: TypeSet | None) -> np.ndarray:
    """A copy of kernel, checked finite, a matrix with one row per ``rows`` label
    and one column per ``cols`` label (any number when cols is None), and nonnegative."""
    k = np.array(finite_array(kernel, "kernel entries"))
    if k.ndim != 2 or k.shape[0] != len(rows) or cols is not None and k.shape[1] != len(cols):
        per_col = "" if cols is None else " and one column per target type"
        raise ValueError(f"kernel must be a matrix with one row per source type{per_col}, "
                         f"got {k.shape}")
    if np.any(k < 0):
        raise ValueError("kernel entries must be nonnegative")
    return k


def _kernel_image(kernel, weights, what: str = "derived target weights") -> np.ndarray:
    """kernel.T @ weights, the child weights of parent weights."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(kernel.T @ weights, what)


def _population(types: TypeSet, weights: np.ndarray) -> Population:
    """The population of finite nonnegative weights just formed here: only the size checks run."""
    return _built(Population, types=types, weights=weights, _size=_population_size(weights))


def _image_process(source: Population, kernel: np.ndarray, types: TypeSet,
                   weights: np.ndarray) -> Process:
    """The process of a checked kernel onto ``weights``, its image of source
    fresh from ``_kernel_image``: finite, and nonnegative as kernel and source are."""
    return _built(Process, source=source, target=_population(types, weights), kernel=kernel)


def process(source: Population, kernel, target_types: TypeSet | None = None) -> Process:
    """The process whose target is the kernel image of the source, on
    ``target_types`` (c0, c1, ... by default).  The kernel is checked and
    copied before its image is formed."""
    k = _kernel(kernel, source.types, target_types)
    types = TypeSet.range(k.shape[1], prefix="c") if target_types is None else target_types
    return _image_process(source, k, types, _kernel_image(k, source.weights))


def trajectory(p: Process, generations: int) -> tuple[np.ndarray, np.ndarray, FitnessData]:
    """The parent weights (G, K), sizes and stacked fitness record of generations 0 ..
    ``generations`` of the endomorphic p, each checked as its process would be, in turn."""
    w, mu, size, fit = p.fitness_values, [p.source.weights], [p.source.size], []
    for t in range(generations + 1):
        mu.append(_kernel_image(p.kernel, mu[t], f"generation {t + 1} weights"))
        size.append(_population_size(mu[-1]))
        fit.append(_relative_fitness(w, mu[t], size[t]))
    wbar, u = map(np.array, zip(*fit))
    mu, size = np.array(mu[:-1]), np.array(size[:-1])
    return mu, size, summarize_fitness(_built(Observable, types=p.source.types, values=w),
                                       wbar, None, u, mu / size[:, None])


def fitness(p) -> FitnessData:
    """The fitness record of a Process or a QuantumProcess, computed once per process."""
    return p.fitness_data


def flow_shares(p: Process) -> np.ndarray:
    """Parent-child mass flow mu_i W_ij as shares of the child mass n * wbar,
    which sum to one; unthresholded."""
    return _flow_shares(p.kernel, p.source.weights, p.source.size * fitness(p).wbar)


def _flow_shares(kernel: np.ndarray, weights: np.ndarray, child_mass: float) -> np.ndarray:
    return kernel * weights[:, None] / child_mass


def flow_cells(p: Process) -> np.ndarray:
    """The flow shares with every share at or below EPS_ZERO, or on a childless
    row, set to zero: the (parent, child) cells that carry flow; kept with p, read-only."""
    return p.flow_cells


def validate(p: Process) -> Diagnostics:
    """Report how well the kernel image of the source matches the target."""
    predicted = _kernel_image(p.kernel, p.source.weights)
    residuals = _relative_residuals(predicted, p.target.weights)
    mx = float(residuals.max()) if len(residuals) else 0.0
    return Diagnostics(residuals=residuals, max_residual=mx, passed=mx <= EPS_REL)


def local_average(p: Process, y: Observable) -> Observable:
    """Fitness-normalized average of a child observable over each parent's brood.

    Rows with no children get the value 0; every use multiplies by U = 0
    there, so the choice never reaches an average.
    """
    if y.types != p.target.types:
        raise ValueError("y must live on the target type set")
    fd = fitness(p)
    raw = p.kernel @ y.values
    out = np.divide(raw, fd.W.values, out=np.zeros_like(raw), where=fd.support)
    return Observable(p.source.types, out)


def local_change(p: Process, x: Observable, y: Observable) -> Observable:
    """Pointwise gap between the brood average of y and the parent value x."""
    if x.types != p.source.types:
        raise ValueError("x must live on the source type set")
    avg = local_average(p, y)
    return Observable(p.source.types, avg.values - x.values)


def check_composable(p: Process, q: Process) -> Process:
    """Raise unless the intermediate populations agree within tolerance; return
    q read on p's exact target (q itself when they agree bit for bit)."""
    a, b = p.target, q.source
    if a.types != b.types:
        raise ValueError("processes are not composable")
    gap = np.abs(a.weights - b.weights)
    if not np.all(gap <= EPS_REL * max(a.size, b.size, 1.0)):
        raise ValueError("intermediate populations differ beyond tolerance")
    return _built(Process, source=a, target=q.target, kernel=q.kernel) if gap.any() else q


def compose(p: Process, q: Process) -> Process:
    """Run p, then q.  The kernel of the composite is the matrix product."""
    check_composable(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _finite(p.kernel @ q.kernel, "composite kernel")
    return Process(p.source, q.target, kernel, _check=False)


@dataclass(frozen=True)
class Factorization:
    """Selective scaling followed by a row-stochastic redistribution.

    Childless parent types carry zero intermediate mass; they are dropped
    from the redistribution stage (kept, they would break row-stochasticity)
    and listed in ``dropped_types``.
    """

    selective: Process
    environmental: Process
    dropped_types: tuple[str, ...]


def price_factorize(p: Process) -> Factorization:
    fd = fitness(p)
    w = fd.W.values
    support = fd.support
    labels = np.asarray(p.source.types.labels)
    mid_types = TypeSet(labels[support])
    # mu_i W_i is finite where mu.W is; each entry of env_kernel is at most 1
    mid_pop = _population(mid_types, (w * p.source.weights)[support])

    k = len(p.source.types)
    sel_kernel = np.zeros((k, int(support.sum())))
    sel_kernel[np.nonzero(support)[0], np.arange(int(support.sum()))] = w[support]
    env_kernel = p.kernel[support] / w[support, None]
    selective = _built(Process, source=p.source, target=mid_pop, kernel=sel_kernel)
    environmental = _built(Process, source=mid_pop, target=p.target, kernel=env_kernel)

    return Factorization(
        selective=selective,
        environmental=environmental,
        dropped_types=tuple(map(str, labels[~support])),
    )


class Purity(enum.Enum):
    PURELY_SELECTIVE = "purely_selective"
    PURELY_ENVIRONMENTAL = "purely_environmental"
    MIXED = "mixed"


def classify_purity(p: Process) -> Purity:
    """Constant relative fitness means a Markov chain; a diagonal kernel on a
    shared type set means a pure density scaling; anything else is mixed."""
    if fitness(p).equilibrium_class == "purely_environmental":
        return Purity.PURELY_ENVIRONMENTAL
    if p.source.types == p.target.types:
        off_diag = p.kernel - np.diag(np.diag(p.kernel))
        if np.all(np.abs(off_diag) <= EPS_ZERO * max(1.0, float(p.kernel.max()))):
            return Purity.PURELY_SELECTIVE
    return Purity.MIXED
