"""Open processes: child populations with an orphaned component.

The closed stage accounts for the parented children only; orphans enter the
change identity through a covariance against the parented density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EPS_REL, EPS_ZERO
from .measure import Observable, Population, _set, _Value, covariance, expectation, finite_array
from .price import price
from .process import Process, _finite, process


@dataclass(frozen=True)
class OpenProcess:
    closed: Process            # parents -> parented children
    full_target: Population    # all children, orphans included

    def __init__(self, closed: Process, full_target: Population):
        if closed.target.types != full_target.types:
            raise ValueError("full target must share the child type set")
        gap = closed.target.weights - full_target.weights
        if np.any(gap > EPS_REL * max(full_target.size, 1.0)):
            raise ValueError("parented children exceed the full child population")
        _set(self, closed=closed, full_target=full_target)

    @cached_property
    def parented_density(self) -> Observable:
        """pi: the parented fraction of each child type (0 on empty types)."""
        full = self.full_target.weights
        dens = np.zeros_like(full)
        live = full > 0
        dens[live] = self.closed.target.weights[live] / full[live]
        return Observable(self.full_target.types, np.clip(dens, 0.0, 1.0))

    @property
    def orphan_density(self) -> Observable:
        return Observable(
            self.full_target.types, 1.0 - self.parented_density.values
        )

    @property
    def parented_share(self) -> float:
        """p'_pi: parented fraction of the whole child population."""
        return self.closed.target.size / self.full_target.size


def _full_weights(parented: np.ndarray, orphan_weights) -> np.ndarray:
    """The parented child weights plus the orphan increment, one finite and
    nonnegative weight per child type."""
    orphan = finite_array(orphan_weights, "orphan weights")
    if orphan.shape != parented.shape:
        raise ValueError(f"orphan weights must be one per child type, got shape {orphan.shape}")
    if np.any(orphan < 0):
        raise ValueError("orphan weights must be nonnegative")
    with np.errstate(over="ignore"):
        return _finite(parented + orphan, "full child weights")


def open_process(source: Population, kernel, orphan_weights) -> OpenProcess:
    """Build an open process from a kernel image plus an orphan increment."""
    closed = process(source, kernel)
    full = _full_weights(closed.target.weights, orphan_weights)
    return OpenProcess(closed, Population(closed.target.types, full))


@dataclass(frozen=True)
class KgsComponents:
    selective: float
    environmental: float
    orphan_nu: float           # +(1/p'_pi) cov'(y, nu)
    orphan_pi: float           # -(1/p'_pi) cov'(y, pi); equal to orphan_nu
    delta: float
    parented_share: float

    @property
    def total(self) -> float:
        return self.selective + self.environmental + self.orphan_nu

    @property
    def residual(self) -> float:
        return self.delta - self.total


def kgs(p: OpenProcess, x: Observable, y: Observable) -> KgsComponents:
    """Three-term change identity for an open process.

    The first two terms are the closed-stage selective and environmental
    changes; the third is the orphan correction, stated equivalently
    through the orphan density nu or the parented density pi.
    """
    share = p.parented_share
    if share <= EPS_ZERO:
        raise ValueError("all children are orphans: the orphan term is undefined")
    two_term = price(p.closed, x, y)
    nu_term = covariance(p.full_target, y, p.orphan_density) / share
    pi_term = -covariance(p.full_target, y, p.parented_density) / share
    delta = expectation(p.full_target, y) - expectation(p.closed.source, x)
    return KgsComponents(
        selective=two_term.ns,
        environmental=two_term.ec,
        orphan_nu=nu_term,
        orphan_pi=pi_term,
        delta=delta,
        parented_share=share,
    )


@dataclass(frozen=True, eq=False)
class DualFitnessKgs(_Value):
    components: KgsComponents
    dual_fitness: np.ndarray       # column-sum mass of parented children
    dual_mean: float               # should be 1: (1/N'_pi) sum of dual fitness
    orphan_via_dual: float         # third term computed from the dual fitness


def dual_fitness_kgs(p: OpenProcess, x: Observable, y: Observable) -> DualFitnessKgs:
    """Re-derive the orphan term from the child-side (dual) fitness.

    The dual fitness of a child type is the parented mass landing on it:
    the kernel column sums against the parent weights.  Its mean over the
    parented population is one by construction, which is verified.
    """
    comp = kgs(p, x, y)
    closed = p.closed
    dual = closed.kernel.T @ closed.source.weights
    n_parented = closed.target.size
    dual_mean = float(dual.sum()) / n_parented
    orphan_via_dual = (
        -float(y.values @ dual) / n_parented
        + expectation(p.full_target, y)
    )
    return DualFitnessKgs(
        components=comp,
        dual_fitness=dual,
        dual_mean=dual_mean,
        orphan_via_dual=orphan_via_dual,
    )
