"""Change operators: average, selective, environmental, aggregate, multi-level.

Everything here reduces to three ingredients: the covariance of a parent
observable with relative fitness (selective change), the fitness-weighted
mean of local change (environmental change), and the plain difference of
averages they must add up to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EPS_REL, IdentityViolation
from .measure import Observable, covariance, expectation, variance
from .process import (
    Process,
    check_composable,
    compose,
    fitness,
    local_average,
    local_change,
)


@dataclass(frozen=True)
class PriceDecomposition:
    delta: float
    ns: float
    ec: float

    @property
    def residual(self) -> float:
        return self.delta - (self.ns + self.ec)

    def check(self) -> bool:
        scale = max(abs(self.delta), abs(self.ns), abs(self.ec), 1.0)
        return abs(self.residual) <= EPS_REL * scale


def selective_change(p: Process, x: Observable) -> float:
    """cov(x, U); equals E[x (U - 1)] because U has unit mean."""
    return covariance(p.source, x, fitness(p).U)


def environmental_change(p: Process, x: Observable, y: Observable) -> float:
    """E[(brood average of y - x) U]."""
    u = fitness(p).U
    delta_w = local_change(p, x, y)
    return expectation(
        p.source, Observable(p.source.types, delta_w.values * u.values)
    )


def price(p: Process, x: Observable, y: Observable) -> PriceDecomposition:
    if x.types != p.source.types:
        raise ValueError("x must live on the source type set")
    if y.types != p.target.types:
        raise ValueError("y must live on the target type set")
    delta = expectation(p.target, y) - expectation(p.source, x)
    return PriceDecomposition(
        delta=delta,
        ns=selective_change(p, x),
        ec=environmental_change(p, x, y),
    )


@dataclass(frozen=True)
class AggregatePrice:
    """Unnormalized three-term split of the aggregate change mu'[y] - mu[x]."""

    selection_term: float
    environment_term: float
    growth_term: float

    @property
    def total(self) -> float:
        return self.selection_term + self.environment_term + self.growth_term


def aggregate_price(p: Process, x: Observable, y: Observable) -> AggregatePrice:
    fd = fitness(p)
    n = p.source.size
    sel = n * covariance(p.source, x, fd.W)
    delta_w = local_change(p, x, y)
    env = n * expectation(
        p.source, Observable(p.source.types, delta_w.values * fd.W.values)
    )
    growth = (p.target.size - n) * expectation(p.source, x)
    return AggregatePrice(sel, env, growth)


def fisher(p: Process, q: Process) -> tuple[float, float]:
    """Selective and environmental change of relative fitness across p.

    The average of U and of U' are both one, so the two terms cancel: the
    environmental change of relative fitness is minus its variance.
    """
    q = check_composable(p, q)
    u = fitness(p).U
    u_next = fitness(q).U
    ns = variance(p.source, u)
    ec = environmental_change(p, u, u_next)
    IdentityViolation.check("fisher", abs(ns + ec), EPS_REL * max(ns, 1.0))
    return ns, ec


# ---------------------------------------------------------------------------
# Multi-level machinery for a composable pair.

def _conditional_mean(p: Process, y: Observable) -> Observable:
    """E'_w[y](i) = <y>_w(i) U(i): the parent-indexed slice of E'[y]."""
    u = fitness(p).U
    avg = local_average(p, y)
    return Observable(p.source.types, avg.values * u.values)


def _conditional_cov(p: Process, y: Observable, z: Observable) -> Observable:
    """U-weighted per-parent covariance E'_w[yz] - E'_w[y] E'_w[z].

    The U weighting is what makes the tower identity close; this is not the
    plain per-row covariance.
    """
    yz = Observable(p.target.types, y.values * z.values)
    m_yz = _conditional_mean(p, yz)
    m_y = _conditional_mean(p, y)
    m_z = _conditional_mean(p, z)
    return Observable(p.source.types, m_yz.values - m_y.values * m_z.values)


@dataclass(frozen=True)
class MultiLevelPrice:
    between_group: float      # cov(E'_w[y], E'_w[U'])
    within_group: float       # E[cov_w(y, U')]
    environmental: float      # E[E'_w[local change of (y -> z) times U']]
    delta: float

    @property
    def total(self) -> float:
        return self.between_group + self.within_group + self.environmental


def multilevel_price(p: Process, q: Process, y: Observable, z: Observable) -> MultiLevelPrice:
    """Split the second-stage change of y into group-level and residual terms."""
    q = check_composable(p, q)
    if y.types != q.source.types:
        raise ValueError("y must live on the intermediate type set")
    if z.types != q.target.types:
        raise ValueError("z must live on the final type set")
    u_next = fitness(q).U
    m_y = _conditional_mean(p, y)
    m_u = _conditional_mean(p, u_next)
    between = covariance(p.source, m_y, m_u)
    within = expectation(p.source, _conditional_cov(p, y, u_next))
    dw = local_change(q, y, z)
    carried = Observable(q.source.types, dw.values * u_next.values)
    env = expectation(p.source, _conditional_mean(p, carried))
    delta = expectation(q.target, z) - expectation(q.source, y)
    return MultiLevelPrice(between, within, env, delta)


def multilevel_variance(p: Process, q: Process) -> tuple[float, float]:
    """var'(U') split into the variance of composed fitness plus the mean
    per-parent conditional variance."""
    q = check_composable(p, q)
    u2 = fitness(compose(p, q)).U
    var_u2 = variance(p.source, u2)
    u_next = fitness(q).U
    cond_var = _conditional_cov(p, u_next, u_next)
    mean_cond = expectation(p.source, cond_var)
    return var_u2, mean_cond
