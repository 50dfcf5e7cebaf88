"""Change operators: average, selective, environmental, aggregate, multi-level.

``price`` is the one route to the two terms of a change: the covariance of a
parent observable with relative fitness (selective change) and the
fitness-weighted mean of local change (environmental change), which add up
to the plain difference of averages.  The aggregate, Fisher and multi-level
splits read its terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EPS_REL, IdentityViolation
from .measure import Observable, covariance, expectation, variance
from .process import (
    Process,
    check_composable,
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


def price(p: Process, x: Observable, y: Observable) -> PriceDecomposition:
    """delta = ns + ec with ns = cov(x, U) (E[x (U - 1)], as U has unit mean) and
    ec = E[(brood average of y - x) U]: the one route to both terms."""
    delta_w = local_change(p, x, y)    # checks x, then y
    u = fitness(p).U
    return PriceDecomposition(
        delta=expectation(p.target, y) - expectation(p.source, x),
        ns=covariance(p.source, x, u),
        ec=expectation(p.source, Observable(p.source.types, delta_w.values * u.values)),
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
    """N wbar times price's terms (W = wbar U), plus the growth term."""
    d = price(p, x, y)
    n = p.source.size
    scale = n * fitness(p).wbar
    growth = (p.target.size - n) * expectation(p.source, x)
    return AggregatePrice(scale * d.ns, scale * d.ec, growth)


def fisher(p: Process, q: Process) -> tuple[float, float]:
    """Selective and environmental change of relative fitness across p.

    The average of U and of U' are both one, so the two terms cancel: the
    environmental change of relative fitness is minus its variance.
    """
    q = check_composable(p, q)
    d = price(p, fitness(p).U, fitness(q).U)
    IdentityViolation.check("fisher", abs(d.ns + d.ec), EPS_REL * max(d.ns, 1.0))
    return d.ns, d.ec


# ---------------------------------------------------------------------------
# Multi-level machinery for a composable pair.

def _conditional_mean(p: Process, y: Observable) -> Observable:
    """E'_w[y](i) = <y>_w(i) U(i): the parent-indexed slice of E'[y]."""
    u = fitness(p).U
    avg = local_average(p, y)
    return Observable(p.source.types, avg.values * u.values)


@dataclass(frozen=True)
class MultiLevelPrice:
    between_group: float      # cov(E'_w[y], E'_w[U'])
    within_group: float       # E[cov_w(y, U')]
    environmental: float      # price(q, y, z).ec = E[E'_w[(<z> - y) U']]
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
    # E[cov_w(y, U')], cov_w = E'_w[y U'] - E'_w[y] E'_w[U']: U-weighted, so the tower rule closes
    m_yu = _conditional_mean(p, Observable(q.source.types, y.values * u_next.values))
    cov_w = Observable(p.source.types, m_yu.values - m_y.values * m_u.values)
    within = expectation(p.source, cov_w)
    # E[E'_w[f]] = E'[f] (the tower rule): q's own terms, read from price
    second = price(q, y, z)
    return MultiLevelPrice(between, within, second.ec, second.delta)


def multilevel_variance(p: Process, q: Process) -> tuple[float, float]:
    """var'(U') split into the variance of the composed relative fitness U2 = U <U'>,
    read from p's broods, plus the mean per-parent conditional variance."""
    q = check_composable(p, q)
    u_next = fitness(q).U
    m_u = _conditional_mean(p, u_next)
    m_uu = _conditional_mean(p, Observable(p.target.types, u_next.values * u_next.values))
    # cov_w(U', U'), as in multilevel_price, with the one average of U' reused
    cond_var = Observable(p.source.types, m_uu.values - m_u.values * m_u.values)
    return variance(p.source, m_u), expectation(p.source, cond_var)
