"""Machine-checkable reports for the selection-law inequality chains.

Each checker evaluates one law as a chain of values, reports every
intermediate link (so a failure under numerical stress is attributable),
computes sign-normalized slacks, and flags saturated links.

Each single-process chain is one function of a kernel ``Process`` or a
``QuantumProcess``: it reads the fitness record ``fitness(p)``, whose ``u``
and ``prob`` are the distribution of U; for an operator process that is U's
spectrum weighted by the source state.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .config import EPS_BISECT, EPS_REL, EPS_ROOT, EPS_SAT, EPS_ZERO, IdentityViolation
from .measure import Observable, _Frozen, _set
from .price import multilevel_variance, price
from .process import FitnessData, Process, check_composable, fitness, flow_cells, local_average


# ---------------------------------------------------------------------------
# Report container


@dataclass(frozen=True)
class LawReport(_Frozen):
    """One inequality chain: lhs, then bounds ordered tightest to loosest.

    direction "ge" means lhs >= bounds[0] >= bounds[1] >= ...; "le" the
    reverse.  slacks[k] >= 0 means link k holds; saturated[k] marks links
    that hold with equality to within EPS_SAT.
    """

    name: str
    lhs: float
    bounds: tuple[float, ...]
    direction: str
    equilibrium_class: str
    extras: Mapping = field(default_factory=dict)

    def __post_init__(self):
        # Reports may be kept and handed to every caller: extras are read-only.
        _set(self, extras=MappingProxyType(dict(self.extras)))

    @property
    def chain(self) -> tuple[float, ...]:
        return (self.lhs,) + self.bounds

    # The links below are computed on first read and kept; a report's fields
    # are never reassigned.
    @cached_property
    def slacks(self) -> tuple[float, ...]:
        return _slacks(self.chain, self.direction)

    @cached_property
    def _link_scales(self) -> tuple[float, ...]:
        # Comparisons are relative once chain values leave the unit scale;
        # a last-ulp gap between 1e9-sized values is still saturation.
        c = self.chain
        return tuple(max(1.0, abs(c[k]), abs(c[k + 1])) for k in range(len(c) - 1))

    @cached_property
    def saturated(self) -> tuple[bool, ...]:
        return tuple(
            abs(s) <= EPS_SAT * scale
            for s, scale in zip(self.slacks, self._link_scales)
        )

    @cached_property
    def satisfied(self) -> bool:
        return all(
            s >= -EPS_SAT * scale
            for s, scale in zip(self.slacks, self._link_scales)
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "bounds": list(self.bounds),
            "direction": self.direction,
            "slacks": list(self.slacks),
            "saturated": list(self.saturated),
            "satisfied": self.satisfied,
            "equilibrium_class": self.equilibrium_class,
            "extras": {
                k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
                for k, v in self.extras.items()
            },
        }


def _slacks(chain, direction: str) -> tuple:
    """Each link's slack, >= 0 where it holds, over the chain values' leading axis if any."""
    sign = 1.0 if direction == "ge" else -1.0
    return tuple(sign * (chain[k] - chain[k + 1]) for k in range(len(chain) - 1))


# ---------------------------------------------------------------------------
# Zeroth / First / Second Laws


def zeroth_law(p: Process) -> LawReport:
    """var(U) >= exp(-S_NS) - 1 >= 1/p_* - 1 >= 0."""
    fd = fitness(p)
    bounds = (float(np.exp(-fd.s_ns) - 1.0), 1.0 / fd.p_star - 1.0, 0.0)
    return LawReport(
        name="zeroth_law",
        lhs=fd.var_u,
        bounds=bounds,
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={"p_star": fd.p_star, "s_ns": fd.s_ns},
    )


def gibbs_report(p: Process) -> LawReport:
    """-log(1 + var(U)) <= S_NS <= log p_* <= 0."""
    fd = fitness(p)
    return LawReport(
        name="gibbs",
        lhs=fd.s_ns,
        bounds=(float(np.log(fd.p_star)), 0.0),
        direction="le",
        equilibrium_class=fd.equilibrium_class,
        extras={
            "lower_bound": float(-np.log1p(fd.var_u)),
            "lower_slack": float(fd.s_ns + np.log1p(fd.var_u)),
            "var_u": fd.var_u,
        },
    )


def first_law(p: Process) -> LawReport:
    """Selective change of var(U): cov(U^2,U) >= var(1+var) >= var^2/2 >= 0."""
    fd = fitness(p)
    lhs = fd.mean(fd.u**2 * (fd.u - 1.0))
    lhs_alt = fd.mean((fd.u + 1.0) * (fd.u - 1.0) ** 2)
    strong = fd.var_u * (1.0 + fd.var_u)
    weak = 0.5 * fd.var_u**2
    return LawReport(
        name="first_law",
        lhs=lhs,
        bounds=(strong, weak, 0.0),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={
            "lhs_alt_route": lhs_alt,
            "tighter_bound": "strong" if strong >= weak else "weak",
            "second_moment": fd.moment(2),
            "third_moment": fd.moment(3),
        },
    )


def higher_order_first_law(p: Process, n: int) -> LawReport:
    """Higher-order selective changes of relative fitness stay nonnegative.

    Even n: E[U (U-1)^n] >= var(U)^n, saturated in selective equilibrium
    (Jensen under the U-weighted measure).  Odd n: the childbearing
    even-power moment E[1_{U>0} (U-1)^(n+1)] >= (1-p_*)^(n+1) / p_*^n.
    The raw moment E[U (U-1)^n] is reported alongside either way.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 8:
        raise ValueError(f"order n must be an int between 1 and 8, got {n!r}")
    fd = fitness(p)
    moment = fd.mean(fd.u * (fd.u - 1.0) ** n)
    if n % 2 == 0:
        lhs = moment
        bound = fd.var_u**n
    else:
        lhs = fd.mean(fd.support * (fd.u - 1.0) ** (n + 1))
        bound = (1.0 - fd.p_star) ** (n + 1) / fd.p_star**n
    return LawReport(
        name=f"higher_order_first_law[n={n}]",
        lhs=lhs,
        bounds=(bound, 0.0),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={"n": n, "raw_moment": moment},
    )


def exp_first_law(p: Process) -> LawReport:
    """cov(e^U, U) >= (1 - p_*)(e^(1/p_*) - 1) >= 0."""
    fd = fitness(p)
    if fd.u.max() > 700.0 or 1.0 / fd.p_star > 700.0:
        raise ValueError("exponential of relative fitness overflows double precision")
    lhs = fd.mean(np.exp(fd.u) * (fd.u - 1.0))
    bound = (1.0 - fd.p_star) * (np.exp(1.0 / fd.p_star) - 1.0)
    return LawReport(
        name="exp_first_law",
        lhs=lhs,
        bounds=(float(bound), 0.0),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
    )


def _b1(v):
    """The Second Law's first link -v log(1 + v) at variance v."""
    return -v * np.log1p(v)


def _second_law_bounds(fd: FitnessData) -> tuple:
    """The Second Law's links b1 .. b4 below its lhs, each over fd's leading axis."""
    inv_p = 1.0 / fd.p_star
    return (_b1(fd.var_u), fd.var_u * fd.s_ns, (np.exp(-fd.s_ns) - 1.0) * fd.s_ns,
            -(inv_p - 1.0) * np.log(inv_p))


def second_law(p: Process) -> LawReport:
    """Selective change of selective entropy, bounded through five links."""
    fd = fitness(p)
    return LawReport(
        name="second_law",
        lhs=fd.ns_s_ns,
        bounds=(*map(float, _second_law_bounds(fd)), 0.0),
        direction="le",
        equilibrium_class=fd.equilibrium_class,
        extras={"s_ns": fd.s_ns, "var_u": fd.var_u},
    )


# ---------------------------------------------------------------------------
# Speed limits and acceleration


DEFAULT_SPEED_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)


def _speed_grid(m2: float) -> tuple[float, ...]:
    """The exponents c of the speed limits at E[U^2] = m2; round(m2, 12) may repeat one."""
    return (*DEFAULT_SPEED_GRID, round(m2, 12))


def _speed_bounds(fd: FitnessData, m2, c, m2c) -> tuple:
    """The basic bound (-inf if vacuous) and the infinitary bound, then the two tightest
    first, from m2 = E[U^2] and m2c = E[U^(2+c)] at the exponents c on the last axis."""
    # a diverging moment makes the bound vacuous at this exponent
    bracket = np.where(np.isfinite(m2c), -(m2 / c) * np.log(m2c / m2), -np.inf).max(axis=-1)
    log_inv_pstar = np.log(1.0 / fd.p_star)
    basic = np.where(np.isfinite(bracket), log_inv_pstar + bracket, -np.inf)
    infinitary = log_inv_pstar - fd.u2_log_u
    # sorted([basic, infinitary], reverse=True), stable, with a vacuous basic bound last
    swap = (infinitary > basic) | (basic == -np.inf)
    return basic, infinitary, np.where(swap, infinitary, basic), np.where(swap, basic, infinitary)


def speed_limits(p: Process) -> LawReport:
    """Lower bounds on the selective change of selective entropy.

    The basic bound optimizes a moment-ratio exponent over the grid
    DEFAULT_SPEED_GRID plus E[U^2] (>= 1, as E[U] = 1); the infinitary bound
    is its c -> 0 limit.  A stationary point of the exponent is solved by
    bisection only when the grid brackets a sign change of the stationarity
    gap; otherwise none is reported.
    """
    fd = fitness(p)
    m2 = fd.moment(2.0)
    c_grid = sorted(set(_speed_grid(m2)))
    log_m2 = np.log(m2)

    def gaps(cs: list[float]) -> tuple[list[float], np.ndarray]:
        # log of E[U^(1+c)]^c / (E[U^2]^(c-1) E[U^(2+c)]), whose root is a
        # stationary point of the basic-bound exponent in c (NaN where either
        # moment diverges), and E[U^(2+c)], at each c in cs; a type of probability 0
        # whose power overflows gives 0 * inf = NaN, which isfinite reads as diverging too
        with np.errstate(over="ignore", invalid="ignore"):
            m1c, m2c = np.array([[fd.moment(1.0 + c), fd.moment(2.0 + c)] for c in cs]).T
        c = np.array(cs)
        ok = np.isfinite(m1c) & np.isfinite(m2c)
        gap = (c * np.log(np.where(ok, m1c, 1.0)) - (c - 1.0) * log_m2
               - np.log(np.where(ok, m2c, 1.0)))
        return np.where(ok, gap, np.nan).tolist(), m2c

    grid_gaps, m2c = gaps(c_grid)
    basic, infinitary, tight, loose = _speed_bounds(fd, m2, np.array(c_grid), m2c)

    c_star = None
    for k, (a, b) in enumerate(zip(c_grid, c_grid[1:])):
        ga, gb = grid_gaps[k], grid_gaps[k + 1]
        if not (math.isfinite(ga) and math.isfinite(gb)):
            continue
        if abs(ga) <= EPS_ROOT:
            c_star = a
            break
        if abs(gb) <= EPS_ROOT:
            c_star = b
            break
        if ga * gb < 0:
            lo, hi = a, b
            while hi - lo > EPS_BISECT:
                mid = 0.5 * (lo + hi)
                if gaps([mid])[0][0] * ga <= 0:
                    hi = mid
                else:
                    lo = mid
            c_star = 0.5 * (lo + hi)
            break

    vacuous = basic == -np.inf
    return LawReport(
        name="speed_limits",
        lhs=fd.ns_s_ns,
        bounds=(float(tight),) if vacuous else (float(tight), float(loose)),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={
            "basic_bound": None if vacuous else float(basic),
            "infinitary_bound": float(infinitary),
            "grid": tuple(c_grid),
            "stationary_point": c_star,
            "stationary_point_found": c_star is not None,
        },
    )


def least_slacks(fd: FitnessData) -> tuple[list, list]:
    """min(second_law(p).slacks) and min(speed_limits(p).slacks) for each process
    p of a stacked fitness record (``trajectory``), with no report built."""
    m2 = fd.moment(2.0)
    # one grid per row; a repeated point leaves the best bracket as it is
    c = np.array([_speed_grid(m) for m in m2.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):    # as in speed_limits
        m2c = np.stack([fd.moment(2.0 + col[:, None]) for col in c.T], axis=-1)
    *_, tight, loose = _speed_bounds(fd, m2[:, None], c, m2c)
    return (list(map(min, zip(*_slacks((fd.ns_s_ns, *_second_law_bounds(fd), 0.0), "le")))),
            list(map(min, zip(*_slacks((fd.ns_s_ns, tight, loose), "ge")))))


def selective_acceleration(p: Process, *, with_lower: bool = True) -> LawReport:
    """Second selective change of selective entropy, E[-(U-1)^2 U log U].

    Upper bound -m log(m / var) with m = E[(U-1)^2 U] (one concavity step
    under the (U-1)^2-weighted measure; relaxing m to var^2 afterwards is
    not sound for small variance, so the unrelaxed form is the bound).
    Lower bound m log(m / (var(U^2) + var^2)).  Both collapse to 0 in the
    purely environmental case, which is reported directly.
    """
    fd = fitness(p)
    u = fd.u
    lhs = fd.mean(-((u - 1.0) ** 2) * fd.u_log_u)
    if fd.var_u <= EPS_ZERO:
        return LawReport(
            name="selective_acceleration",
            lhs=lhs,
            bounds=(0.0,),
            direction="le",
            equilibrium_class=fd.equilibrium_class,
            extras={"lower_bound": 0.0, "lower_slack": lhs, "trivial": True},
        )
    m = fd.mean(u * (u - 1.0) ** 2)
    upper = -m * np.log(m / fd.var_u) if m > 0 else 0.0
    extras: dict = {
        "trivial": False,
        "moment_m": float(m),
        # The relaxed var-only expression; not a valid bound in general.
        "var_log_form": float(-0.5 * fd.var_u**2 * np.log(fd.var_u**2)),
    }
    if with_lower:
        var_u2 = fd.moment(4.0) - fd.moment(2.0) ** 2
        lower = m * np.log(m / (var_u2 + fd.var_u**2)) if m > 0 else 0.0
        extras.update(
            lower_bound=float(lower),
            lower_slack=float(lhs - lower),
            var_u_squared_obs=float(var_u2),
        )
    return LawReport(
        name="selective_acceleration",
        lhs=lhs,
        bounds=(float(upper),),
        direction="le",
        equilibrium_class=fd.equilibrium_class,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Environmental-change bounds for a composable pair


def ec_variance_bound(p: Process, q: Process) -> LawReport:
    """Lower bound for the environmental change of relative-fitness variance."""
    q = check_composable(p, q)
    fd = fitness(p)
    u, u_next = fitness(p).U, fitness(q).U
    m3 = fd.moment(3.0)
    lhs = price(p, Observable(u.types, u.values**2),
                Observable(u_next.types, u_next.values**2)).ec
    # E[U^3 Rbar] written as E[U^2 <U'>] so childless rows contribute zero.
    a = fd.mean(fd.u**2 * local_average(p, u_next).values)
    bound = (a - m3) * (a + m3) / m3
    return LawReport(
        name="ec_variance_bound",
        lhs=lhs,
        bounds=(float(bound),),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={"strongly_stationary": _strongly_stationary(p, q)[0], "third_moment": m3},
    )


def ec_selective_entropy_bound(p: Process, q: Process) -> LawReport:
    """Upper bound for the environmental change of selective entropy.

    The change equals S_NS' + E[U^2 log U] identically, and the first term
    is never positive, so E[U^2 log U] is a sound first-stage-only bound,
    saturated whenever the continuation has constant relative fitness (in
    particular for strongly stationary pairs).  The looser moment-log sum
    log E[U^2] + log E[U^3] is reported alongside; it can be exceeded.
    """
    q = check_composable(p, q)
    fd = fitness(p)
    m2, m3 = fd.moment(2.0), fd.moment(3.0)
    lhs = price(p, Observable(p.source.types, -fd.u_log_u),
                Observable(q.source.types, -fitness(q).u_log_u)).ec
    return LawReport(
        name="ec_selective_entropy_bound",
        lhs=lhs,
        bounds=(fd.u2_log_u,),
        direction="le",
        equilibrium_class=fd.equilibrium_class,
        extras={
            "strongly_stationary": _strongly_stationary(p, q)[0],
            "log_moment_bound": float(np.log(m2) + np.log(m3)),
        },
    )


def multilevel_second_law(p: Process, q: Process) -> LawReport:
    """Second law for the second stage, with the variance bound re-derived
    from the two-level variance split; both routes must agree."""
    q = check_composable(p, q)
    fd_q = fitness(q)
    var_u2, mean_cond = multilevel_variance(p, q)
    direct, via_split = _b1(fd_q.var_u), _b1(var_u2 + mean_cond)
    IdentityViolation.check("multilevel_variance_routes", abs(direct - via_split),
                            EPS_REL * max(1.0, abs(direct)))
    return LawReport(
        name="multilevel_second_law",
        lhs=fd_q.ns_s_ns,
        bounds=(float(direct), 0.0),
        direction="le",
        equilibrium_class=fd_q.equilibrium_class,
        extras={
            "bound_via_split": float(via_split),
            "var_composed": float(var_u2),
            "mean_conditional_var": float(mean_cond),
        },
    )


# ---------------------------------------------------------------------------
# Stationarity of a composable pair


@dataclass(frozen=True)
class StationarityClass:
    strong: bool
    weak: bool
    locally_homogeneous: bool
    locally_constant: bool


def _strongly_stationary(p: Process, q: Process,
                         tol: float = EPS_SAT) -> tuple[bool, np.ndarray]:
    """Whether U' of every child equals U of each parent feeding it, and the mask
    of cells that carry flow (``flow_cells``) it read; the pair must compose."""
    cells = flow_cells(p) > 0
    ii, jj = np.nonzero(cells)
    return bool(np.all(np.abs(fitness(q).U.values[jj] - fitness(p).U.values[ii]) <= tol)), cells


def stationarity(p: Process, q: Process, tol: float = EPS_SAT) -> StationarityClass:
    """Classify the joint pair through the child/parent fitness ratio.

    All conditions are read off the cells that carry flow (``flow_cells``).
    """
    q = check_composable(p, q)
    u = fitness(p).U.values
    u_next = fitness(q).U
    strong, cells = _strongly_stationary(p, q, tol)
    ii, jj = np.nonzero(cells)
    ratios = u_next.values[jj] / u[ii]
    homogeneous = bool(ratios.max() - ratios.min() <= tol * max(1.0, abs(ratios.max())))

    live = cells.any(axis=1)
    rbar = local_average(p, u_next).values[live]
    weak = not np.any(np.abs(rbar / u[live] - 1.0) > tol)
    v_max = np.where(cells, u_next.values, -np.inf).max(axis=1)[live]
    v_min = np.where(cells, u_next.values, np.inf).min(axis=1)[live]
    constant = not np.any(v_max - v_min > tol * np.maximum(1.0, np.abs(v_max)))
    return StationarityClass(
        strong=strong,
        weak=weak,
        locally_homogeneous=homogeneous,
        locally_constant=constant,
    )


def standard_reports(p: Process) -> list[LawReport]:
    """The single-process law suite in a fixed order."""
    return [
        zeroth_law(p),
        first_law(p),
        second_law(p),
        speed_limits(p),
        selective_acceleration(p),
    ]
