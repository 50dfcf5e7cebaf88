"""Machine-checkable reports for the selection-law inequality chains.

Each checker evaluates one law as a chain of values, reports every
intermediate link (so a failure under numerical stress is attributable),
computes sign-normalized slacks, and flags saturated links.

The chain builders work from a plain (values, probabilities) summary of
relative fitness, so the operator versions can reuse them after an
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import EPS_BISECT, EPS_REL, EPS_ROOT, EPS_SAT, EPS_ZERO, IdentityViolation
from .measure import Observable, xlogx
from .process import FitnessSummary, Process, check_composable, fitness, flow_cells, local_average


# ---------------------------------------------------------------------------
# Report container


@dataclass(frozen=True)
class LawReport:
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
    extras: dict = field(default_factory=dict)

    @property
    def chain(self) -> tuple[float, ...]:
        return (self.lhs,) + self.bounds

    # The links below are computed on first read and kept; a report's fields
    # are never reassigned.
    @cached_property
    def slacks(self) -> tuple[float, ...]:
        sign = 1.0 if self.direction == "ge" else -1.0
        c = self.chain
        return tuple(sign * (c[k] - c[k + 1]) for k in range(len(c) - 1))

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


# ---------------------------------------------------------------------------
# Zeroth / First / Second Laws


def zeroth_report(ins: FitnessSummary) -> LawReport:
    """var(U) >= exp(-S_NS) - 1 >= 1/p_* - 1 >= 0."""
    bounds = (float(np.exp(-ins.s_ns) - 1.0), 1.0 / ins.p_star - 1.0, 0.0)
    return LawReport(
        name="zeroth_law",
        lhs=ins.var_u,
        bounds=bounds,
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
        extras={"p_star": ins.p_star, "s_ns": ins.s_ns},
    )


def gibbs_report_from_summary(ins: FitnessSummary) -> LawReport:
    """-log(1 + var(U)) <= S_NS <= log p_* <= 0."""
    return LawReport(
        name="gibbs",
        lhs=ins.s_ns,
        bounds=(float(np.log(ins.p_star)), 0.0),
        direction="le",
        equilibrium_class=ins.equilibrium_class,
        extras={
            "lower_bound": float(-np.log1p(ins.var_u)),
            "lower_slack": float(ins.s_ns + np.log1p(ins.var_u)),
            "var_u": ins.var_u,
        },
    )


def zeroth_law(p: Process) -> LawReport:
    return zeroth_report(fitness(p).summary)


def first_report(ins: FitnessSummary) -> LawReport:
    """Selective change of var(U): cov(U^2,U) >= var(1+var) >= var^2/2 >= 0."""
    lhs = ins.mean(ins.u**2 * (ins.u - 1.0))
    lhs_alt = ins.mean((ins.u + 1.0) * (ins.u - 1.0) ** 2)
    strong = ins.var_u * (1.0 + ins.var_u)
    weak = 0.5 * ins.var_u**2
    return LawReport(
        name="first_law",
        lhs=lhs,
        bounds=(strong, weak, 0.0),
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
        extras={
            "lhs_alt_route": lhs_alt,
            "tighter_bound": "strong" if strong >= weak else "weak",
            "second_moment": ins.moment(2),
            "third_moment": ins.moment(3),
        },
    )


def first_law(p: Process) -> LawReport:
    return first_report(fitness(p).summary)


def higher_order_first_law(p: Process, n: int) -> LawReport:
    """Higher-order selective changes of relative fitness stay nonnegative.

    Even n: E[U (U-1)^n] >= var(U)^n, saturated in selective equilibrium
    (Jensen under the U-weighted measure).  Odd n: the childbearing
    even-power moment E[1_{U>0} (U-1)^(n+1)] >= (1-p_*)^(n+1) / p_*^n.
    The raw moment E[U (U-1)^n] is reported alongside either way.
    """
    if not 1 <= n <= 8:
        raise ValueError("order n must be between 1 and 8")
    ins = fitness(p).summary
    moment = ins.mean(ins.u * (ins.u - 1.0) ** n)
    if n % 2 == 0:
        lhs = moment
        bound = ins.var_u**n
    else:
        lhs = ins.mean(ins.support * (ins.u - 1.0) ** (n + 1))
        bound = (1.0 - ins.p_star) ** (n + 1) / ins.p_star**n
    return LawReport(
        name=f"higher_order_first_law[n={n}]",
        lhs=lhs,
        bounds=(bound, 0.0),
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
        extras={"n": n, "raw_moment": moment},
    )


def exp_first_law(p: Process) -> LawReport:
    """cov(e^U, U) >= (1 - p_*)(e^(1/p_*) - 1) >= 0."""
    ins = fitness(p).summary
    if ins.u.max() > 700.0 or 1.0 / ins.p_star > 700.0:
        raise ValueError("exponential of relative fitness overflows double precision")
    lhs = ins.mean(np.exp(ins.u) * (ins.u - 1.0))
    bound = (1.0 - ins.p_star) * (np.exp(1.0 / ins.p_star) - 1.0)
    return LawReport(
        name="exp_first_law",
        lhs=lhs,
        bounds=(float(bound), 0.0),
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
    )


def second_report(ins: FitnessSummary) -> LawReport:
    """Selective change of selective entropy, bounded through five links."""
    v = ins.var_u
    b1 = -v * np.log1p(v)
    b2 = v * ins.s_ns
    b3 = (np.exp(-ins.s_ns) - 1.0) * ins.s_ns
    b4 = -(1.0 / ins.p_star - 1.0) * np.log(1.0 / ins.p_star)
    return LawReport(
        name="second_law",
        lhs=ins.ns_s_ns,
        bounds=(float(b1), float(b2), float(b3), float(b4), 0.0),
        direction="le",
        equilibrium_class=ins.equilibrium_class,
        extras={"s_ns": ins.s_ns, "var_u": v},
    )


def second_law(p: Process) -> LawReport:
    return second_report(fitness(p).summary)


# ---------------------------------------------------------------------------
# Speed limits and acceleration


DEFAULT_SPEED_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)


def _gap_from_moments(c: float, m1c: float, m2c: float, m2: float) -> float:
    # log of E[U^(1+c)]^c / (E[U^2]^(c-1) E[U^(2+c)]); a root is a stationary
    # point of the basic-bound exponent in c.
    if not (np.isfinite(m1c) and np.isfinite(m2c)):
        return float("nan")
    return float(c * np.log(m1c) - (c - 1.0) * np.log(m2) - np.log(m2c))


def _speed_stationarity_gap(ins: FitnessSummary, c: float) -> float:
    with np.errstate(over="ignore"):
        m1c = ins.moment(1.0 + c)
        m2c = ins.moment(2.0 + c)
    return _gap_from_moments(c, m1c, m2c, ins.moment(2.0))


def speed_limits(p: Process) -> LawReport:
    """Lower bounds on the selective change of selective entropy.

    The basic bound optimizes a moment-ratio exponent over the grid
    DEFAULT_SPEED_GRID plus E[U^2] (>= 1, as E[U] = 1); the infinitary bound
    is its c -> 0 limit.  A stationary point of the exponent is solved by
    bisection only when the grid brackets a sign change of the stationarity
    gap; otherwise none is reported.
    """
    ins = fitness(p).summary
    u = ins.u
    m2 = ins.moment(2.0)
    c_grid = sorted(set(DEFAULT_SPEED_GRID) | {round(m2, 12)})

    log_inv_pstar = np.log(1.0 / ins.p_star)

    # E[U^(1+c)] and E[U^(2+c)] over the grid: one array power, one dot per
    # row (a single matrix-vector product would round differently).
    cs = np.array(c_grid)
    with np.errstate(over="ignore"):
        powers = u ** np.concatenate([1.0 + cs, 2.0 + cs])[:, None]
        m1c, m2c = np.array([ins.prob @ row for row in powers]).reshape(2, -1)
    m1c[cs == 1.0] = m2  # E[U^2] as ins.moment squares it, not through pow

    # a diverging moment makes the bound vacuous at this exponent
    best_bracket = max(-(m2 / c) * np.log(m / m2) if np.isfinite(m) else -np.inf
                       for c, m in zip(c_grid, m2c))
    basic = log_inv_pstar + best_bracket if np.isfinite(best_bracket) else None
    infinitary = log_inv_pstar - ins.u2_log_u

    gaps = [_gap_from_moments(c, a, b, m2) for c, a, b in zip(c_grid, m1c, m2c)]
    c_star = None
    for k, (a, b) in enumerate(zip(c_grid, c_grid[1:])):
        ga, gb = gaps[k], gaps[k + 1]
        if not (np.isfinite(ga) and np.isfinite(gb)):
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
                if _speed_stationarity_gap(ins, mid) * ga <= 0:
                    hi = mid
                else:
                    lo = mid
            c_star = 0.5 * (lo + hi)
            break

    finite_bounds = [float(infinitary)] if basic is None else [float(basic), float(infinitary)]
    return LawReport(
        name="speed_limits",
        lhs=ins.ns_s_ns,
        bounds=tuple(sorted(finite_bounds, reverse=True)),
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
        extras={
            "basic_bound": None if basic is None else float(basic),
            "infinitary_bound": float(infinitary),
            "grid": tuple(c_grid),
            "stationary_point": c_star,
            "stationary_point_found": c_star is not None,
        },
    )


def acceleration_report(ins: FitnessSummary, with_lower: bool = True) -> LawReport:
    """Second selective change of selective entropy, E[-(U-1)^2 U log U].

    Upper bound -m log(m / var) with m = E[(U-1)^2 U] (one concavity step
    under the (U-1)^2-weighted measure; relaxing m to var^2 afterwards is
    not sound for small variance, so the unrelaxed form is the bound).
    Lower bound m log(m / (var(U^2) + var^2)).  Both collapse to 0 in the
    purely environmental case, which is reported directly.
    """
    u = ins.u
    lhs = ins.mean(-((u - 1.0) ** 2) * ins.u_log_u)
    if ins.var_u <= EPS_ZERO:
        return LawReport(
            name="selective_acceleration",
            lhs=lhs,
            bounds=(0.0,),
            direction="le",
            equilibrium_class=ins.equilibrium_class,
            extras={"lower_bound": 0.0, "lower_slack": lhs, "trivial": True},
        )
    m = ins.mean(u * (u - 1.0) ** 2)
    upper = -m * np.log(m / ins.var_u) if m > 0 else 0.0
    extras: dict = {
        "trivial": False,
        "moment_m": float(m),
        # The relaxed var-only expression; not a valid bound in general.
        "var_log_form": float(-0.5 * ins.var_u**2 * np.log(ins.var_u**2)),
    }
    if with_lower:
        var_u2 = ins.moment(4.0) - ins.moment(2.0) ** 2
        lower = m * np.log(m / (var_u2 + ins.var_u**2)) if m > 0 else 0.0
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
        equilibrium_class=ins.equilibrium_class,
        extras=extras,
    )


def selective_acceleration(p: Process) -> LawReport:
    return acceleration_report(fitness(p).summary)


# ---------------------------------------------------------------------------
# Environmental-change bounds for a composable pair


def ec_variance_bound(p: Process, q: Process) -> LawReport:
    """Lower bound for the environmental change of relative-fitness variance."""
    check_composable(p, q)
    ins = fitness(p).summary
    u_next = fitness(q).U
    m3 = ins.moment(3.0)
    avg_sq = local_average(p, Observable(q.source.types, u_next.values**2)).values
    lhs = ins.mean((avg_sq - ins.u**2) * ins.u)
    # E[U^3 Rbar] written as E[U^2 <U'>] so childless rows contribute zero.
    a = ins.mean(ins.u**2 * local_average(p, u_next).values)
    bound = (a - m3) * (a + m3) / m3
    return LawReport(
        name="ec_variance_bound",
        lhs=lhs,
        bounds=(float(bound),),
        direction="ge",
        equilibrium_class=ins.equilibrium_class,
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
    check_composable(p, q)
    ins = fitness(p).summary
    m2, m3 = ins.moment(2.0), ins.moment(3.0)
    u_next = fitness(q).U
    ent_next = Observable(q.source.types, -xlogx(u_next.values))
    carried = local_average(p, ent_next).values
    lhs = ins.mean((carried + ins.u_log_u) * ins.u)
    return LawReport(
        name="ec_selective_entropy_bound",
        lhs=lhs,
        bounds=(ins.u2_log_u,),
        direction="le",
        equilibrium_class=ins.equilibrium_class,
        extras={
            "strongly_stationary": _strongly_stationary(p, q)[0],
            "log_moment_bound": float(np.log(m2) + np.log(m3)),
        },
    )


def multilevel_second_law(p: Process, q: Process) -> LawReport:
    """Second law for the second stage, with the variance bound re-derived
    from the two-level variance split; both routes must agree."""
    from .price import multilevel_variance

    check_composable(p, q)
    ins_q = fitness(q).summary
    direct = -ins_q.var_u * np.log1p(ins_q.var_u)
    var_u2, mean_cond = multilevel_variance(p, q)
    split = var_u2 + mean_cond
    via_split = -split * np.log1p(split)
    IdentityViolation.check("multilevel_variance_routes", abs(direct - via_split),
                            EPS_REL * max(1.0, abs(direct)))
    return LawReport(
        name="multilevel_second_law",
        lhs=ins_q.ns_s_ns,
        bounds=(float(direct), 0.0),
        direction="le",
        equilibrium_class=ins_q.equilibrium_class,
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
    check_composable(p, q)
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
