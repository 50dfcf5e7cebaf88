"""Entropy functionals of a process and the structure they certify.

Selective entropy is the (negated) relative entropy of relative fitness;
it is zero exactly for constant-fitness processes.  Environmental entropy
is the one-step partition entropy of the redistribution stage; for finite
discrete processes the singleton joint partition realizes it, and it splits
exactly into a dispersion part (one parent feeding many children) and a
mixing part.  Vanishing of per-parent / per-child conditional entropies of
the mass flow certifies one-sided invertibility of the redistribution stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .config import EPS_INVERSE, EPS_SAT, EPS_ZERO
from .laws import LawReport, gibbs_report_from_summary
from .measure import Population, TypeSet, xlogx
from .process import (FitnessSummary, Process, check_composable, fitness, flow_cells,
                      flow_shares, price_factorize)


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of labels covering a type set."""

    types: TypeSet
    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, types: TypeSet, blocks):
        blocks = tuple(tuple(str(c) for c in block) for block in blocks)
        seen: list[str] = []
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            seen.extend(block)
        if sorted(seen) != sorted(types.labels):
            raise ValueError("blocks must cover the type set disjointly")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def singletons(types: TypeSet) -> "Partition":
        return Partition(types, tuple((c,) for c in types.labels))

    def block_index(self) -> np.ndarray:
        """Block number of each type, in type-set order."""
        idx = {c: b for b, block in enumerate(self.blocks) for c in block}
        return np.array([idx[c] for c in self.types.labels], dtype=int)

    def indicator(self) -> np.ndarray:
        """Type-by-block 0/1 matrix."""
        return np.eye(len(self.blocks))[self.block_index()]


# ---------------------------------------------------------------------------
# Selective entropy


def selective_entropy(p: Process) -> float:
    """Mean of -U log U; nonpositive, zero only for constant fitness."""
    return fitness(p).summary.s_ns


def gibbs_report(p: Process) -> LawReport:
    """-log(1 + var(U)) <= S_NS <= log p_* <= 0."""
    return gibbs_report_from_summary(fitness(p).summary)


def local_selective_entropy(p: Process, block_a, block_b,
                            renormalized: bool = False) -> float:
    """Cell share of selective entropy.

    The default form E[-U_{A,B} log U] sums to the selective entropy over
    any joint partition, but an individual cell can be positive wherever
    U < 1 (the full-space cell is the nonpositive total).  With
    ``renormalized=True`` the cell fitness is rescaled to unit mean before
    the entropy is taken, which is nonpositive for every cell but gives up
    additivity.
    """
    fd = fitness(p)
    idx = {c: k for k, c in enumerate(p.source.types.labels)}
    jdx = {c: k for k, c in enumerate(p.target.types.labels)}
    rows = np.array([idx[c] for c in block_a], dtype=int)
    cols = np.array([jdx[c] for c in block_b], dtype=int)
    w_ab = p.kernel[np.ix_(rows, cols)].sum(axis=1)
    mu = p.source.weights[rows]
    if renormalized:
        mean_cell = float(w_ab @ mu) / p.source.size
        if mean_cell / fd.wbar <= EPS_ZERO:
            return 0.0
        u_hat = np.zeros(len(p.source.weights))
        u_hat[rows] = w_ab / mean_cell
        return float((p.source.weights @ (-xlogx(u_hat))) / p.source.size)
    u = fd.U.values[rows]
    pos = fd.support[rows]
    contrib = -(w_ab[pos] / fd.wbar) * np.log(u[pos]) * mu[pos]
    return float(contrib.sum()) / p.source.size


# ---------------------------------------------------------------------------
# Environmental profile


@dataclass(frozen=True)
class CellStats:
    u_bar: float
    s_ec: float
    s_dis: float
    s_mix: float
    p_tilde: float
    phi: float
    lam: float
    gamma: float
    mean_d2: float           # E[U D^2 1_cell], the intermediate mean of D^2
    cov_ec: float            # cov(-U_cell log u_bar, U)
    cov_dis: float           # cov(-U_cell log D, U)
    cov_mix: float           # cov(U_cell log(D / u_bar), U)


CELL_FIELDS = tuple(f.name for f in fields(CellStats))


@dataclass(frozen=True, eq=False)
class CellArrays:
    """Every CellStats field of every cell, as (source cell, target cell) arrays.

    Row a and column b belong to the cells labelled keys_a[a] and
    keys_b[b].  ``support`` and ``d`` are indexed by (parent, target cell):
    the parents whose flow share into the cell and whose relative fitness
    clear EPS_ZERO, and their dispersion coefficients W_iB / W_i (0 off the
    support).  Projection cells have operator-valued coefficients and leave
    both as None.
    """

    keys_a: tuple
    keys_b: tuple
    u_bar: np.ndarray
    s_ec: np.ndarray
    s_dis: np.ndarray
    s_mix: np.ndarray
    p_tilde: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    mean_d2: np.ndarray
    cov_ec: np.ndarray
    cov_dis: np.ndarray
    cov_mix: np.ndarray
    support: np.ndarray | None = None
    d: np.ndarray | None = None


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def cell_arrays(p: Process, part_a: Partition, part_b: Partition) -> CellArrays:
    """Statistics of every cell of a joint partition, as nA x nB arrays.

    W_B = kernel @ B gives each parent's kernel mass on each target block;
    a sum over a source block is A.T @ (...), with A and B the block
    indicator matrices, so singleton cells need no path of their own.
    Flow shares are normalized by the child population n * wbar.
    """
    if part_a.types != p.source.types or part_b.types != p.target.types:
        raise ValueError("partitions must match the process type sets")
    fd = fitness(p)
    mu = p.source.weights
    n = p.source.size
    n_child = n * fd.wbar
    w_row = fd.W.values
    u = fd.U.values
    prob = mu / n
    block_a = part_a.block_index()
    sum_a = part_a.indicator().T

    w_b = p.kernel @ part_b.indicator()
    flow = w_b * mu[:, None]
    u_bar = sum_a @ flow / n_child

    # Support decisions run on normalized mass shares so they are scale-free.
    support = (flow / n_child > EPS_ZERO) & fd.support[:, None]
    d = np.divide(w_b, w_row[:, None], out=np.zeros_like(w_b), where=support)
    log_d = np.log(d, out=np.zeros_like(d), where=support)
    log_ubar = np.log(u_bar, out=np.zeros_like(u_bar), where=u_bar > 0)
    u_cell = w_b / fd.wbar

    dis = -u_cell * log_d
    log_m = np.where(support, log_d - log_ubar[block_a], 0.0)
    mass = np.where(support, (w_row * mu)[:, None], 0.0)
    p_tilde = sum_a @ mass / n_child
    norm = p_tilde * n_child
    ud = u[:, None] * d
    prob_c = (prob * (u - 1.0))[:, None]
    cov_ec = -log_ubar * (sum_a @ (prob_c * u_cell))
    cov_dis = sum_a @ (prob_c * dis)
    return CellArrays(
        keys_a=part_a.blocks, keys_b=part_b.blocks,
        u_bar=u_bar,
        s_ec=-xlogx(u_bar),
        s_dis=sum_a @ (prob[:, None] * dis),
        s_mix=sum_a @ (prob[:, None] * (u_cell * log_m)),
        p_tilde=p_tilde,
        phi=_ratio(sum_a @ (mass * u[:, None]), norm),
        lam=_ratio(sum_a @ (mass * ud), norm),
        gamma=_ratio(sum_a @ (mass * ud * d), norm),
        mean_d2=sum_a @ (prob[:, None] * ud * d),
        cov_ec=cov_ec, cov_dis=cov_dis, cov_mix=cov_ec - cov_dis,
        support=support, d=d,
    )


@dataclass(frozen=True)
class EntropyProfile:
    """Totals of one joint partition's cells, and every chain derived from
    them.  ``equilibrium_class`` is that of the fitness summary the profile
    was built from; ``suffix`` ends each third-law window name."""

    s_ns: float
    s_ec: float
    s_dis: float
    s_mix: float
    cells: CellArrays = field(repr=False)
    equilibrium_class: str
    suffix: str = ""

    @classmethod
    def from_cells(cls, ins: FitnessSummary, cells: CellArrays,
                   suffix: str = "") -> "EntropyProfile":
        return cls(ins.s_ns, float(cells.s_ec.sum()), float(cells.s_dis.sum()),
                   float(cells.s_mix.sum()), cells, ins.equilibrium_class, suffix)

    @property
    def s_tot(self) -> float:
        return self.s_ns + self.s_ec

    @cached_property
    def per_cell(self) -> dict:
        """CellStats keyed by (source cell, target cell) label."""
        c = self.cells
        rows = np.stack([getattr(c, name) for name in CELL_FIELDS], axis=-1).tolist()
        return {
            (ka, kb): CellStats(*rows[a][b])
            for a, ka in enumerate(c.keys_a) for b, kb in enumerate(c.keys_b)
        }

    @cached_property
    def bounds(self) -> tuple[LawReport, LawReport]:
        """Chains 0 <= lower <= S <= upper <= S_EC for dispersion and mixing."""
        cells, s_dis, s_mix, s_ec = self.cells, self.s_dis, self.s_mix, self.s_ec
        live = (cells.u_bar > 0) & (cells.p_tilde > 0)
        u_bar, p_tilde = cells.u_bar[live], cells.p_tilde[live]
        moment = cells.mean_d2[live] > 0
        ub_m, d2_m = u_bar[moment], cells.mean_d2[live][moment]
        l_dis = np.sum(ub_m * np.log(ub_m / d2_m))
        u_mix = np.sum(ub_m * np.log(d2_m / ub_m**2))
        u_dis = np.sum(u_bar * np.log(p_tilde / u_bar))
        l_mix = np.sum(u_bar * np.log(1.0 / p_tilde))

        dis = LawReport(
            name="dispersion_bounds",
            lhs=s_ec,
            bounds=(float(u_dis), s_dis, float(l_dis), 0.0),
            direction="ge",
            equilibrium_class=self.equilibrium_class,
            extras={"s_dis": s_dis, "s_ec": s_ec},
        )
        mix = LawReport(
            name="mixing_bounds",
            lhs=s_ec,
            bounds=(float(u_mix), s_mix, float(l_mix), 0.0),
            direction="ge",
            equilibrium_class=self.equilibrium_class,
            extras={"s_mix": s_mix, "s_ec": s_ec},
        )
        return dis, mix

    @cached_property
    def third_law(self) -> dict[str, LawReport]:
        """Selective changes of S_EC, S_dis, S_mix with their fluctuation windows."""
        cells = self.cells
        lhs_ec = float(cells.cov_ec.sum())
        lhs_dis = float(cells.cov_dis.sum())
        lhs_mix = float(cells.cov_mix.sum())
        live = (cells.u_bar > 0) & (cells.p_tilde > 0)
        # Noncommuting cell coefficients can leave the log domain; the windows
        # are only derived where they are positive.
        domain = live & (np.minimum.reduce([cells.phi, cells.lam, cells.gamma, cells.mean_d2]) > 0)
        skipped = int(np.count_nonzero(live & ~domain))
        ub, pt, phi, lam, gamma, d2 = (
            v[domain] for v in (cells.u_bar, cells.p_tilde, cells.phi, cells.lam,
                                cells.gamma, cells.mean_d2)
        )
        core = pt * lam
        lo_dis = np.sum(core * np.log(lam / gamma) - ub * np.log(pt / ub))
        hi_dis = np.sum(core * np.log(phi / lam) - ub * np.log(ub / d2))
        lo_mix = np.sum(core * np.log(lam / (phi * ub)) - ub * np.log(d2 / ub**2))
        hi_mix = np.sum(core * np.log(gamma / (lam * ub)) - ub * np.log(1.0 / pt))

        def window(name, lhs, lo, hi):
            return LawReport(
                name=name + self.suffix,
                lhs=float(lhs),
                bounds=(float(hi),),
                direction="le",
                equilibrium_class=self.equilibrium_class,
                extras={
                    "lower_bound": float(lo),
                    "lower_slack": float(lhs - lo),
                    "window_width": float(hi - lo),
                    "cells_outside_log_domain": skipped,
                },
            )

        return {
            "ns_s_ec": window("third_law_ec", lhs_ec, lo_dis + lo_mix, hi_dis + hi_mix),
            "ns_s_dis": window("third_law_dis", lhs_dis, lo_dis, hi_dis),
            "ns_s_mix": window("third_law_mix", lhs_mix, lo_mix, hi_mix),
        }


def environmental_profile(p: Process, part_a: Partition, part_b: Partition) -> EntropyProfile:
    """Per-cell and total environmental, dispersion, and mixing entropies."""
    return EntropyProfile.from_cells(fitness(p).summary, cell_arrays(p, part_a, part_b))


def _partitions(p: Process, part_a: Partition | None, part_b: Partition | None):
    """The given partitions, singletons where None."""
    return (part_a or Partition.singletons(p.source.types),
            part_b or Partition.singletons(p.target.types))


def generating_profile(p: Process) -> EntropyProfile:
    """Profile at the singleton joint partition, which realizes the
    partition suprema for finite discrete processes."""
    return environmental_profile(p, *_partitions(p, None, None))


def environmental_entropy(p: Process) -> float:
    """S_EC at the singleton joint partition: the entropy of the flow shares,
    whose identity-indicator cell sums in ``cell_arrays`` are exact, so this
    equals ``generating_profile(p).s_ec`` bit for bit."""
    return float(np.sum(-xlogx(flow_shares(p))))


def total_entropy(p: Process) -> float:
    return selective_entropy(p) + environmental_entropy(p)


# ---------------------------------------------------------------------------
# Environmental equilibrium


def environmental_equilibrium(p: Process, part_a: Partition | None = None,
                              part_b: Partition | None = None):
    """True when the dispersion coefficient is constant on every cell support.

    At singleton partitions each cell support is a single parent, so finite
    discrete processes always pass; block partitions can fail.
    Returns (flag, witnesses) where witnesses lists the offending cells.
    """
    part_a, part_b = _partitions(p, part_a, part_b)
    cells = cell_arrays(p, part_a, part_b)
    block_a = part_a.block_index()
    d_max = np.full(cells.u_bar.shape, -np.inf)
    d_min = np.full(cells.u_bar.shape, np.inf)
    np.maximum.at(d_max, block_a, np.where(cells.support, cells.d, -np.inf))
    np.minimum.at(d_min, block_a, np.where(cells.support, cells.d, np.inf))
    spread = (d_max >= d_min) & (d_max - d_min > EPS_SAT * np.maximum(1.0, d_max))
    witnesses = [
        {"cell": (cells.keys_a[a], cells.keys_b[b]), "d_min": float(d_min[a, b]),
         "d_max": float(d_max[a, b])}
        for a, b in zip(*np.nonzero(spread))
    ]
    return len(witnesses) == 0, witnesses


# ---------------------------------------------------------------------------
# Strong bounds on dispersion and mixing entropies


def dispersion_mixing_bounds(p: Process, part_a: Partition | None = None,
                             part_b: Partition | None = None) -> tuple[LawReport, LawReport]:
    """Four-link chains pinning S_dis and S_mix between per-cell moment bounds
    and the environmental entropy."""
    return environmental_profile(p, *_partitions(p, part_a, part_b)).bounds


# ---------------------------------------------------------------------------
# Third law: selective change of the environmental entropies


def third_law(p: Process, part_a: Partition | None = None,
              part_b: Partition | None = None) -> dict[str, LawReport]:
    """Selective changes of S_EC, S_dis, S_mix with their fluctuation windows.

    Each lhs is a sum of covariances of cell observables with relative
    fitness; the windows are per-cell moment bounds that collapse onto the
    lhs whenever the dispersion coefficient is constant per cell (always,
    at singleton partitions of a finite discrete process).
    """
    return environmental_profile(p, *_partitions(p, part_a, part_b)).third_law


# ---------------------------------------------------------------------------
# Intergenerational environmental change of environmental entropy


@dataclass(frozen=True)
class IntergenerationalChange:
    price_route: float       # Delta(S_EC, S_EC') minus the selective change
    formula_route: float     # reweighted cross-partition divergence sum
    s_ec: float
    s_ec_next: float
    ns_s_ec: float


def intergenerational_ec_change(p: Process, q: Process) -> IntergenerationalChange:
    """Environmental change of environmental entropy across a composable pair.

    The price route is definitional: the total change of the per-cell
    entropy observables minus the selective change.  The reweighted
    divergence sum (whose weights are normalized by the second fitness
    moment) is reported alongside; the two differ by exactly
    (1/E[U^2] - 1) E[U X] and so coincide when the first stage has
    constant relative fitness.
    """
    check_composable(p, q)
    prof = generating_profile(p)
    prof_next = generating_profile(q)
    ins = fitness(p).summary

    # The selective change is the sum of the singleton cells' covariances
    # cov(-U_cell log u_bar, U); singleton cells are (parent, child) pairs.
    ns = float(prof.cells.cov_ec.sum())
    price_route = (prof_next.s_ec - prof.s_ec) - ns

    # sum over cells ij and next cells c of -alpha_ij u'_c log(u'_c / u_ij),
    # alpha_ij = U_i u_ij / E[U^2], factors into
    # (sum alpha)(sum -u' log u') + (sum u')(sum alpha log u).
    u_bar, live = prof.cells.u_bar, prof.cells.support
    log_ubar = np.log(u_bar, out=np.zeros_like(u_bar), where=live)
    alpha = np.where(live, ins.u[:, None] * u_bar, 0.0) / ins.moment(2)
    next_cells = prof_next.cells.u_bar[prof_next.cells.support]
    formula = (alpha.sum() * np.sum(-xlogx(next_cells))
               + next_cells.sum() * np.sum(alpha * log_ubar))

    return IntergenerationalChange(
        price_route=float(price_route),
        formula_route=float(formula),
        s_ec=prof.s_ec,
        s_ec_next=prof_next.s_ec,
        ns_s_ec=ns,
    )


# ---------------------------------------------------------------------------
# Reversibility of the redistribution stage


@dataclass(frozen=True)
class ReversibilityVerdict:
    left_invertible: bool
    right_invertible: bool
    invertible: bool
    retraction: Process | None
    section: Process | None
    inverse: Process | None
    dollo_childbearing: bool
    dollo_full: bool
    dis_obstruction: float
    mix_obstruction: float


def reversibility(p: Process) -> ReversibilityVerdict:
    """Decide one-sided invertibility of the redistribution stage.

    A retraction (undo after) exists iff no child pools mass from two
    parents: the parent-given-child conditional entropy of the flow is
    zero.  A section (undo before) exists iff no parent splits mass over
    two children: the child-given-parent conditional entropy (the
    dispersion entropy) is zero.  Constructed inverses are verified by
    composition; one that fails the check leaves its side not invertible.
    """
    flow = flow_cells(p)
    rowm = flow.sum(axis=1)
    colm = flow.sum(axis=0)
    pos = flow > 0
    ii, jj = np.nonzero(pos)
    dis_obstruction = float(np.sum(flow[pos] * np.log(rowm[ii] / flow[pos])))
    mix_obstruction = float(np.sum(flow[pos] * np.log(colm[jj] / flow[pos])))

    factors = price_factorize(p)
    mid = factors.environmental.source
    env_kernel = factors.environmental.kernel
    fd = fitness(p)
    support_rows = np.nonzero(fd.support)[0]
    n_mid = len(mid.types)
    k_child = len(p.target.types)

    # A side is invertible when its obstruction is within EPS_SAT and the
    # inverse built for it passes the composition check; a flow share
    # between EPS_ZERO and about EPS_SAT can pass the first and fail the
    # second, and then that side has no inverse.
    retraction = None
    section = None
    inverse = None
    if mix_obstruction <= EPS_SAT:
        # Each child goes to its lowest-index maximal parent; a zero-mass
        # child has argmax 0, and column 0 carries no mass for it.
        r = np.zeros((k_child, n_mid))
        r[np.arange(k_child), np.searchsorted(support_rows, flow.argmax(axis=0))] = 1.0
        composite = env_kernel @ r
        live = mid.weights > 0
        gap = composite[live][:, live] - np.eye(n_mid)[live][:, live]
        if np.max(np.abs(gap)) <= EPS_INVERSE:
            retraction = Process(p.target, mid, r, _check=False)
    if dis_obstruction <= EPS_SAT:
        # Parents with exactly one child pull back onto it.
        fed = flow[support_rows] > 0
        rows = np.nonzero(fed.sum(axis=1) == 1)[0]
        only = fed[rows].argmax(axis=1)
        s = np.zeros((k_child, n_mid))
        s[only, rows] = mid.weights[rows] / p.target.weights[only]
        composite = s @ env_kernel
        live_child = p.target.weights > 0
        eye = np.eye(k_child)
        gap = composite[live_child][:, live_child] - eye[live_child][:, live_child]
        if np.max(np.abs(gap)) <= EPS_INVERSE:
            section = Process(p.target, mid, s, _check=False)
    left = retraction is not None
    right = section is not None
    invertible = left and right
    if invertible:
        w_support = fd.W.values[support_rows]
        inv_kernel = retraction.kernel / w_support[None, :]
        restricted = Population(mid.types, p.source.weights[support_rows])
        inverse = Process(p.target, restricted, inv_kernel, _check=False)

    return ReversibilityVerdict(
        left_invertible=left,
        right_invertible=right,
        invertible=invertible,
        retraction=retraction,
        section=section,
        inverse=inverse,
        dollo_childbearing=invertible,
        dollo_full=invertible and abs(fd.p_star - 1.0) <= EPS_ZERO,
        dis_obstruction=dis_obstruction,
        mix_obstruction=mix_obstruction,
    )


# ---------------------------------------------------------------------------
# Finite-horizon path entropy


def ks_entropy_curve(p: Process, t_max: int) -> list[float]:
    """Path entropies S_1..S_T of the iterated process at singleton cells.

    The entropy of the T-step path mass distribution is accumulated with
    the chain rule over forward marginals and backward reachability masses,
    so no path tensor is materialized.
    """
    if p.source.types != p.target.types:
        raise ValueError("iterated entropy needs an endomorphic process")
    if not 1 <= t_max <= 6:
        raise ValueError("horizon T must be between 1 and 6")
    w = p.kernel
    k = w.shape[0]
    out = []
    for horizon in range(1, t_max + 1):
        back = [np.ones(k)]
        for _ in range(horizon):
            back.append(w @ back[-1])
        back.reverse()  # back[t] = mass reachable in (horizon - t) further steps
        n_final = float(p.source.weights @ back[0])
        if n_final <= EPS_ZERO * p.source.size:
            raise ValueError(f"population dies out before horizon {horizon}")
        forward = p.source.weights.copy()
        marginal = forward * back[0] / n_final
        h = float(np.sum(-xlogx(marginal)))
        for t in range(horizon):
            cond = w * back[t + 1][None, :]
            rows = back[t] > 0
            cond[rows] = cond[rows] / back[t][rows, None]
            cond[~rows] = 0.0
            row_entropy = np.sum(-xlogx(cond), axis=1)
            h += float(marginal @ row_entropy)
            forward = w.T @ forward
            marginal = forward * back[t + 1] / n_final
        out.append(h)
    return out


def ks_entropy(p: Process, t: int) -> float:
    return ks_entropy_curve(p, t)[-1]
