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

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .config import EPS_INVERSE, EPS_SAT, EPS_ZERO
from .laws import LawReport
from .measure import Population, TypeSet, _Frozen, _set, _Value, xlogx
from .process import (FitnessData, Process, _finite, _flow_shares, check_composable, fitness,
                      flow_cells, price_factorize)


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of labels covering a type set."""

    types: TypeSet
    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, types: TypeSet, blocks):
        blocks = tuple(blocks)
        if not all(isinstance(block, (list, tuple)) for block in blocks):
            raise ValueError("a partition block must be a list of labels")
        blocks = tuple(tuple(str(c) for c in block) for block in blocks)
        seen: list[str] = []
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            seen.extend(block)
        if sorted(seen) != sorted(types.labels):
            raise ValueError("blocks must cover the type set disjointly")
        _set(self, types=types, blocks=blocks)

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
    rows = _label_positions(p.source.types, block_a)
    cols = _label_positions(p.target.types, block_b)
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


def _label_positions(types: TypeSet, block) -> np.ndarray:
    """Positions in ``types`` of a block's labels, each one of ``types``, listed once."""
    index = {c: k for k, c in enumerate(types.labels)}
    seen: set = set()
    for c in block:
        if c not in index or c in seen:
            raise ValueError(f"block label {c!r} is {'repeated' if c in index else 'unknown'}")
        seen.add(c)
    return np.array([index[c] for c in block], dtype=int)


# ---------------------------------------------------------------------------
# Environmental profile


@dataclass(frozen=True, eq=False)
class CellArrays(_Value):
    """Twelve statistics of every cell, as (source cell, target cell) arrays.

    Row a and column b belong to the cells labelled keys_a[a] and keys_b[b].
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
    mean_d2: np.ndarray      # E[U D^2 1_cell], the intermediate mean of D^2
    cov_ec: np.ndarray       # cov(-U_cell log u_bar, U)
    cov_dis: np.ndarray      # cov(-U_cell log D, U)
    cov_mix: np.ndarray      # cov(U_cell log(D / u_bar), U)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _dispersion(p: Process, part_a: Partition, part_b: Partition):
    """Each parent's kernel mass W_iB on each target block B, the (parent,
    block) support, and the dispersion coefficients D = W_iB / W_i, 0 off it.

    A parent is on the support when its flow share into B of the child mass
    n * wbar clears EPS_ZERO (a scale-free decision) and so does its U.
    """
    if part_a.types != p.source.types or part_b.types != p.target.types:
        raise ValueError("partitions must match the process type sets")
    fd = fitness(p)
    w_b = p.kernel @ part_b.indicator()
    flow = w_b * p.source.weights[:, None]
    support = (flow / (p.source.size * fd.wbar) > EPS_ZERO) & fd.support[:, None]
    return w_b, support, np.divide(w_b, fd.W.values[:, None], out=np.zeros_like(w_b),
                                   where=support)


def cell_arrays(p: Process, part_a: Partition, part_b: Partition) -> CellArrays:
    """Statistics of every cell of a joint partition, as nA x nB arrays.

    W_B = kernel @ B gives each parent's kernel mass on each target block;
    a sum over a source block is A.T @ (...), with A and B the block
    indicator matrices, so singleton cells need no path of their own.
    Flow shares are normalized by the child population n * wbar.
    """
    w_b, support, d = _dispersion(p, part_a, part_b)
    fd = fitness(p)
    mu = p.source.weights
    n = p.source.size
    n_child = n * fd.wbar
    w_row = fd.W.values
    u = fd.U.values
    prob = mu / n
    block_a = part_a.block_index()
    sum_a = part_a.indicator().T
    u_bar = sum_a @ (w_b * mu[:, None]) / n_child
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
    )


@dataclass(frozen=True)
class EntropyProfile(_Frozen):
    """Totals of one joint partition's cells, and every chain derived from
    them.  ``equilibrium_class`` is that of the fitness record the profile
    was built from; ``suffix`` ends each third-law window name."""

    s_ns: float
    s_ec: float
    s_dis: float
    s_mix: float
    cells: CellArrays = field(repr=False)
    equilibrium_class: str
    suffix: str = ""

    @classmethod
    def from_cells(cls, fd: FitnessData, cells: CellArrays,
                   suffix: str = "") -> "EntropyProfile":
        return cls(fd.s_ns, float(cells.s_ec.sum()), float(cells.s_dis.sum()),
                   float(cells.s_mix.sum()), cells, fd.equilibrium_class, suffix)

    @property
    def s_tot(self) -> float:
        return self.s_ns + self.s_ec

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
    def third_law(self) -> Mapping[str, LawReport]:
        """Selective changes of S_EC, S_dis, S_mix with their fluctuation windows, read-only."""
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

        return MappingProxyType({
            "ns_s_ec": window("third_law_ec", lhs_ec, lo_dis + lo_mix, hi_dis + hi_mix),
            "ns_s_dis": window("third_law_dis", lhs_dis, lo_dis, hi_dis),
            "ns_s_mix": window("third_law_mix", lhs_mix, lo_mix, hi_mix),
        })


def environmental_profile(p: Process, part_a: Partition, part_b: Partition) -> EntropyProfile:
    """Per-cell and total environmental, dispersion, and mixing entropies."""
    return EntropyProfile.from_cells(fitness(p), cell_arrays(p, part_a, part_b))


def _partitions(p: Process, part_a: Partition | None, part_b: Partition | None):
    """The given partitions, singletons where None."""
    return (part_a or Partition.singletons(p.source.types),
            part_b or Partition.singletons(p.target.types))


def generating_profile(p: Process) -> EntropyProfile:
    """Profile at the singleton joint partition, which realizes the partition
    suprema for finite discrete processes; built once and kept with p."""
    kept = vars(p)
    if "_generating_profile" not in kept:
        kept["_generating_profile"] = environmental_profile(p, *_partitions(p, None, None))
    return kept["_generating_profile"]


def _profile(p: Process, part_a: Partition | None, part_b: Partition | None) -> EntropyProfile:
    """p's kept singleton profile when no partition is given, else a new one."""
    if part_a is None and part_b is None:
        return generating_profile(p)
    return environmental_profile(p, *_partitions(p, part_a, part_b))


def environmental_entropy(p: Process) -> float:
    """S_EC at the singleton joint partition: the entropy of the flow shares,
    whose identity-indicator cell sums in ``cell_arrays`` are exact, so this
    equals ``generating_profile(p).s_ec`` bit for bit."""
    return flow_entropy(p.kernel, p.source.weights, p.source.size * fitness(p).wbar)


def flow_entropy(kernel: np.ndarray, weights: np.ndarray, child_mass: float) -> float:
    """S_EC of the flow of parent ``weights`` through ``kernel`` into ``child_mass`` = n * wbar."""
    return float(np.sum(-xlogx(_flow_shares(kernel, weights, child_mass))))


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
    _, support, d = _dispersion(p, part_a, part_b)
    block_a = part_a.block_index()
    d_max = np.full((len(part_a.blocks), d.shape[1]), -np.inf)
    d_min = np.full(d_max.shape, np.inf)
    np.maximum.at(d_max, block_a, np.where(support, d, -np.inf))
    np.minimum.at(d_min, block_a, np.where(support, d, np.inf))
    spread = (d_max >= d_min) & (d_max - d_min > EPS_SAT * np.maximum(1.0, d_max))
    witnesses = [
        {"cell": (part_a.blocks[a], part_b.blocks[b]), "d_min": float(d_min[a, b]),
         "d_max": float(d_max[a, b])}
        for a, b in zip(*np.nonzero(spread))
    ]
    return len(witnesses) == 0, witnesses


# ---------------------------------------------------------------------------
# Strong bounds on dispersion and mixing entropies


def dispersion_mixing_bounds(p: Process, part_a: Partition | None = None,
                             part_b: Partition | None = None) -> tuple[LawReport, LawReport]:
    """Four-link chains pinning S_dis and S_mix between per-cell moment bounds
    and S_EC, of p's kept singleton profile unless partitions are given."""
    return _profile(p, part_a, part_b).bounds


# ---------------------------------------------------------------------------
# Third law: selective change of the environmental entropies


def third_law(p: Process, part_a: Partition | None = None,
              part_b: Partition | None = None) -> dict[str, LawReport]:
    """Selective changes of S_EC, S_dis, S_mix with their fluctuation windows.

    Each lhs is a sum of covariances of cell observables with relative
    fitness; the windows are per-cell moment bounds that collapse onto the
    lhs whenever the dispersion coefficient is constant per cell (always,
    at singleton partitions of a finite discrete process).  A new dict over
    the reports of p's kept singleton profile unless partitions are given."""
    return dict(_profile(p, part_a, part_b).third_law)


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
    q = check_composable(p, q)
    prof = generating_profile(p)
    fd = fitness(p)

    # The selective change is the sum of the singleton cells' covariances
    # cov(-U_cell log u_bar, U); singleton cells are (parent, child) pairs.
    # q's side needs only its flow: S_EC' and the shares of its live cells.
    ns = float(prof.cells.cov_ec.sum())
    s_ec_next = environmental_entropy(q)
    price_route = (s_ec_next - prof.s_ec) - ns

    # sum over cells ij and next cells c of -alpha_ij u'_c log(u'_c / u_ij),
    # alpha_ij = U_i u_ij / E[U^2], factors into
    # (sum alpha)(sum -u' log u') + (sum u')(sum alpha log u).
    # The live u_bar are p's flow cells, bit for bit.
    u_bar = flow_cells(p)
    log_ubar = np.log(u_bar, out=np.zeros_like(u_bar), where=u_bar > 0)
    alpha = fd.u[:, None] * u_bar / fd.moment(2)
    next_cells = flow_cells(q)
    next_cells = next_cells[next_cells > 0]
    formula = (alpha.sum() * np.sum(-xlogx(next_cells))
               + next_cells.sum() * np.sum(alpha * log_ubar))

    return IntergenerationalChange(
        price_route=float(price_route),
        formula_route=float(formula),
        s_ec=prof.s_ec,
        s_ec_next=s_ec_next,
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

    fd = fitness(p)
    support_rows = np.nonzero(fd.support)[0]
    k_child = len(p.target.types)

    # A side is invertible when its obstruction is within EPS_SAT and the
    # inverse built for it passes the composition check; a flow share
    # between EPS_ZERO and about EPS_SAT can pass the first and fail the
    # second, and then that side has no inverse.
    retraction = None
    section = None
    inverse = None
    if min(mix_obstruction, dis_obstruction) <= EPS_SAT:
        # Only an inverse reads the redistribution stage.
        factors = price_factorize(p)
        mid = factors.environmental.source
        env_kernel = factors.environmental.kernel
        n_mid = len(mid.types)
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
        if retraction is not None and section is not None:
            w_support = fd.W.values[support_rows]
            with np.errstate(over="ignore"):
                inv_kernel = _finite(retraction.kernel / w_support[None, :], "inverse kernel")
            restricted = Population(mid.types, p.source.weights[support_rows])
            inverse = Process(p.target, restricted, inv_kernel, _check=False)
    left = retraction is not None
    right = section is not None
    invertible = inverse is not None

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

    The chain rule over forward marginals and backward reachability masses
    gives each horizon's entropy without a path tensor.  Every mass and row
    entropy is computed once, one step per horizon, so a die-out is reported
    at the horizon where it happens."""
    if p.source.types != p.target.types:
        raise ValueError("iterated entropy needs an endomorphic process")
    if isinstance(t_max, bool) or not isinstance(t_max, int) or not 1 <= t_max <= 6:
        raise ValueError("horizon T must be between 1 and 6")
    e_mu, e_w = np.frexp(p.source.weights.max())[1], np.frexp(p.kernel.max())[1]
    mu, w = np.ldexp(p.source.weights, -e_mu), np.ldexp(p.kernel, -e_w)   # exact: no overflow
    back = [np.ones(w.shape[0])]     # back[s]: mass reachable in s further steps
    forward = [mu]                   # forward[t]: mass after t steps
    row_entropy = [None]             # row_entropy[s]: child entropy of a step with s to go
    out = []
    for horizon in range(1, t_max + 1):
        back.append(w @ back[-1])
        n_final = float(mu @ back[horizon])
        with np.errstate(over="ignore"):    # die-out as of the unscaled mass mu W^h 1
            if np.ldexp(n_final, e_mu + e_w * horizon) <= EPS_ZERO * p.source.size:
                raise ValueError(f"population dies out before horizon {horizon}")
        marginal = forward[0] * back[horizon] / n_final
        h = float(np.sum(-xlogx(marginal)))
        cond = _ratio(w * back[-2], back[-1][:, None])
        row_entropy.append(np.sum(-xlogx(cond), axis=1))
        for t in range(horizon):
            h += float(marginal @ row_entropy[horizon - t])
            if t + 1 == horizon:
                forward.append(w.T @ forward[t])
            marginal = forward[t + 1] * back[horizon - t - 1] / n_final
        out.append(h)
    return out
