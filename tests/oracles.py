"""Independent brute-force oracles used by the unit and acceptance tests.

Besides enumerations and direct constructions, this holds per-cell loops
over partition cells, the reference that the differential tests compare
the array-valued cell kernel against, per-row loops for the stationarity
classes and the reversibility inverses, and the gather-scatter forms of the
whole-array kernels x log x, E[U^2 log U] and the brood average.
"""

import itertools

import numpy as np

# The twelve statistics of ``pricekit.entropy.CellArrays``, in the order the
# loops below compute them.
CELL_FIELDS = ("u_bar", "s_ec", "s_dis", "s_mix", "p_tilde", "phi", "lam", "gamma",
               "mean_d2", "cov_ec", "cov_dis", "cov_mix")


def path_entropy_by_enumeration(p, horizon: int) -> float:
    """Entropy of the path-mass distribution by explicit enumeration."""
    k = p.kernel.shape[0]
    masses = []
    for path in itertools.product(range(k), repeat=horizon + 1):
        m = p.source.weights[path[0]]
        for a, b in zip(path, path[1:]):
            m *= p.kernel[a, b]
        masses.append(m)
    masses = np.array(masses)
    total = masses.sum()
    probs = masses[masses > 0] / total
    return float(-(probs * np.log(probs)).sum())


def matrix_function(h: np.ndarray, f) -> np.ndarray:
    """A scalar function of a Hermitian matrix through its whole spectrum."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * f(vals)) @ vecs.conj().T


def adjoint(w) -> np.ndarray:
    """Adjoint superoperator of a QuantumProcess in the trace pairing: the
    conjugate transpose, copied."""
    return w.superoperator.conj().T


def search_one_sided_inverses(p) -> tuple[bool, bool]:
    """Find exact one-sided inverses of the redistribution stage by direct
    construction and explicit composition checks.

    Any retraction is forced on every mass-carrying child: the composite of
    row-stochastic matrices can only hit an identity row when every child
    row it averages is concentrated on that parent.  The oracle therefore
    builds the only feasible candidates and verifies them by matrix
    multiplication; existence fails exactly when verification fails.
    """
    w = np.asarray(p.kernel, dtype=float)
    mu = p.source.weights
    row_fitness = w.sum(axis=1)
    support = (row_fitness > 1e-12) & (mu > 0)
    if not support.any():
        return False, False
    env = w[support] / row_fitness[support, None]
    mid_weights = (row_fitness * mu)[support]
    child_weights = p.target.weights
    n_mid = env.shape[0]
    k_child = env.shape[1]

    # Retraction candidate: each mass-carrying child maps to one parent.
    left = True
    retraction = np.zeros((k_child, n_mid))
    for j in range(k_child):
        feeders = np.nonzero(env[:, j] * mid_weights > 0)[0]
        if len(feeders) == 0:
            retraction[j, 0] = 1.0
        elif len(feeders) == 1:
            retraction[j, feeders[0]] = 1.0
        else:
            left = False
            break
    if left:
        composite = env @ retraction
        left = bool(np.allclose(composite, np.eye(n_mid), atol=1e-10))

    # Section candidate: children pull back proportionally from parents
    # whose entire row feeds them.
    right = True
    section = np.zeros((k_child, n_mid))
    for i in range(n_mid):
        children = np.nonzero(env[i] > 0)[0]
        if len(children) != 1:
            right = False
            break
        section[children[0], i] = mid_weights[i]
    if right:
        col = section.sum(axis=1)
        live = child_weights > 0
        if np.any(np.abs(col[live] - child_weights[live]) > 1e-9 * max(1.0, child_weights.max())):
            right = False
    if right:
        section = section / np.where(child_weights > 0, child_weights, 1.0)[:, None]
        composite = section @ env
        live = child_weights > 0
        eye = np.eye(k_child)
        right = bool(
            np.allclose(composite[live][:, live], eye[live][:, live], atol=1e-10)
        )
    return left, right


def set_partitions(items):
    """All partitions of a list, as tuples of blocks."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for k, block in enumerate(sub):
            yield sub[:k] + ((first,) + block,) + sub[k + 1:]


def cell_stats_by_loop(p, part_a, part_b) -> dict:
    """Per-cell statistics of a joint partition, one cell at a time.

    The reference for ``pricekit.entropy.cell_arrays``: each cell is
    computed from its own O(K) arrays with flow shares normalized by
    n * wbar.  Returns {(block_a, block_b): {field: value}}.
    """
    from pricekit import fitness
    from pricekit.measure import xlogx

    fd = fitness(p)
    mu = p.source.weights
    n = p.source.size
    n_child = n * fd.wbar
    w_row = fd.W.values
    u = fd.U.values
    src_idx = {c: k for k, c in enumerate(p.source.types.labels)}
    tgt_idx = {c: k for k, c in enumerate(p.target.types.labels)}
    out = {}
    for block_a in part_a.blocks:
        rows = np.array([src_idx[c] for c in block_a], dtype=int)
        for block_b in part_b.blocks:
            cols = np.array([tgt_idx[c] for c in block_b], dtype=int)
            w_ab = np.zeros(len(mu))
            w_ab[rows] = p.kernel[np.ix_(rows, cols)].sum(axis=1)
            flow = w_ab * mu
            u_bar = float(flow.sum()) / n_child
            support = (flow / n_child > 1e-12) & (w_row / fd.wbar > 1e-12)
            d = np.zeros(len(mu))
            d[support] = w_ab[support] / w_row[support]
            u_cell = w_ab / fd.wbar
            prob = mu / n

            s_ec = float(-xlogx(u_bar)) if u_bar > 0 else 0.0
            log_d = np.zeros(len(mu))
            log_d[support] = np.log(d[support])
            s_dis = float(prob @ (-u_cell * log_d))
            if u_bar > 0:
                log_m = np.where(support, log_d - np.log(u_bar), 0.0)
                s_mix = float(prob @ (u_cell * log_m))
            else:
                s_mix = 0.0

            p_tilde = float((w_row * mu)[support].sum()) / n_child
            if p_tilde > 0:
                tilde_w = (w_row * mu)[support] / (p_tilde * n_child)
                phi = float(tilde_w @ u[support])
                lam = float(tilde_w @ (u[support] * d[support]))
                gamma = float(tilde_w @ (u[support] * d[support] ** 2))
            else:
                phi = lam = gamma = 0.0
            mean_d2 = float(prob[support] @ (u[support] * d[support] ** 2))

            centered = u - 1.0
            log_ubar = np.log(u_bar) if u_bar > 0 else 0.0
            cov_ec = float(prob @ ((-u_cell * log_ubar) * centered))
            cov_dis = float(prob @ ((-u_cell * log_d) * centered))
            out[(block_a, block_b)] = dict(
                u_bar=u_bar, s_ec=s_ec, s_dis=s_dis, s_mix=s_mix,
                p_tilde=p_tilde, phi=phi, lam=lam, gamma=gamma, mean_d2=mean_d2,
                cov_ec=cov_ec, cov_dis=cov_dis, cov_mix=cov_ec - cov_dis,
            )
    return out


def equilibrium_by_loop(p, part_a, part_b):
    """``pricekit.environmental_equilibrium`` one cell at a time.

    In each cell (A, B) the parents of A whose flow share W_iB mu_i of the
    child mass n * wbar clears EPS_ZERO, and whose relative fitness is
    positive, carry the dispersion coefficient W_iB / W_i; the cell is a
    witness when these spread by more than EPS_SAT (relative above 1).
    """
    from pricekit import fitness
    from pricekit.config import EPS_SAT, EPS_ZERO

    fd = fitness(p)
    n_child = p.source.size * fd.wbar
    src_idx = {c: k for k, c in enumerate(p.source.types.labels)}
    tgt_idx = {c: k for k, c in enumerate(p.target.types.labels)}
    witnesses = []
    for block_a in part_a.blocks:
        for block_b in part_b.blocks:
            d = []
            for i in (src_idx[c] for c in block_a):
                w_ib = sum(p.kernel[i, tgt_idx[c]] for c in block_b)
                if w_ib * p.source.weights[i] / n_child > EPS_ZERO and fd.u[i] > 0:
                    d.append(w_ib / fd.W.values[i])
            if d and max(d) - min(d) > EPS_SAT * max(1.0, max(d)):
                witnesses.append({"cell": (block_a, block_b), "d_min": float(min(d)),
                                  "d_max": float(max(d))})
    return not witnesses, witnesses


def aggregate_price_compact(p, x, y) -> float:
    """The aggregate change mu'[y] - mu[x] via the single integrand
    x (W - 1) + (local change) W, the compact route next to the three terms
    of ``aggregate_price``."""
    from pricekit import fitness, local_change

    fd = fitness(p)
    delta_w = local_change(p, x, y)
    integrand = x.values * (fd.W.values - 1.0) + delta_w.values * fd.W.values
    return float(p.source.weights @ integrand)


def price_terms_by_hand(p, x, y, weight=None) -> tuple[float, float]:
    """(cov(x, V), E[(brood average of y - x) V]) with V = U, or the given
    parent observable ``weight`` (W for the aggregate change): the selective
    and environmental terms built directly."""
    from pricekit import Observable, covariance, expectation, fitness, local_change

    v = fitness(p).U if weight is None else weight
    delta_w = local_change(p, x, y)
    ec = expectation(p.source, Observable(p.source.types, delta_w.values * v.values))
    return covariance(p.source, x, v), ec


def multilevel_environmental_by_hand(p, q, y, z) -> float:
    """E[E'_w[(<z>_q - y) U']]: q's environmental change taken through p's
    brood averages, each weighted by p's U."""
    from pricekit import Observable, expectation, fitness, local_average, local_change

    u_next = fitness(q).U
    carried = Observable(q.source.types, local_change(q, y, z).values * u_next.values)
    per_parent = local_average(p, carried).values * fitness(p).U.values
    return expectation(p.source, Observable(p.source.types, per_parent))


def ec_variance_lhs_by_hand(p, q) -> float:
    """E[(<U'^2> - U^2) U], on the fitness record's u."""
    from pricekit import Observable, fitness, local_average

    fd = fitness(p)
    u_next = fitness(q).U
    avg_sq = local_average(p, Observable(q.source.types, u_next.values**2)).values
    return fd.mean((avg_sq - fd.u**2) * fd.u)


def ec_selective_entropy_lhs_by_hand(p, q) -> float:
    """E[(<-U' log U'> + U log U) U], with U' log U' formed afresh."""
    from pricekit import Observable, fitness, local_average
    from pricekit.measure import xlogx

    fd = fitness(p)
    ent_next = Observable(q.source.types, -xlogx(fitness(q).U.values))
    carried = local_average(p, ent_next).values
    return fd.mean((carried + fd.u_log_u) * fd.u)


def intergenerational_by_loops(p, q) -> tuple[float, float]:
    """(ns_s_ec, formula_route) of ``intergenerational_ec_change`` summed
    term by term over parent-child cells and next-generation cells."""
    from pricekit import Partition, fitness

    def singleton_cells(r):
        return cell_stats_by_loop(r, Partition.singletons(r.source.types),
                                  Partition.singletons(r.target.types))

    fd = fitness(p)
    u = fd.U.values
    prob = p.source.weights / p.source.size
    k, k_child = p.kernel.shape
    u_bar_matrix = p.kernel * p.source.weights[:, None] / p.target.size
    x = np.zeros(k)
    for i in range(k):
        for j in range(k_child):
            ub = u_bar_matrix[i, j]
            if ub > 1e-12:
                x[i] += -(p.kernel[i, j] / fd.wbar) * np.log(ub)
    ns = float(prob @ (x * (u - 1.0)))

    m2 = float(prob @ u**2)
    next_cells = [c["u_bar"] for c in singleton_cells(q).values() if c["u_bar"] > 1e-12]
    formula = 0.0
    for i in range(k):
        for j in range(k_child):
            ub = u_bar_matrix[i, j]
            if ub <= 1e-12:
                continue
            alpha = float(prob[i] * u[i] * p.kernel[i, j] / fd.wbar) / m2
            for ub_next in next_cells:
                formula += -alpha * ub_next * np.log(ub_next / ub)
    return ns, formula


def intergenerational_by_profiles(p, q):
    """``pricekit.intergenerational_ec_change`` with q's side read from q's
    full singleton profile: S_EC' is its s_ec and the next cells are its
    supported u_bar."""
    from pricekit import fitness, generating_profile
    from pricekit.entropy import IntergenerationalChange
    from pricekit.measure import xlogx
    from pricekit.process import check_composable

    q = check_composable(p, q)
    prof = generating_profile(p)
    prof_next = generating_profile(q)
    fd = fitness(p)
    ns = float(prof.cells.cov_ec.sum())
    price_route = (prof_next.s_ec - prof.s_ec) - ns
    u_bar, live = prof.cells.u_bar, prof.cells.p_tilde > 0
    log_ubar = np.log(u_bar, out=np.zeros_like(u_bar), where=live)
    alpha = np.where(live, fd.u[:, None] * u_bar, 0.0) / fd.moment(2)
    next_cells = prof_next.cells.u_bar[prof_next.cells.p_tilde > 0]
    formula = (alpha.sum() * np.sum(-xlogx(next_cells))
               + next_cells.sum() * np.sum(alpha * log_ubar))
    return IntergenerationalChange(
        price_route=float(price_route),
        formula_route=float(formula),
        s_ec=prof.s_ec,
        s_ec_next=prof_next.s_ec,
        ns_s_ec=ns,
    )


def ks_entropy_curve_by_horizon(p, t_max: int) -> list[float]:
    """``pricekit.ks_entropy_curve`` with every horizon computed from scratch:
    its backward masses, forward masses and row entropies are rebuilt for
    each horizon, T(T+1)/2 row-entropy arrays for T horizons."""
    from pricekit.config import EPS_ZERO
    from pricekit.measure import xlogx

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


def stationarity_by_loop(p, q, tol: float = 1e-9):
    """``pricekit.laws.stationarity`` with weak and locally-constant decided
    one parent row at a time."""
    from pricekit import fitness, local_average
    from pricekit.laws import StationarityClass

    u = fitness(p).U.values
    u_next = fitness(q).U.values
    rows = u > 1e-12
    # flow share of the child mass n * wbar, entry by entry
    n_child = p.source.size * fitness(p).wbar
    cells = np.zeros(p.kernel.shape, dtype=bool)
    for i, j in np.ndindex(*cells.shape):
        cells[i, j] = rows[i] and p.source.weights[i] * p.kernel[i, j] / n_child > 1e-12
    if not cells.any():
        return StationarityClass(True, True, True, True)

    ii, jj = np.nonzero(cells)
    ratios = u_next[jj] / u[ii]
    strong = bool(np.all(np.abs(u_next[jj] - u[ii]) <= tol))
    homogeneous = bool(ratios.max() - ratios.min() <= tol * max(1.0, abs(ratios.max())))

    rbar = local_average(p, fitness(q).U).values
    weak = True
    constant = True
    for i in np.nonzero(rows)[0]:
        row_support = cells[i]
        if not row_support.any():
            continue
        if abs(rbar[i] / u[i] - 1.0) > tol:
            weak = False
        vals = u_next[row_support]
        if vals.max() - vals.min() > tol * max(1.0, abs(vals.max())):
            constant = False
    return StationarityClass(strong, weak, homogeneous, constant)


def xlogx_by_mask(x):
    """x log x with 0 log 0 = 0: the positive entries are gathered, and their
    products scattered into zeros.  A scalar input gives a Python float."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = arr[pos] * np.log(arr[pos])
    if np.ndim(x) == 0:
        return float(out)
    return out


def u2_log_u_by_mask(fd) -> float:
    """E[U^2 log U] of a fitness record, gathered on the support."""
    pos = fd.support
    vals = np.zeros_like(fd.u)
    vals[pos] = fd.u[pos] ** 2 * np.log(fd.u[pos])
    return fd.mean(vals)


def local_average_by_mask(p, y) -> np.ndarray:
    """The brood average of y on each childbearing row, gathered on those
    rows; 0 on a childless row."""
    from pricekit import fitness

    fd = fitness(p)
    raw = p.kernel @ y.values
    out = np.zeros_like(raw)
    live = fd.support
    out[live] = raw[live] / fd.W.values[live]
    return out


def speed_limits_by_loop(p):
    """``pricekit.laws.speed_limits`` with one moment evaluation per grid
    point and per bisection step."""
    from pricekit import fitness
    from pricekit.config import EPS_BISECT, EPS_ROOT
    from pricekit.laws import DEFAULT_SPEED_GRID, LawReport
    from pricekit.measure import xlogx

    fd = fitness(p)

    def gap(c):
        with np.errstate(over="ignore"):
            m1c = fd.moment(1.0 + c)
            m2c = fd.moment(2.0 + c)
        if not (np.isfinite(m1c) and np.isfinite(m2c)):
            return float("nan")
        return float(c * np.log(m1c) - (c - 1.0) * np.log(fd.moment(2.0)) - np.log(m2c))

    c_grid = sorted(set(DEFAULT_SPEED_GRID) | {round(fd.moment(2.0), 12)})
    lhs = fd.mean(-xlogx(fd.u) * (fd.u - 1.0))
    log_inv_pstar = np.log(1.0 / fd.p_star)
    m2 = fd.moment(2.0)

    def bracket(c):
        with np.errstate(over="ignore"):
            m = fd.moment(2.0 + c)
        return -(m2 / c) * np.log(m / m2) if np.isfinite(m) else -np.inf

    best_bracket = max(bracket(c) for c in c_grid)
    basic = log_inv_pstar + best_bracket if np.isfinite(best_bracket) else None
    infinitary = log_inv_pstar - u2_log_u_by_mask(fd)

    gaps = [gap(c) for c in c_grid]
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
                if gap(mid) * ga <= 0:
                    hi = mid
                else:
                    lo = mid
            c_star = 0.5 * (lo + hi)
            break

    finite_bounds = [float(infinitary)] if basic is None else [float(basic), float(infinitary)]
    return LawReport(
        name="speed_limits",
        lhs=lhs,
        bounds=tuple(sorted(finite_bounds, reverse=True)),
        direction="ge",
        equilibrium_class=fd.equilibrium_class,
        extras={
            "basic_bound": None if basic is None else float(basic),
            "infinitary_bound": float(infinitary),
            "grid": tuple(c_grid),
            "stationary_point": c_star,
            "stationary_point_found": c_star is not None,
        },
    )


def simulate_csv_by_constructors(p, generations: int) -> str:
    """The CSV that ``price-kit simulate`` writes for the endomorphic process p,
    each generation built by the public ``Population`` and ``Process``
    constructors with every check they run."""
    import csv
    import io

    from pricekit import (Population, Process, environmental_entropy, fitness, second_law,
                          speed_limits)

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "N", "var_U", "S_NS", "S_EC", "second_law_slack", "speed_limit_slack"])
    current = p.source
    for t in range(generations + 1):
        step = Process(current, Population(current.types, p.kernel.T @ current.weights), p.kernel)
        fd = fitness(step)
        row = (current.size, fd.var_u, fd.s_ns, environmental_entropy(step),
               min(second_law(step).slacks), min(speed_limits(step).slacks))
        writer.writerow([t] + [format(v, ".17g") for v in row])
        current = step.target
    return out.getvalue()


def reversibility_kernels_by_loop(p) -> tuple[np.ndarray, np.ndarray]:
    """The retraction and section kernels that ``pricekit.reversibility``
    builds, child by child and parent by parent, whether or not the
    redistribution stage is one-sided invertible.

    Each child maps to its lowest-index parent of largest flow (a zero-mass
    child to column 0); each childbearing parent with exactly one child
    pulls back onto it with weight (its intermediate mass) / (child mass).
    """
    w = p.kernel.sum(axis=1)
    wbar = p.target.size / p.source.size
    flow = p.kernel * p.source.weights[:, None] / p.target.size
    flow[flow <= 1e-12] = 0.0
    support_rows = np.nonzero(w / wbar > 1e-12)[0]
    mid_weights = (w * p.source.weights)[support_rows]
    k_child = p.kernel.shape[1]
    n_mid = len(support_rows)

    retraction = np.zeros((k_child, n_mid))
    for j in range(k_child):
        parents = np.nonzero(flow[:, j] > 0)[0]
        if len(parents):
            best = parents[np.argmax(flow[parents, j])]
            retraction[j, np.searchsorted(support_rows, best)] = 1.0
        else:
            retraction[j, 0] = 1.0
    section = np.zeros((k_child, n_mid))
    for local_i, i in enumerate(support_rows):
        children = np.nonzero(flow[i] > 0)[0]
        if len(children) == 1:
            j = children[0]
            section[j, local_i] = mid_weights[local_i] / p.target.weights[j]
    return retraction, section


def q_cell_stats_by_loop(w, projs_a, projs_b):
    """(stats, commutation_residual) of ``pricekit.q_partition_entropy``,
    one (source, target) projection cell at a time.

    ``stats`` is an (nA, nB, len(CELL_FIELDS)) array in CELL_FIELDS order.
    Every trace is taken of a formed product and the p_tilde branch is taken
    per cell.  ``commutation_residual`` is the largest ||[D-hat, X]||_F /
    ||D-hat||_F over the cells, X the intermediate state over its Frobenius
    norm, formed as d x d matrices.
    """
    from pricekit.config import EPS_ZERO
    from pricekit.measure import xlogx
    from pricekit.quantum import (
        _check_resolution, _projector, _spectral, _support, fitness, unvec, vec,
    )

    d_in, d_out = w.dims
    projs_a = _check_resolution(projs_a, d_in, "source")
    projs_b = _check_resolution(projs_b, d_out, "target")
    fd = fitness(w)
    rho = w.source.matrix
    n = w.source.trace
    u_op = fd.U.matrix
    u_half = _spectral(fd.u, fd.eigvecs, np.sqrt, fd.support)
    u_inv_half = _spectral(fd.u, fd.eigvecs, lambda v: 1.0 / np.sqrt(v), fd.support)
    inter = u_half @ rho @ u_half            # intermediate state, trace N

    stats = np.zeros((len(projs_a), len(projs_b), len(CELL_FIELDS)))
    comm_residual = 0.0
    x = inter / np.abs(inter).max()           # no square over- or underflows
    x /= np.linalg.norm(x)
    centered = u_op - np.eye(d_in)
    pulled_b = [unvec(adjoint(w) @ vec(pb), d_in) for pb in projs_b]
    for a, pa in enumerate(projs_a):
        for b, pulled in enumerate(pulled_b):
            u_cell = pa @ pulled @ pa / fd.wbar
            u_cell = 0.5 * (u_cell + u_cell.conj().T)
            u_bar = float(np.real(np.trace(u_cell @ rho))) / n
            d_hat = u_inv_half @ u_cell @ u_inv_half
            d_hat = 0.5 * (d_hat + d_hat.conj().T)
            d_norm = max(float(np.linalg.norm(d_hat)), EPS_ZERO)
            comm = d_hat @ x - x @ d_hat
            comm_residual = max(comm_residual, float(np.linalg.norm(comm)) / d_norm)

            s_ec = float(-xlogx(max(u_bar, 0.0)))
            d_vals, d_vecs = np.linalg.eigh(d_hat)
            d_log_d = _spectral(d_vals, d_vecs, lambda v: v * np.log(v), _support(d_vals))
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
    return stats, comm_residual


def q_factorize_by_kron(w):
    """(selective, environmental, fitness_operator, support): the selective
    factor kron(1, W) and the three fields of ``pricekit.q_factorize``, with
    every product against kron(1, A) formed from the Kronecker product itself."""
    from pricekit.quantum import _projector, fitness

    d_in, _ = w.dims
    fd = fitness(w)
    w_op = fd.W.matrix
    proj = _projector(fd.eigvecs, fd.support)
    vals, vecs = fd.u[fd.support] * fd.wbar, fd.eigvecs[:, fd.support]
    eye = np.eye(d_in, dtype=complex)
    sel = np.kron(eye, w_op)
    env = w.superoperator @ np.kron(eye, (vecs / vals) @ vecs.conj().T)
    return sel, env, w_op, proj
