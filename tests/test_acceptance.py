"""Acceptance suite: one test per stated exit criterion, each printing a
pass/fail line.

Expected values come from hand derivations, not from the program:

- 5a: at a life-and-death selective equilibrium (U = 1/p_* on mass p_*,
  0 elsewhere) the selective acceleration E[-(U-1)^2 U log U] equals
  -(1/p_* - 1)^2 log(1/p_*), which is -log 2 at p_* = 1/2.
- 6b: the additive local selective entropy sums to the selective entropy,
  and a singleton cell with positive flow has the sign of -log U of its
  parent; the renormalized cells are each nonpositive.
- 8a: the Third Law's vanishing is claimed for environmental-equilibrium
  processes only, and is checked on exactly those.

8a is expected to fail: every finite process at singleton cells passes
``environmental_equilibrium``, yet its selective changes of S_EC, S_dis
and S_mix are generically nonzero (mu=(1,1), w=[[1,1],[1,0]] gives
(log 3)/9).  The paper does not define the equilibrium predicate or the
selective-change functional closely enough to say which one departs from
it.  Everything else must pass.
"""

import itertools
import time

import numpy as np

from pricekit import (
    DensityOperator,
    Partition,
    Population,
    QuantumObservable,
    QuantumProcess,
    TypeSet,
    compose,
    embed_observable,
    embed_process,
    environmental_equilibrium,
    first_law,
    fisher,
    fitness,
    generating_profile,
    kgs,
    kraus_to_super,
    ks_entropy_curve,
    local_selective_entropy,
    price,
    price_factorize,
    process,
    q_laws,
    q_price,
    reversibility,
    second_law,
    selective_acceleration,
    third_law,
    zeroth_law,
)
from pricekit.openproc import OpenProcess, dual_fitness_kgs
from pricekit.process import Process

from conftest import (
    bernoulli_dispersion,
    bernoulli_mixing,
    random_composable_pair,
    random_observable,
    random_process,
    selective_equilibrium_process,
)
from oracles import matrix_function, path_entropy_by_enumeration, search_one_sided_inverses

LOG2 = np.log(2)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {label}: {status}{(' - ' + detail) if detail else ''}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_price_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_process(rng, kmax=8)
        x = random_observable(rng, p.source.types)
        y = random_observable(rng, p.target.types)
        d = price(p, x, y)
        scale = max(abs(d.delta), abs(d.ns), abs(d.ec), 1.0)
        worst = max(worst, abs(d.residual) / scale)
    elapsed = time.perf_counter() - start
    _report(1, "price identity on 1000 randomized processes",
            worst <= 1e-9 and elapsed < 5.0,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_fisher():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        p, q = random_composable_pair(rng)
        ns, ec = fisher(p, q)
        from pricekit import variance

        assert ns == variance(p.source, fitness(p).U)
        worst = max(worst, abs(ns + ec) / max(ns, 1.0))
    _report(2, "fitness-change cancellation on 1000 pairs", worst <= 1e-9,
            f"worst |ns+ec| {worst:.2e}")


def test_criterion_3_factorization():
    rng = np.random.default_rng(1003)
    worst_mu = 0.0
    worst_kernel = 0.0
    for _ in range(1000):
        p = random_process(rng, kmax=8)
        fac = price_factorize(p)
        out = compose(fac.selective, fac.environmental)
        scale = max(p.target.size, 1.0)
        worst_mu = max(
            worst_mu,
            float(np.max(np.abs(out.target.weights - p.target.weights))) / scale,
        )
        worst_kernel = max(
            worst_kernel,
            float(np.max(np.abs(fac.selective.kernel @ fac.environmental.kernel - p.kernel))),
        )
    _report(3, "factor composition reproduces kernel and child population",
            worst_mu <= 1e-9 and worst_kernel <= 1e-12,
            f"worst population residual {worst_mu:.2e}, kernel gap {worst_kernel:.2e}")


def test_criterion_4_law_chains():
    rng = np.random.default_rng(1004)
    ok = True
    detail = ""
    for _ in range(300):
        p = random_process(rng, kmax=8)
        for rep in (zeroth_law(p), first_law(p), second_law(p)):
            if min(rep.slacks) < -1e-9:
                ok, detail = False, f"{rep.name} violated: {rep.chain}"
    for _ in range(100):
        p = selective_equilibrium_process(rng)
        p_star = fitness(p).p_star
        z, f, s = zeroth_law(p), first_law(p), second_law(p)
        checks = [
            abs(z.lhs - (1 / p_star - 1)) <= 1e-9 * max(1, z.lhs),
            all(abs(x) <= 1e-9 for x in z.slacks[:2]),
            abs(f.slacks[0]) <= 1e-9 * max(1, abs(f.lhs)),
            abs(fitness(p).s_ns - np.log(p_star)) <= 1e-9,
            abs(s.lhs - (-(1 / p_star - 1) * np.log(1 / p_star))) <= 1e-9 * max(1, abs(s.lhs)),
            all(abs(x) <= 1e-9 * max(1, abs(s.lhs)) for x in s.slacks[:-1]),
        ]
        if not all(checks):
            ok, detail = False, f"equilibrium saturation failed at p_*={p_star}"
    _report(4, "law chains hold and saturate at constructed equilibria", ok, detail)


def test_criterion_5_acceleration_constant_as_stated():
    """Selective acceleration at life-and-death equilibria, in closed form.

    At the p_* = 1/2 fixture, U = (2, 0) on equal mass, so
    E[-(U-1)^2 U log U] = 1/2 * (-2 log 2) + 1/2 * 0 = -log 2.  The value
    once stated here, -2 log 4, is not it (its quoted decimal 1.204 is
    2 log10 4).  The closed form -(1/p_* - 1)^2 log(1/p_*) is then checked
    on two-type fixtures at p_* in {1/2, 1/3, 1/4, 2/3, 3/4}, where (U-1)^2
    and (U-1) differ, and on seeded constructed equilibria, with p_* read
    off the construction (mass of the parents that have children).
    """
    src = Population(TypeSet(["a", "b"]), [1, 1])
    f1 = process(src, [[2], [0]])
    lhs = selective_acceleration(f1).lhs
    ok = abs(lhs - (-LOG2)) <= 1e-12
    detail = f"p_*=1/2: computed {lhs:.12f}, expected {-LOG2:.12f}"

    cases = []
    for alive, dead in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
        src = Population(TypeSet(["a", "b"]), [alive, dead])
        cases.append((process(src, [[1.7], [0]]), alive / (alive + dead)))
    rng = np.random.default_rng(1005)
    for _ in range(100):
        p = selective_equilibrium_process(rng)
        has_children = p.kernel.sum(axis=1) > 0
        cases.append((p, p.source.weights[has_children].sum() / p.source.size))
    worst, where = 0.0, None
    for p, p_star in cases:
        want = -((1 / p_star - 1) ** 2) * np.log(1 / p_star)
        gap = abs(selective_acceleration(p).lhs - want) / max(1.0, abs(want))
        if gap > worst:
            worst, where = gap, p_star
    if worst > 1e-12:
        ok = False
        detail += f"; closed form missed by {worst:.2e} (relative) at p_*={where:.6f}"
    _report("5a", "equilibrium acceleration equals -(1/p_*-1)^2 log(1/p_*), "
            "-log 2 at p_*=1/2", ok, detail)


def test_criterion_5_bernoulli_constants():
    ok = True
    detail = ""
    for q in np.arange(0.1, 0.95, 0.1):
        prof = generating_profile(bernoulli_dispersion(q))
        h = -q * np.log(q) - (1 - q) * np.log(1 - q)
        if abs(prof.s_dis - h) > 1e-12 or abs(prof.s_mix) > 1e-12:
            ok, detail = False, f"dispersion at q={q:.1f}"
        prof_m = generating_profile(bernoulli_mixing(q))
        if abs(prof_m.s_mix - h) > 1e-12 or abs(prof_m.s_dis) > 1e-12:
            ok, detail = False, f"mixing at p={q:.1f}"
    _report("5b", "two-point splitting/pooling entropy constants", ok, detail)


def test_criterion_6_entropy_decomposition():
    rng = np.random.default_rng(1006)
    ok = True
    detail = ""
    for _ in range(300):
        p = random_process(rng, kmax=8)
        prof = generating_profile(p)
        if abs(prof.s_ec - (prof.s_dis + prof.s_mix)) > 1e-9 * max(1, prof.s_ec):
            ok, detail = False, "decomposition residual"
        if min(prof.s_ec, prof.s_dis, prof.s_mix) < -1e-12:
            ok, detail = False, "negative partition entropy"
        if prof.s_ns > 1e-12:
            ok, detail = False, "positive selective entropy"
    _report(6, "partition entropy decomposition and signs", ok, detail)


def test_criterion_6_local_cells_as_stated():
    """Local selective entropy at singleton cells, as its docstring states.

    The renormalized cells are each nonpositive.  The additive cells
    E[-U_{A,B} log U] sum to the selective entropy, which is nonpositive
    and equals -E[U log U] computed here from the kernel.  An additive cell
    with positive flow w_ij mu_i carries -(w_ij / wbar) mu_i log U_i / N, so
    it is positive exactly when its parent has U_i < 1 (parents within
    1e-12 of U = 1 are left out of the sign check).
    """
    rng = np.random.default_rng(1066)
    worst_renorm = -np.inf
    worst_sum = 0.0
    worst_total = -np.inf
    mismatches = 0
    for _ in range(100):
        p = random_process(rng, kmax=6)
        mu = p.source.weights
        w_row = p.kernel.sum(axis=1)
        u = w_row / (mu @ w_row / p.source.size)
        pos = u > 0
        by_hand = -(mu[pos] @ (u[pos] * np.log(u[pos]))) / p.source.size
        total = 0.0
        for i, a in enumerate(Partition.singletons(p.source.types).blocks):
            for j, b in enumerate(Partition.singletons(p.target.types).blocks):
                worst_renorm = max(
                    worst_renorm, local_selective_entropy(p, a, b, renormalized=True))
                val = local_selective_entropy(p, a, b)
                total += val
                if p.kernel[i, j] > 0 and abs(u[i] - 1) > 1e-12 \
                        and (val > 0) != (u[i] < 1):
                    mismatches += 1
        worst_sum = max(worst_sum, abs(total - fitness(p).s_ns),
                        abs(total - by_hand))
        worst_total = max(worst_total, total)
    _report("6b", "renormalized cells nonpositive, additive cells sum to S_NS "
            "with the sign of -log U",
            worst_renorm <= 1e-12 and worst_sum <= 1e-9 and worst_total <= 1e-12
            and mismatches == 0,
            f"max renormalized cell {worst_renorm:.3e}, sum residual "
            f"{worst_sum:.3e}, max total {worst_total:.3e}, "
            f"{mismatches} sign mismatches")


def test_criterion_7_reversibility_oracle_equivalence():
    levels = [0.0, 0.5, 1.0]
    checked = 0
    mismatches = 0
    worst_compose = 0.0
    for k in (1, 2, 3):
        for k2 in (1, 2, 3):
            for entries in itertools.product(levels, repeat=k * k2):
                kernel = np.array(entries).reshape(k, k2)
                if kernel.sum() == 0:
                    continue
                src = Population(TypeSet.range(k), np.ones(k))
                p = process(src, kernel)
                v = reversibility(p)
                left, right = search_one_sided_inverses(p)
                if (v.left_invertible, v.right_invertible) != (left, right):
                    mismatches += 1
                checked += 1
                if v.retraction is not None:
                    fac = price_factorize(p)
                    comp = fac.environmental.kernel @ v.retraction.kernel
                    n = comp.shape[0]
                    worst_compose = max(
                        worst_compose, float(np.max(np.abs(comp - np.eye(n))))
                    )
    _report(7, "entropy verdict matches exhaustive inverse search",
            mismatches == 0 and worst_compose <= 1e-10,
            f"{checked} kernels, {mismatches} mismatches, "
            f"worst retraction residual {worst_compose:.2e}")


def test_criterion_8_weak_third_law_as_stated():
    """Weak Third Law: at environmental equilibrium the selective changes of
    S_EC, S_dis and S_mix vanish.

    Only drawn processes that ``environmental_equilibrium`` accepts are
    checked, and at least one must be.  Expected to fail: at singleton
    cells every finite process is accepted, and the changes are generically
    nonzero (mu=(1,1), w=[[1,1],[1,0]] gives (log 3)/9).  The windows
    criterion below is the part that holds.
    """
    rng = np.random.default_rng(1008)
    checked = 0
    worst, where = 0.0, "none"
    for _ in range(100):
        p = random_process(rng, kmax=6)
        in_eq, _ = environmental_equilibrium(p)
        if not in_eq:
            continue
        checked += 1
        change = max(abs(r.lhs) for r in third_law(p).values())
        if change > worst:
            worst = change
            where = (f"K={len(p.source.types)}, K'={len(p.target.types)}, "
                     f"environmental_equilibrium={in_eq}")
    _report("8a", "selective change of partition entropies vanishes at "
            "environmental equilibrium", checked > 0 and worst <= 1e-9,
            f"{checked} equilibrium processes, max |selective change| "
            f"{worst:.3e} at {where}")


def test_criterion_8_windows():
    rng = np.random.default_rng(1088)
    ok = True
    detail = ""
    # singleton partitions: windows collapse onto the lhs
    for _ in range(150):
        p = random_process(rng, kmax=6)
        for rep in third_law(p).values():
            inside = rep.extras["lower_bound"] - 1e-9 <= rep.lhs <= rep.bounds[0] + 1e-9
            collapsed = abs(rep.extras["window_width"]) <= 1e-9
            if not (inside and collapsed):
                ok, detail = False, f"{rep.name}: width {rep.extras['window_width']:.2e}"
    # block-partition fixture out of equilibrium: lhs stays inside the window
    src = Population(TypeSet(["a", "b"]), [1, 1])
    p = process(src, [[0.9, 0.1], [0.5, 0.5]])
    part_a = Partition(p.source.types, [("a", "b")])
    part_b = Partition.singletons(p.target.types)
    flag, _ = environmental_equilibrium(p, part_a, part_b)
    if flag:
        ok, detail = False, "fixture unexpectedly in equilibrium"
    for rep in third_law(p, part_a, part_b).values():
        if not (rep.extras["lower_bound"] - 1e-9 <= rep.lhs <= rep.bounds[0] + 1e-9):
            ok, detail = False, f"block window misses lhs for {rep.name}"
    _report("8b", "fluctuation windows bracket the selective changes", ok, detail)


def test_criterion_9_kgs():
    rng = np.random.default_rng(1009)
    ok = True
    detail = ""
    for _ in range(200):
        p = random_process(rng, kmax=6)
        orphan = rng.uniform(0, 1.0, len(p.target.types))
        full = Population(p.target.types, p.target.weights + orphan)
        op = OpenProcess(p, full)
        x = random_observable(rng, p.source.types)
        y = random_observable(rng, p.target.types)
        comp = kgs(op, x, y)
        if abs(comp.orphan_nu - comp.orphan_pi) > 1e-10 * max(1, abs(comp.orphan_nu)):
            ok, detail = False, "nu/pi forms disagree"
        if abs(comp.residual) > 1e-10 * max(1, abs(comp.delta)):
            ok, detail = False, "three-term sum misses the change"
        dual = dual_fitness_kgs(op, x, y)
        if abs(dual.dual_mean - 1.0) > 1e-12:
            ok, detail = False, "dual fitness mean differs from one"
        # closed reduction is exact
        closed = OpenProcess(p, p.target)
        base = price(p, x, y)
        c = kgs(closed, x, y)
        if abs(c.selective - base.ns) > 1e-12 or abs(c.environmental - base.ec) > 1e-12:
            ok, detail = False, "closed case does not reduce to the two-term identity"
    _report(9, "open-process identities", ok, detail)


def test_criterion_10_quantum():
    rng = np.random.default_rng(1010)
    ok = True
    detail = ""

    # classical diagonal embedding reproduces classical functionals
    for _ in range(200):
        p = random_process(rng, kmax=4)
        w = embed_process(p)
        x = random_observable(rng, p.source.types)
        y = random_observable(rng, p.target.types)
        d = price(p, x, y)
        res = q_price(w, embed_observable(x.values), embed_observable(y.values))
        if (
            abs(res.delta - d.delta) > 1e-10
            or abs(res.left.ns.real - d.ns) > 1e-10
            or abs(res.left.ec.real - d.ec) > 1e-10
        ):
            ok, detail = False, "embedding mismatch"
        ql = q_laws(w)
        if abs(ql["second"].lhs - second_law(p).lhs) > 1e-10:
            ok, detail = False, "embedded law mismatch"
        if abs(ql["gibbs"].lhs - fitness(p).s_ns) > 1e-10:
            ok, detail = False, "embedded entropy mismatch"

    # left/right residuals on random positive maps, d <= 4
    for _ in range(200):
        d_in = int(rng.integers(2, 5))
        kraus = [
            rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
            for _ in range(int(rng.integers(1, 4)))
        ]
        g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        w = QuantumProcess(kraus_to_super(kraus), DensityOperator(g @ g.conj().T))
        x = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        x = QuantumObservable(0.5 * (x + x.conj().T))
        y = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        y = QuantumObservable(0.5 * (y + y.conj().T))
        res = q_price(w, x, y)
        if res.residual_left > 1e-9 or res.residual_right > 1e-9:
            ok, detail = False, f"price residual {max(res.residual_left, res.residual_right):.2e}"
        for rep in q_laws(w).values():
            if min(rep.slacks) < -1e-9:
                ok, detail = False, f"quantum chain {rep.name} violated"

    # operator convexity on random triples
    funcs = [
        (lambda v: v**2, False),
        (lambda v: np.exp(v), False),
        (lambda v: v * np.log(np.maximum(v, 1e-300)), True),
    ]
    for _ in range(167):
        d_in = int(rng.integers(2, 5))
        g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        rho = DensityOperator(g @ g.conj().T)
        for f, needs_psd in funcs:
            if needs_psd:
                h = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
                xm = h @ h.conj().T
            else:
                h = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
                xm = 0.5 * (h + h.conj().T)
            fx = matrix_function(xm, f)
            mean_fx = float(np.real(np.trace(fx @ rho.matrix))) / rho.trace
            mean_x = float(np.real(np.trace(xm @ rho.matrix))) / rho.trace
            if mean_fx < f(mean_x) - 1e-9:
                ok, detail = False, "operator convexity violated"

    # the life-or-death operator fixture matches the classical values
    a = np.diag([np.sqrt(2), 0.0]).astype(complex)
    w = QuantumProcess(kraus_to_super([a]), DensityOperator(np.eye(2)))
    reports = q_laws(w)
    fixture_ok = (
        abs(reports["zeroth"].lhs - 1.0) < 1e-12
        and abs(reports["second"].lhs + LOG2) < 1e-12
        and abs(reports["gibbs"].lhs + LOG2) < 1e-12
        and abs(reports["acceleration"].lhs + LOG2) < 1e-12
        and abs(reports["zeroth"].extras["p_star"] - 0.5) < 1e-12
    )
    if not fixture_ok:
        ok, detail = False, "operator equilibrium fixture mismatch"
    _report(10, "operator-level identities, chains, and embeddings", ok, detail)


def test_criterion_11_path_entropy():
    ok = True
    detail = ""
    # permutation kernels: constant across horizons
    src = Population(TypeSet(["a", "b", "c"]), [1, 2, 3])
    perm = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    p = Process(src, Population(src.types, perm.T @ src.weights), perm)
    curve = ks_entropy_curve(p, 6)
    if max(abs(v - curve[0]) for v in curve) > 1e-12:
        ok, detail = False, "permutation curve not constant"
    # symmetric doubly stochastic kernel at horizon 2 vs enumeration
    src2 = Population(TypeSet(["a", "b"]), [1, 1])
    sym = Process(src2, Population(src2.types, [1, 1]), [[0.5, 0.5], [0.5, 0.5]])
    got = ks_entropy_curve(sym, 2)[-1]
    want = path_entropy_by_enumeration(sym, 2)
    if abs(got - want) > 1e-12:
        ok, detail = False, f"symmetric kernel: {got} vs {want}"
    _report(11, "finite-horizon path entropy", ok, detail)
