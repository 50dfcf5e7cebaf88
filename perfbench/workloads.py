"""Ops of the four workloads and the checks every op's output must pass.

An op is one unit of user work.  ``Op.run`` is the timed part and returns
the raw result (an exit code, or the values the library returned);
``Op.output`` turns it into a flat ``{field: value}`` dict, reading any
output file, and ``Op.check`` lists what is wrong with it.  Only ``run``
calls into price-kit, so a traced run sees no spans outside ops.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pricekit as pk
import pricekit.cli
from pricekit.config import EPS_REL, EPS_SAT

from . import gen

# Field-by-field comparison with the references recorded at the seed commit
# and with earlier outputs of the same input: reordered floating-point sums
# move values by ~1e-14 relative, so 1e-9 leaves room for a vectorised
# rewrite while catching any change of meaning.
REF_REL, REF_ABS = 1e-9, 1e-12

REPORT_SECTIONS = ("fitness", "purity", "factorization", "price", "laws", "entropy",
                   "kgs", "stationarity")
SIMULATE_HEADER = ["t", "N", "var_U", "S_NS", "S_EC", "second_law_slack", "speed_limit_slack"]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    output: Callable[[object], dict]
    check: Callable[[dict], list[str]]


# ---------------------------------------------------------------------------
# Flat outputs and comparison


def flatten(obj, prefix: str = "", out: dict | None = None) -> dict:
    out = {} if out is None else out
    if isinstance(obj, dict):
        for k in sorted(obj):
            flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def same_value(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REF_REL, abs_tol=REF_ABS)


def compare(ref: dict, got: dict, limit: int = 5) -> list[str]:
    problems = []
    missing = sorted(set(ref) - set(got))
    extra = sorted(set(got) - set(ref))
    if missing:
        problems.append(f"missing fields {missing[:limit]}")
    if extra:
        problems.append(f"unexpected fields {extra[:limit]}")
    for key in ref:
        if key in got and not same_value(ref[key], got[key]):
            problems.append(f"{key}: expected {ref[key]!r}, got {got[key]!r}")
            if len(problems) >= limit:
                break
    return problems


def _close(a: float, b: float, tol: float = EPS_REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _nonfinite(flat: dict) -> list[str]:
    return [k for k, v in flat.items()
            if isinstance(v, float) and not math.isfinite(v)]


# ---------------------------------------------------------------------------
# CLI report: report p --next q --json out


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _remove(path: str) -> None:
    """Delete an op's output file once read, so the next op cannot reuse it."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def report_op(label: str, p_path: str, q_path: str, out_path: str) -> Op:
    doc = _read_json(p_path)
    argv = ["report", p_path, "--next", q_path, "--json", out_path]

    def run():
        return pk.cli.main(argv)

    def output(code):
        flat = {"exit_code": code}
        report = _read_json(out_path) if code == 0 else None
        _remove(out_path)
        if isinstance(report, dict):
            flatten(report, out=flat)
        return flat

    return Op(label, run, output, lambda flat: check_report(doc, flat))


def check_report(doc: dict, flat: dict) -> list[str]:
    if flat.get("exit_code") != 0:
        return [f"exit code {flat.get('exit_code')}"]
    problems = []
    sections = REPORT_SECTIONS + (("quantum",) if "quantum" in doc else ())
    for section in sections:
        if not any(k == section or k.startswith(section + ".") for k in flat):
            problems.append(f"section {section} missing")
    if problems:
        return problems
    bad = _nonfinite(flat)
    if bad:
        problems.append(f"non-finite values at {bad[:5]}")
    problems += [f"{k} is false" for k, v in flat.items()
                 if k.endswith(".satisfied") and v is not True]

    for key in [k[:-len(".delta")] for k in flat if k.startswith("price.") and k.endswith(".delta")]:
        delta, ns, ec = flat[key + ".delta"], flat[key + ".ns"], flat[key + ".ec"]
        scale = max(1.0, abs(delta), abs(ns), abs(ec))
        if abs(flat[key + ".residual"]) > EPS_REL * scale or abs(delta - ns - ec) > EPS_REL * scale:
            problems.append(f"{key}: Price identity off by {delta - ns - ec:.3e}")
    kgs = {k: flat["kgs." + k] for k in ("delta", "selective", "environmental", "orphan_nu",
                                          "orphan_pi", "residual")}
    scale = max(1.0, *(abs(v) for v in kgs.values()))
    total = kgs["selective"] + kgs["environmental"] + kgs["orphan_nu"]
    if abs(kgs["residual"]) > EPS_REL * scale or abs(kgs["delta"] - total) > EPS_REL * scale \
            or abs(kgs["orphan_nu"] - kgs["orphan_pi"]) > EPS_REL * scale:
        problems.append(f"KGS identity off by {kgs['delta'] - total:.3e}")
    if "quantum" in doc:
        for side in ("left_residual", "right_residual"):
            if flat["quantum." + side] > EPS_REL * max(1.0, flat["quantum.wbar"]):
                problems.append(f"quantum {side} {flat['quantum.' + side]:.3e}")
    s_ec, s_dis, s_mix = (flat["entropy." + k] for k in ("s_ec", "s_dis", "s_mix"))
    if not _close(s_ec, s_dis + s_mix):
        problems.append(f"S_EC != S_dis + S_mix ({s_ec} vs {s_dis + s_mix})")

    # Values the input determines directly.
    kernel = np.asarray(doc["kernel"], dtype=float)
    weights = np.asarray(doc["weights"], dtype=float)
    w_rows = kernel.sum(axis=1)
    for i, w in enumerate(w_rows):
        if not _close(flat[f"fitness.W[{i}]"], w):
            problems.append(f"fitness.W[{i}] = {flat[f'fitness.W[{i}]']}, row sum is {w}")
            break
    if not _close(flat["fitness.wbar"], float((kernel.T @ weights).sum() / weights.sum())):
        problems.append("fitness.wbar is not N'/N")
    childless = [doc["types"][i] for i in np.nonzero(w_rows == 0)[0]]
    dropped = [v for k, v in flat.items() if k.startswith("factorization.dropped_types[")]
    if dropped != childless:
        problems.append(f"dropped types {dropped}, childless rows {childless}")
    nz = kernel > 0
    rev = {k: flat["entropy.reversibility." + k] for k in ("left_invertible", "right_invertible")}
    if rev["right_invertible"] != bool((nz.sum(axis=1) <= 1).all()):
        problems.append("right_invertible disagrees with the kernel's row supports")
    if rev["left_invertible"] != bool((nz.sum(axis=0) <= 1).all()):
        problems.append("left_invertible disagrees with the kernel's column supports")
    return problems


# ---------------------------------------------------------------------------
# CLI simulate: simulate p --generations 16 --out csv


def simulate_op(label: str, p_path: str, out_path: str) -> Op:
    doc = _read_json(p_path)
    argv = ["simulate", p_path, "--generations", str(gen.SIMULATE_GENERATIONS), "--out", out_path]

    def run():
        return pk.cli.main(argv)

    def output(code):
        flat = {"exit_code": code}
        if code == 0:
            try:
                with open(out_path, newline="") as fh:
                    rows = list(csv.reader(fh))
            except OSError:
                return flat
            finally:
                _remove(out_path)
            flat["header"] = ",".join(rows[0]) if rows else ""
            for r, row in enumerate(rows[1:]):
                for name, value in zip(SIMULATE_HEADER, row):
                    flat[f"row[{r}].{name}"] = float(value)
        return flat

    return Op(label, run, output, lambda flat: check_simulate(doc, flat))


def check_simulate(doc: dict, flat: dict) -> list[str]:
    if flat.get("exit_code") != 0:
        return [f"exit code {flat.get('exit_code')}"]
    if flat.get("header") != ",".join(SIMULATE_HEADER):
        return [f"CSV header {flat.get('header')!r}"]
    n_rows = gen.SIMULATE_GENERATIONS + 1
    if f"row[{n_rows - 1}].t" not in flat or f"row[{n_rows}].t" in flat:
        return [f"expected {n_rows} CSV rows"]
    problems = []
    bad = _nonfinite(flat)
    if bad:
        problems.append(f"non-finite values at {bad[:5]}")
    kernel = np.asarray(doc["kernel"], dtype=float)
    mu = np.asarray(doc["weights"], dtype=float)
    for t in range(n_rows):
        row = {name: flat[f"row[{t}].{name}"] for name in SIMULATE_HEADER}
        if row["t"] != t:
            problems.append(f"row {t} has t = {row['t']}")
        if not _close(row["N"], float(mu.sum())):
            problems.append(f"row {t}: N = {row['N']}, population size is {mu.sum()}")
        if row["S_NS"] > EPS_SAT or row["S_EC"] < -EPS_SAT or row["var_U"] < 0:
            problems.append(f"row {t}: entropy or variance has the wrong sign")
        if min(row["second_law_slack"], row["speed_limit_slack"]) < -EPS_SAT:
            problems.append(f"row {t}: a law chain is violated")
        mu = kernel.T @ mu
    return problems


# ---------------------------------------------------------------------------
# Library: classical functionals next to their embedded twins


def _process(doc: dict) -> "pk.Process":
    source = pk.Population(pk.TypeSet(doc["types"]), doc["weights"])
    kernel = np.asarray(doc["kernel"], dtype=float)
    target = pk.Population(pk.TypeSet(doc["target_types"]), kernel.T @ source.weights)
    return pk.Process(source, target, kernel)


def _law(prefix: str, rep, out: dict) -> None:
    out[prefix + ".lhs"] = rep.lhs
    for i, b in enumerate(rep.bounds):
        out[f"{prefix}.bounds[{i}]"] = b


def crosscheck_op(label: str, p_path: str, q_path: str) -> Op:
    p_doc = _read_json(p_path)
    p, q = _process(p_doc), _process(_read_json(q_path))
    x_values = np.asarray(p_doc["observables"]["trait"], dtype=float)
    y_values = np.asarray(p_doc["observables"]["offspring_trait"], dtype=float)
    k, k_out = p.kernel.shape
    projs_a = [np.diag(np.eye(k)[i]) for i in range(k)]
    projs_b = [np.diag(np.eye(k_out)[j]) for j in range(k_out)]

    def run():
        x = pk.Observable(p.source.types, x_values)
        y = pk.Observable(p.target.types, y_values)
        wq = pk.embed_process(p)
        return {
            "q_laws": pk.q_laws(wq),
            "q_partition": pk.q_partition_entropy(wq, projs_a, projs_b),
            "q_factorize": pk.q_factorize(wq),
            "q_price": pk.q_price(wq, pk.embed_observable(x_values), pk.embed_observable(y_values)),
            "standard_reports": pk.standard_reports(p),
            "price": pk.price(p, x, y),
            "profile": pk.generating_profile(p),
            "third_law": pk.third_law(p),
            "intergenerational": pk.intergenerational_ec_change(p, q),
            "ks_curve": pk.ks_entropy_curve(p, gen.KS_HORIZON),
        }

    def output(res):
        out = {}
        classical = {r.name: r for r in res["standard_reports"]}
        for name, rep in classical.items():
            _law("classical.laws." + name, rep, out)
        for name, rep in res["q_laws"].items():
            _law("quantum.laws." + name, rep, out)
        pr, qp = res["price"], res["q_price"]
        out.update({"classical.price.delta": pr.delta, "classical.price.ns": pr.ns,
                    "classical.price.ec": pr.ec, "classical.price.residual": pr.residual,
                    "quantum.price.delta": qp.delta})
        for side in ("left", "right"):
            part = getattr(qp, side)
            out[f"quantum.price.{side}.ns.re"] = part.ns.real
            out[f"quantum.price.{side}.ns.im"] = part.ns.imag
            out[f"quantum.price.{side}.ec.re"] = part.ec.real
            out[f"quantum.price.{side}.ec.im"] = part.ec.imag
            out[f"quantum.price.{side}.residual"] = getattr(qp, f"residual_{side}")
        prof, qprof = res["profile"], res["q_partition"].profile
        for name in ("s_ns", "s_ec", "s_dis", "s_mix"):
            out[f"classical.profile.{name}"] = getattr(prof, name)
            out[f"quantum.profile.{name}"] = getattr(qprof, name)
        for key, rep in res["third_law"].items():
            _law(f"classical.third_law.{key}", rep, out)
            out[f"classical.third_law.{key}.lower_bound"] = rep.extras["lower_bound"]
        for key, rep in res["q_partition"].third_law.items():
            _law(f"quantum.third_law.{key}", rep, out)
            out[f"quantum.third_law.{key}.lower_bound"] = rep.extras["lower_bound"]
        out["quantum.commutation_residual"] = res["q_partition"].commutation_residual
        fop = res["q_factorize"].fitness_operator
        for i, v in enumerate(np.diag(fop)):
            out[f"quantum.fitness_operator[{i}].re"] = float(v.real)
        out["quantum.fitness_operator.offdiag_max"] = float(np.abs(fop - np.diag(np.diag(fop))).max())
        ig = res["intergenerational"]
        for name in ("price_route", "formula_route", "s_ec", "s_ec_next", "ns_s_ec"):
            out[f"classical.intergenerational.{name}"] = getattr(ig, name)
        for t, h in enumerate(res["ks_curve"], start=1):
            out[f"classical.ks_entropy[{t}]"] = h
        return out

    return Op(label, run, output, lambda flat: check_crosscheck(p, flat))


# Classical name -> embedded name for the law chains both sides report.
LAW_PAIRS = {"zeroth_law": "zeroth", "first_law": "first", "second_law": "second",
             "selective_acceleration": "acceleration"}


def check_crosscheck(p, flat: dict) -> list[str]:
    problems = []
    bad = _nonfinite(flat)
    if bad:
        problems.append(f"non-finite values at {bad[:5]}")

    def agree(a_key, b_key):
        a, b = flat.get(a_key), flat.get(b_key)
        if a is None or b is None or not _close(a, b):
            problems.append(f"{a_key} = {a} but {b_key} = {b}")

    for c_name, q_name in LAW_PAIRS.items():
        for key in [k for k in flat if k.startswith(f"classical.laws.{c_name}.")]:
            agree(key, key.replace(f"classical.laws.{c_name}.", f"quantum.laws.{q_name}."))
    agree("quantum.laws.gibbs.lhs", "classical.profile.s_ns")
    agree("classical.price.delta", "quantum.price.delta")
    for side in ("left", "right"):
        agree("classical.price.ns", f"quantum.price.{side}.ns.re")
        agree("classical.price.ec", f"quantum.price.{side}.ec.re")
        if flat.get(f"quantum.price.{side}.residual", 1.0) > EPS_REL:
            problems.append(f"quantum {side} residual {flat.get(f'quantum.price.{side}.residual')}")
    if abs(flat.get("classical.price.residual", 1.0)) > EPS_REL:
        problems.append("classical Price residual out of tolerance")
    for name in ("s_ns", "s_ec", "s_dis", "s_mix"):
        agree(f"classical.profile.{name}", f"quantum.profile.{name}")
    for key in [k for k in flat if k.startswith("classical.third_law.")]:
        agree(key, key.replace("classical.", "quantum.", 1))
    agree("classical.intergenerational.s_ec", "classical.profile.s_ec")
    for i, w in enumerate(p.fitness_values):
        if not _close(flat.get(f"quantum.fitness_operator[{i}].re", math.nan), w):
            problems.append(f"fitness operator diagonal {i} is not the row sum {w}")
    if flat.get("quantum.fitness_operator.offdiag_max", 1.0) > EPS_REL:
        problems.append("embedded fitness operator is not diagonal")
    return problems


# ---------------------------------------------------------------------------
# Workload assembly


def prepare(workload: str, input_dir: str, out_dir: str, pairs: int | None = None) -> list[Op]:
    """Ops over the files in ``input_dir``; outputs are written to ``out_dir``.

    ``pairs`` limits screen_small to its first pairs, so tests stay short.
    """
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(input_dir, name)

    if workload == "report_large":
        return [report_op("report", path("p.json"), path("q.json"),
                          os.path.join(out_dir, "report.json"))]
    if workload == "simulate_long":
        return [simulate_op("simulate", path("p.json"), os.path.join(out_dir, "simulate.csv"))]
    if workload == "screen_small":
        n = gen.SCREEN_PAIRS if pairs is None else pairs
        out = os.path.join(out_dir, "report.json")
        return [report_op(f"pair{i:03d}", path(f"p{i:03d}.json"), path(f"q{i:03d}.json"), out)
                for i in range(n)]
    if workload == "library_crosscheck":
        return [crosscheck_op("crosscheck", path("p.json"), path("q.json"))]
    raise ValueError(f"unknown workload {workload!r}")
