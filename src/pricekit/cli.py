"""File-driven front door: validate, report, simulate.

Input files are JSON documents describing a process (types, weights,
kernel, optional target weights and observables, optional partition /
quantum / open blocks).  Exit codes: 0 success, 1 semantic failure (any
ValueError, IdentityViolation included), 2 parse or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import config
from .entropy import (Partition, environmental_entropy, generating_profile, reversibility,
                      third_law)
from .laws import (
    ec_selective_entropy_bound,
    ec_variance_bound,
    exp_first_law,
    higher_order_first_law,
    multilevel_second_law,
    second_law,
    speed_limits,
    standard_reports,
    stationarity,
)
from .measure import Observable, Population, TypeSet, finite_array
from .openproc import OpenProcess, kgs
from .price import price
from .process import (
    Process,
    classify_purity,
    fitness,
    price_factorize,
    validate,
)
from .quantum import (
    DensityOperator,
    QuantumObservable,
    QuantumProcess,
    q_fitness,
    q_laws,
    q_price,
)

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _tolerance() -> float:
    raw = os.environ.get("PRICEKIT_TOLERANCE")
    if raw is None:
        return config.EPS_REL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InputError(f"bad PRICEKIT_TOLERANCE value: {raw!r}") from exc
    if not tol >= 0:  # NaN would pass every residual, a negative value fail every one
        raise InputError(f"PRICEKIT_TOLERANCE must be a number >= 0, got {raw!r}")
    return tol


def load_input(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    for key in ("types", "weights", "kernel"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    return doc


def build_unchecked(doc: dict) -> Process:
    """Assemble the process without enforcing the disintegration identity."""
    types = TypeSet(doc["types"])
    source = Population(types, doc["weights"])
    kernel = finite_array(doc["kernel"], "kernel entries")
    if kernel.ndim != 2 or kernel.shape[0] != len(types):
        raise InputError("kernel must have one row per source type")
    if "target_types" in doc:
        t_types = TypeSet(doc["target_types"])
    else:
        t_types = TypeSet.range(kernel.shape[1], prefix="c")
    if kernel.shape[1] != len(t_types):
        raise InputError("kernel must have one column per target type")
    if "target_weights" in doc:
        target = Population(t_types, doc["target_weights"])
    else:
        target = Population(t_types, kernel.T @ source.weights)
    return Process(source, target, kernel, _check=False)


def _load_valid(path: str) -> tuple[dict, Process]:
    """The document at ``path`` and its process, which must pass validation."""
    doc = load_input(path)
    p = build_unchecked(doc)
    residual = validate(p).max_residual
    if residual > _tolerance():
        raise ValueError(f"{path} fails validation: max residual {residual:.3e}")
    return doc, p


def _observables(doc: dict, p: Process) -> tuple[dict, dict]:
    on_source, on_target = {}, {}
    for name, values in doc.get("observables", {}).items():
        values = list(values)
        matched = False
        if len(values) == len(p.source.types):
            on_source[name] = Observable(p.source.types, values)
            matched = True
        if len(values) == len(p.target.types):
            on_target[name] = Observable(p.target.types, values)
            matched = True
        if not matched:
            raise InputError(f"observable {name!r} matches neither type set")
    return on_source, on_target


def cmd_validate(args) -> int:
    doc = load_input(args.file)
    p = build_unchecked(doc)
    diag = validate(p)
    tol = _tolerance()
    ok = diag.max_residual <= tol
    print(f"max relative disintegration residual: {diag.max_residual:.3e}")
    if not ok:
        print("failing target types:")
        for label, res in zip(p.target.types.labels, diag.residuals):
            if res > tol:
                print(f"  {label}: residual {res:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _law_section(p: Process, q: Process | None) -> dict:
    reports = {r.name: r.to_dict() for r in standard_reports(p)}
    for n in (2, 3):
        rep = higher_order_first_law(p, n)
        reports[rep.name] = rep.to_dict()
    try:
        rep = exp_first_law(p)
        reports[rep.name] = rep.to_dict()
    except ValueError:
        pass  # exponential overflows for extreme relative fitness
    if q is not None:
        reports["ec_variance_bound"] = ec_variance_bound(p, q).to_dict()
        reports["ec_selective_entropy_bound"] = ec_selective_entropy_bound(p, q).to_dict()
        reports["multilevel_second_law"] = multilevel_second_law(p, q).to_dict()
    return reports


def _entropy_section(p: Process, doc: dict) -> dict:
    prof = generating_profile(p)
    dis, mix = prof.bounds
    verdict = reversibility(p)
    section = {
        "s_ns": prof.s_ns,
        "s_ec": prof.s_ec,
        "s_dis": prof.s_dis,
        "s_mix": prof.s_mix,
        "s_tot": prof.s_tot,
        "dispersion_bounds": dis.to_dict(),
        "mixing_bounds": mix.to_dict(),
        "third_law": {k: r.to_dict() for k, r in prof.third_law.items()},
        "reversibility": {
            "left_invertible": verdict.left_invertible,
            "right_invertible": verdict.right_invertible,
            "invertible": verdict.invertible,
            "dollo_childbearing": verdict.dollo_childbearing,
            "dollo_full": verdict.dollo_full,
            "dis_obstruction": verdict.dis_obstruction,
            "mix_obstruction": verdict.mix_obstruction,
        },
    }
    if "partitions" in doc:
        part = doc["partitions"]
        part_a = Partition(p.source.types, part["source"])
        part_b = Partition(p.target.types, part["target"])
        block = third_law(p, part_a, part_b)
        section["block_third_law"] = {k: r.to_dict() for k, r in block.items()}
    return section


def _quantum_section(doc: dict) -> dict:
    if "quantum" not in doc:
        raise InputError("no quantum block in the input file")
    block = doc["quantum"]
    rho = DensityOperator(_complex_matrix(block["rho"]))
    if "superoperator" in block:
        w = QuantumProcess(_complex_matrix(block["superoperator"]), rho)
    elif "kraus" in block:
        w = QuantumProcess.from_kraus([_complex_matrix(a) for a in block["kraus"]], rho)
    else:
        raise InputError("quantum block needs a superoperator or kraus list")
    fd = q_fitness(w)
    d_out = w.target.dim
    result = q_price(
        w, QuantumObservable(fd.U.matrix), QuantumObservable(np.eye(d_out))
    )
    return {
        "wbar": fd.wbar,
        "p_star": fd.p_star,
        "left_residual": result.residual_left,
        "right_residual": result.residual_right,
        "commutator_gap_imag": result.commutator_gap.imag,
        "laws": {k: r.to_dict() for k, r in q_laws(w).items()},
    }


def _complex_matrix(entries) -> np.ndarray:
    def scal(v):
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(v[0], v[1])
        return complex(v)

    return np.array([[scal(v) for v in row] for row in entries])


def _kgs_section(doc: dict, p: Process) -> dict:
    if "open" not in doc:
        raise InputError("no open block in the input file")
    orphan = np.asarray(doc["open"]["orphan_weights"], dtype=float)
    if len(orphan) != len(p.target.types):
        raise InputError("orphan weights must match the target type set")
    full = Population(p.target.types, p.target.weights + orphan)
    op = OpenProcess(p, full)
    u = fitness(p).U
    ones = Observable(p.target.types, np.ones(len(p.target.types)))
    comp = kgs(op, u, ones)
    return {
        "parented_share": comp.parented_share,
        "selective": comp.selective,
        "environmental": comp.environmental,
        "orphan_nu": comp.orphan_nu,
        "orphan_pi": comp.orphan_pi,
        "delta": comp.delta,
        "residual": comp.residual,
    }


def cmd_report(args) -> int:
    doc, p = _load_valid(args.file)
    want_all = not (args.laws or args.entropy or args.quantum or args.kgs)
    fd = fitness(p)
    on_source, on_target = _observables(doc, p)

    q = _load_valid(args.next)[1] if args.next else None
    factors = price_factorize(p)
    report = {
        "schema_version": SCHEMA_VERSION,
        "fitness": {
            "W": list(fd.W.values),
            "wbar": fd.wbar,
            "U": list(fd.U.values),
            "p_star": fd.p_star,
        },
        "purity": classify_purity(p).value,
        "factorization": {
            "fitness_diagonal": list(factors.fitness_diagonal),
            "dropped_types": list(factors.dropped_types),
            "environmental_rows": len(factors.environmental.source.types),
        },
        "price": {},
    }
    for xn, x in on_source.items():
        for yn, y in on_target.items():
            d = price(p, x, y)
            report["price"][f"{xn}->{yn}"] = {
                "delta": d.delta, "ns": d.ns, "ec": d.ec, "residual": d.residual,
            }
    if want_all or args.laws:
        report["laws"] = _law_section(p, q)
    if want_all or args.entropy:
        report["entropy"] = _entropy_section(p, doc)
    if (want_all and "quantum" in doc) or args.quantum:
        report["quantum"] = _quantum_section(doc)
    if (want_all and "open" in doc) or args.kgs:
        report["kgs"] = _kgs_section(doc, p)
    if q is not None:
        st = stationarity(p, q)
        report["stationarity"] = {
            "strong": st.strong,
            "weak": st.weak,
            "locally_homogeneous": st.locally_homogeneous,
            "locally_constant": st.locally_constant,
        }

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    _, p = _load_valid(args.file)
    if p.source.types != p.target.types:
        print("simulation needs an endomorphic process", file=sys.stderr)
        return 1
    if not 1 <= args.generations <= 64:
        print("generations must be between 1 and 64", file=sys.stderr)
        return 1

    rows = []
    current = p.source
    for t in range(args.generations + 1):
        step = Process(
            current,
            Population(p.source.types, p.kernel.T @ current.weights),
            p.kernel,
            _check=False,
        )
        sec = second_law(step)
        spd = speed_limits(step)
        rows.append(
            [
                t,
                current.size,
                sec.extras["var_u"],
                fitness(step).summary.s_ns,
                environmental_entropy(step),
                min(sec.slacks),
                min(spd.slacks),
            ]
        )
        current = step.target
    header = ["t", "N", "var_U", "S_NS", "S_EC", "second_law_slack", "speed_limit_slack"]
    writer_target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(writer_target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + [format(v, ".17g") for v in row[1:]])
    finally:
        if args.out:
            writer_target.close()
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="price-kit",
        description="Validate, analyze, and iterate finite evolutionary processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the disintegration identity")
    v.add_argument("file")

    r = sub.add_parser("report", help="full diagnostic report")
    r.add_argument("file")
    r.add_argument("--laws", action="store_true")
    r.add_argument("--entropy", action="store_true")
    r.add_argument("--quantum", action="store_true")
    r.add_argument("--kgs", action="store_true")
    r.add_argument("--next", help="follow-up process file for two-stage checks")
    r.add_argument("--json", help="write the report to this path")

    s = sub.add_parser("simulate", help="iterate an endomorphic process")
    s.add_argument("file")
    s.add_argument("--generations", type=int, default=8)
    s.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


PARSER = _parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # Looked up by name at call time, so a replaced cmd_* is the one that runs.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
