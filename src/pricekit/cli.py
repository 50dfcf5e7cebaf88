"""File-driven front door: validate, report, simulate.

Input files are JSON documents describing a process (types, weights,
kernel, optional target weights and observables, optional partition /
quantum / open blocks).  Exit codes: 0 success, 1 semantic failure (any
ValueError, IdentityViolation included), 2 parse or I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import config
from .entropy import Partition, flow_entropy, generating_profile, reversibility, third_law
from .laws import (
    ec_selective_entropy_bound,
    ec_variance_bound,
    exp_first_law,
    higher_order_first_law,
    least_slacks,
    multilevel_second_law,
    standard_reports,
    stationarity,
)
from .measure import Observable, Population, TypeSet
from .openproc import OpenProcess, _full_weights, kgs
from .price import price
from .process import (
    Process,
    check_composable,
    classify_purity,
    fitness,
    price_factorize,
    process,
    trajectory,
    validate,
)
from .quantum import (
    DensityOperator,
    QuantumObservable,
    QuantumProcess,
    q_laws,
    q_price,
)

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _field(block: dict, key: str, kind: type, where: str = ""):
    """block[key], which must be present and a JSON list (kind list) or
    object (kind dict); ``where`` prefixes the field's name in the error."""
    if key not in block:
        raise InputError(f"missing required field {where + key!r}")
    if not isinstance(block[key], kind):
        article = "a list" if kind is list else "an object"
        raise InputError(f"field {where + key!r} must be {article}")
    return block[key]


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
        _field(doc, key, list)
    return doc


def build_unchecked(doc: dict) -> Process:
    """Assemble the process without enforcing the disintegration identity."""
    source = Population(TypeSet(doc["types"]), doc["weights"])
    t_types = TypeSet(_field(doc, "target_types", list)) if "target_types" in doc else None
    if "target_weights" not in doc:
        return process(source, doc["kernel"], t_types)
    weights = _field(doc, "target_weights", list)
    target = Population(t_types or TypeSet.range(len(weights), prefix="c"), weights)
    return Process(source, target, doc["kernel"], _check=False)


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
    observables = _field(doc, "observables", dict) if "observables" in doc else {}
    for name in observables:
        values = _field(observables, name, list, "observables.")
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
        part = _field(doc, "partitions", dict)
        part_a = Partition(p.source.types, _field(part, "source", list, "partitions."))
        part_b = Partition(p.target.types, _field(part, "target", list, "partitions."))
        block = third_law(p, part_a, part_b)
        section["block_third_law"] = {k: r.to_dict() for k, r in block.items()}
    return section


def _quantum_section(doc: dict) -> dict:
    if "quantum" not in doc:
        raise InputError("no quantum block in the input file")
    block = _field(doc, "quantum", dict)
    rho = DensityOperator(_complex_matrix(_field(block, "rho", list, "quantum."), "quantum.rho"))
    if "superoperator" in block:
        w = QuantumProcess(_complex_matrix(block["superoperator"], "quantum.superoperator"), rho)
    elif "kraus" in block:
        kraus = _field(block, "kraus", list, "quantum.")
        w = QuantumProcess.from_kraus(
            [_complex_matrix(a, f"quantum.kraus[{i}]") for i, a in enumerate(kraus)], rho)
    else:
        raise InputError("quantum block needs a superoperator or kraus list")
    fd = fitness(w)
    result = q_price(w, fd.U, QuantumObservable(np.eye(w.target.dim)))
    return {
        "wbar": fd.wbar,
        "p_star": fd.p_star,
        "left_residual": result.residual_left,
        "right_residual": result.residual_right,
        "commutator_gap_imag": result.commutator_gap.imag,
        "laws": {k: r.to_dict() for k, r in q_laws(w).items()},
    }


def _complex_matrix(rows, name: str) -> np.ndarray:
    """The matrix of field ``name``: a list of rows whose entries are numbers
    or [re, im] pairs of numbers; booleans and strings are not numbers."""
    def scal(v):
        parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v,)
        if not any(isinstance(x, (bool, str)) for x in parts):
            try:
                return complex(*parts)
            except (TypeError, ValueError):
                pass
        raise ValueError(f"field {name!r} has an entry that is not a number: {v!r}")

    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InputError(f"field {name!r} must be a list of rows")
    return np.array([[scal(v) for v in row] for row in rows])


def _kgs_section(doc: dict, p: Process) -> dict:
    if "open" not in doc:
        raise InputError("no open block in the input file")
    block = _field(doc, "open", dict)
    orphan = _field(block, "orphan_weights", list, "open.")
    full = Population(p.target.types, _full_weights(p.target.weights, orphan))
    op = OpenProcess(p, full)
    u = fitness(p).U
    ones = Observable(p.target.types, np.ones(len(p.target.types)))
    comp = kgs(op, u, ones)
    return dict(dataclasses.asdict(comp), residual=comp.residual)


def cmd_report(args) -> int:
    doc, p = _load_valid(args.file)
    want_all = not (args.laws or args.entropy or args.quantum or args.kgs)
    fd = fitness(p)
    on_source, on_target = _observables(doc, p)

    # q read on p's exact target once, so every pair function gets q itself
    q = check_composable(p, _load_valid(args.next)[1]) if args.next else None
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
            "fitness_diagonal": list(fd.W.values),
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
        report["stationarity"] = dataclasses.asdict(stationarity(p, q))

    # One line: without indent, json.dumps takes the C encoder
    text = json.dumps(report, sort_keys=True, allow_nan=False)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    _, p = _load_valid(args.file)
    if p.source.types != p.target.types:
        raise ValueError("simulation needs an endomorphic process")
    if not 1 <= args.generations <= 64:
        raise ValueError("generations must be between 1 and 64")

    weights, sizes, fd = trajectory(p, args.generations)
    s_ec = [flow_entropy(p.kernel, mu, n * wbar) for mu, n, wbar in zip(weights, sizes, fd.wbar)]
    rows = zip(sizes, fd.var_u, fd.s_ns, s_ec, *least_slacks(fd))
    header = ["t", "N", "var_U", "S_NS", "S_EC", "second_law_slack", "speed_limit_slack"]
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([t] + [format(v, ".17g") for v in row] for t, row in enumerate(rows))
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
