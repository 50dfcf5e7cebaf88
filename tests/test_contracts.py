"""Package-wide contracts: each benchmark workload, run on its recorded
seed-0 inputs, gives the recorded outputs field by field
(``perfbench/reference``), no source module outside ``config.py`` holds
a threshold literal, only the law modules build law reports, every
import sits at the top of its module and is read there, no module holds a
cache, README names only code that exists, every record compares by
the one value rule of ``measure._Value``, and every record is read-only by
the one write rule of ``measure._set``."""

import ast
import copy
import dataclasses
import importlib
import io
import pickle
import re
import sys
import tokenize
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, gen  # noqa: E402
from pricekit import (  # noqa: E402
    DensityOperator, Observable, OpenQuantumProcess, Partition, Population, Process, TypeSet,
    aggregate_price, cell_arrays, dual_fitness_kgs, embed_observable, embed_process, first_law,
    fitness, generating_profile, intergenerational_ec_change, kgs, multilevel_price,
    open_process, price, price_factorize, process, q_factorize, q_kgs, q_partition_entropy,
    q_price, reversibility, stationarity, validate)
from pricekit.measure import _Value  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reference_outputs_are_reproduced(workload, tmp_path):
    tally = bench.Tally()
    ran = bench.reference_check(workload, tmp_path, tally)
    assert ran["ops"] > 0 and tally.attempted == ran["ops"]
    assert tally.failed == 0, tally.problems


def source_tokens():
    """(module file name, its token list) for every module of the package."""
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        yield path.name, list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))


def test_tolerances_live_only_in_config():
    """A float literal with a negative exponent is a threshold; config.py owns
    them all.  Docstrings and comments are not NUMBER tokens."""
    found = [f"{name}:{tok.start[0]}: {tok.string}"
             for name, tokens in source_tokens() if name != "config.py"
             for tok in tokens if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()]
    assert found == []


def test_law_reports_are_built_only_by_the_law_modules():
    """Each chain is one function in laws.py (entropy.py builds the profile's
    bounds and windows); an operator process calls the same functions, so no
    other module calls LawReport(."""
    found = [f"{name}:{tok.start[0]}"
             for name, tokens in source_tokens() if name not in ("laws.py", "entropy.py")
             for tok, nxt in zip(tokens, tokens[1:])
             if tok.type == tokenize.NAME and tok.string == "LawReport" and nxt.string == "("]
    assert found == []


def test_the_write_rule_lives_only_in_measure():
    """``measure._set`` sets a record's fields and freezes its arrays, so no
    other module calls ``.__setattr__`` or ``.setflags(`` (``generating_profile``
    keeps its profile in ``vars(p)``, which writes no field)."""
    found = [f"{name}:{tok.start[0]}: .{tok.string}"
             for name, tokens in source_tokens() if name != "measure.py"
             for dot, tok, nxt in zip(tokens, tokens[1:], tokens[2:])
             if dot.string == "." and tok.type == tokenize.NAME
             and (tok.string == "__setattr__" or tok.string == "setflags" and nxt.string == "(")]
    assert found == []


# Each law link by its shape, with any names (b2 and the infinitary bound by the
# record fields they read): b1 = -v log(1 + v), b2 = var(U) S_NS,
# b3 = (e^-S_NS - 1) S_NS, b4 = -(1/p_* - 1) log(1/p_*), the speed limits' bracket
# -(m2/c) log(E[U^(2+c)]/m2) and infinitary bound log(1/p_*) - E[U^2 log U], and the
# slack rule chain[k] - chain[k + 1].
LAW_LINKS = {
    "second_law b1": r"-([\w.]+)\*np\.log1p\(\1\)",
    "second_law b2": r"\bvar_u\*[\w.]*\bs_ns\b|\bs_ns\*[\w.]*\bvar_u\b",
    "second_law b3": r"\(np\.exp\(-([\w.]+)\)-1\.0\)\*\1",
    "second_law b4": r"\(([\w./]+)-1\.0\)\*np\.log\(\1\)",
    "speed_limits bracket": r"-\(([\w.]+)/[\w.]+\)\*np\.log\([\w.]+/\1\)",
    "speed_limits infinitary": r"-[\w.]*\bu2_log_u\b",
    "slack rule": r"\[(\w+)\]-[\w.]+\[\1\+1\]",
}


def test_each_law_link_is_written_once():
    """The Second Law's links b1 .. b4, the speed limits' best bracket and
    infinitary bound, and the slack rule are each written once, in ``laws.py``,
    as array functions with an optional leading axis: the per-process reports
    and ``simulate``'s stacked pass call the same ones.  Code is read without
    comments or strings, and with a space only between two words."""
    skip = {tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}
    code = {name: re.sub(r" (?=\W)|(?<=\W) ", "", " ".join(
                tok.string for tok in tokens if tok.type not in skip))
            for name, tokens in source_tokens()}
    found = {link: [name for name, text in code.items() for _ in re.finditer(pattern, text)]
             for link, pattern in LAW_LINKS.items()}
    assert found == {link: ["laws.py"] for link in LAW_LINKS}


def callers(callee: str) -> list[str]:
    """Every call of ``callee`` in the package, named by its module and the
    top-level function or class (or the line of the statement) holding it."""
    return sorted(f"{path.name}:{getattr(top, 'name', top.lineno)}"
                  for path in sorted((ROOT / "src" / "pricekit").glob("*.py"))
                  for top in ast.parse(path.read_text()).body
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and callee in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None)))


def test_kernel_images_are_formed_only_by_process():
    """``process`` forms every kernel-image child population (``validate``
    forms one to compare with the stated target, ``trajectory`` one per
    simulated generation), and nothing in the package calls ``compose``: each
    derived process is built once, in one place."""
    assert callers("_kernel_image") == ["process.py:process", "process.py:trajectory",
                                        "process.py:validate"]
    assert callers("compose") == []


def test_records_are_taken_over_only_where_they_are_built():
    """``measure._built`` takes a record over without the checks of its public
    constructor, so only ``process.py``, which has just checked the parts, calls
    it, and nothing outside it calls ``process._image_process``; no ``cli.py``
    function that reads a document (names ``doc`` or a ``_field``) calls either."""
    assert {name.split(":")[0] for name in callers("_built")} == {"process.py"}
    assert [name for name in callers("_image_process")
            if not name.startswith("process.py:")] == []
    cli = ast.parse((ROOT / "src" / "pricekit" / "cli.py").read_text())
    readers = {f"cli.py:{func.name}" for func in cli.body if isinstance(func, ast.FunctionDef)
               and {"doc", "_field"} & {getattr(n, "id", getattr(n, "arg", None))
                                        for n in ast.walk(func)}}
    assert "cli.py:build_unchecked" in readers
    assert readers.isdisjoint(callers("_built") + callers("_image_process"))


def test_each_rejection_message_is_raised_in_one_place():
    """Each input check has one owner, so no message is raised at two sites:
    ``raise E(message)`` with a string constant, or an f-string read as its
    constant parts with ``{}`` for each placeholder, occurs once in the package."""
    sites: dict = {}
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and len(node.exc.args) == 1):
                continue
            msg = node.exc.args[0]
            if isinstance(msg, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in msg.values)
            elif isinstance(msg, ast.Constant) and isinstance(msg.value, str):
                text = msg.value
            else:
                continue
            sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


def test_no_imports_inside_functions():
    """An import inside a function hides a dependency (or an import cycle)
    until the function runs; every module imports at its top."""
    found = set()
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []


def test_no_unused_imports():
    """Every name a module imports is read in it, so a deletion leaves no
    import behind; ``__init__.py`` imports to re-export."""
    found = []
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                found += [f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in read]
    assert found == []


def test_readme_names_resolve():
    """Every backticked call ``name(`` in README.md names a function or class
    of a ``pricekit`` module or of ``tests/oracles.py`` (``module.name(`` one
    of that module), and every backticked ``Class.attr`` a ``pricekit`` class
    with that attribute or dataclass field: README names no deleted code."""
    modules = {path.stem: importlib.import_module(
                   "pricekit" if path.stem == "__init__" else f"pricekit.{path.stem}")
               for path in sorted((ROOT / "src" / "pricekit").glob("*.py"))}
    names = {k: v for m in [*modules.values(), importlib.import_module("oracles")]
             for k, v in vars(m).items()}
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    unresolved = []
    for call in sorted({m for span in spans for m in re.findall(r"([A-Za-z_][\w.]*)\(", span)}):
        head, *rest = call.split(".")
        obj = modules.get(head) if rest else None
        obj = names.get(head) if obj is None else obj
        for attr in rest:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            unresolved.append(call + "(")
    for cls_name, attr in sorted({m for span in spans
                                  for m in re.findall(r"\b([A-Z]\w*)\.(\w+)", span)}):
        cls = names.get(cls_name)
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        if not (isinstance(cls, type) and (hasattr(cls, attr) or attr in fields)):
            unresolved.append(f"{cls_name}.{attr}")
    assert unresolved == []


def test_every_default_is_set_somewhere():
    """A defaulted parameter of a package function is passed, by keyword or by
    position, by some call in src/, tests/, demos/ or perfbench/; one that no
    call sets is a constant posing as an option.  A call matches on the
    function's name (its class's name for ``__init__``), and a ``*args`` or
    ``**kwargs`` splat passes every parameter."""
    calls = [node for top in ("src", "tests", "demos", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    by_name: dict = {}
    for call in calls:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        by_name.setdefault(name, []).append(call)

    def passes(call, param, index):
        args, keys = call.args, {k.arg for k in call.keywords}
        return (param in keys or None in keys or len(args) > index
                or any(isinstance(a, ast.Starred) for a in args))

    unset = []
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(func))
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            skip = 1 if cls is not None and not static else 0
            name = cls.name if cls is not None and func.name == "__init__" else func.name
            positional = func.args.posonlyargs + func.args.args
            defaulted = [(a.arg, positional.index(a) - skip)
                         for a in positional[len(positional) - len(func.args.defaults):]]
            defaulted += [(a.arg, float("inf")) for a, d in
                          zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]
            unset += [f"{path.name}:{func.lineno}: {func.name}({param}=)"
                      for param, index in defaulted
                      if not any(passes(c, param, index) for c in by_name.get(name, []))]
    assert unset == []


def test_no_module_level_caches():
    """A cached result lives with the object it was computed from (a
    ``cached_property``, or the process's instance dict), so it is freed with
    that object: no module-level dict, list or set, by display or by call, and
    no ``functools.cache`` or ``lru_cache``."""
    containers = {"dict", "list", "set", "defaultdict", "WeakKeyDictionary",
                  "WeakValueDictionary"}

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def module_level(node):
        """node's subtree, leaving out function and class bodies."""
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                yield from module_level(child)

    found = []
    for path in sorted((ROOT / "src" / "pricekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in module_level(tree):
            if (isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    and isinstance(node.value, (ast.Dict, ast.List, ast.Set))):
                found.append(f"{path.name}:{node.lineno}: module-level display")
            if isinstance(node, ast.Call) and name(node) in containers:
                found.append(f"{path.name}:{node.lineno}: module-level {name(node)}()")
        found += [f"{path.name}:{func.lineno}: {name(dec)} on {func.name}"
                  for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for dec in func.decorator_list if name(dec) in ("cache", "lru_cache")]
    assert found == []


def record_inputs(v: float) -> SimpleNamespace:
    """Every input a record is built from, on the kernel [[1, 1], [0.5, v]]
    over weights (1, 2): two calls with one v give equal, unshared inputs."""
    p = process(Population(TypeSet(["a", "b"]), [1, 2]), [[1, 1], [0.5, v]])
    q = process(p.target, [[0.5, 1.5], [1.0, 0.0]])
    x, y = Observable(p.source.types, [0.0, 1.0]), Observable(p.target.types, [1.0, 3.0])
    w = embed_process(p)
    return SimpleNamespace(
        v=v, p=p, q=q, x=x, y=y, w=w, qx=embed_observable(x.values), qy=embed_observable(y.values),
        op=open_process(p.source, p.kernel, [0.5, 0.0]),
        oq=OpenQuantumProcess(w, DensityOperator(np.diag([2.5, 1.0 + 2.0 * v]))))


def diagonal_pair(source: Population, t: float) -> tuple[Process, Process]:
    """Two stages of the kernel diag(1, t) from source."""
    p = process(source, [[1, 0], [0, t]])
    return p, process(p.target, [[1, 0], [0, t]])


# Every dataclass of the package, built from record_inputs(v).
RECORD_BUILDERS = {
    "TypeSet": lambda i: TypeSet(["a", str(i.v)]),
    "Population": lambda i: i.p.target,
    "Observable": lambda i: fitness(i.p).U,
    "Diagnostics": lambda i: validate(Process(i.p.source, i.p.target, [[1, 1], [0.5, 0]],
                                              _check=False)),
    "FitnessData": lambda i: fitness(i.p),
    "Process": lambda i: i.p,
    "Factorization": lambda i: price_factorize(i.p),
    "PriceDecomposition": lambda i: price(i.p, i.x, i.y),
    "AggregatePrice": lambda i: aggregate_price(i.p, i.x, i.y),
    "MultiLevelPrice": lambda i: multilevel_price(i.p, i.q, i.y,
                                                  Observable(i.q.target.types, [0.0, 2.0])),
    "LawReport": lambda i: first_law(i.p),
    # stationary at v = 0, where U = 1 in both stages
    "StationarityClass": lambda i: stationarity(*diagonal_pair(i.p.source, 1 + i.v)),
    "Partition": lambda i: Partition(i.p.source.types,
                                     [["a"], ["b"]] if i.v == 0 else [["a", "b"]]),
    "CellArrays": lambda i: cell_arrays(i.p, Partition.singletons(i.p.source.types),
                                        Partition.singletons(i.p.target.types)),
    "EntropyProfile": lambda i: generating_profile(i.p),
    "IntergenerationalChange": lambda i: intergenerational_ec_change(i.p, i.q),
    # an invertible kernel, so the verdict holds its retraction, section and inverse
    "ReversibilityVerdict": lambda i: reversibility(process(i.p.source, [[1 + i.v, 0], [0, 0.5]])),
    "OpenProcess": lambda i: i.op,
    "KgsComponents": lambda i: kgs(i.op, i.x, i.y),
    "DualFitnessKgs": lambda i: dual_fitness_kgs(i.op, i.x, i.y),
    "DensityOperator": lambda i: i.w.target,
    "QuantumObservable": lambda i: fitness(i.w).U,
    "QuantumProcess": lambda i: i.w,
    "QPriceSide": lambda i: q_price(i.w, i.qx, i.qy).left,
    "QPriceResult": lambda i: q_price(i.w, i.qx, i.qy),
    "QFactorization": lambda i: q_factorize(i.w),
    "QPartitionResult": lambda i: q_partition_entropy(i.w, np.eye(2)[:, None] * np.eye(2),
                                                      [np.eye(2)]),
    "OpenQuantumProcess": lambda i: i.oq,
    "QKgsResult": lambda i: q_kgs(i.oq, i.qx, i.qy),
}


def package_records() -> dict:
    """Every dataclass defined in a module of the package, by name."""
    return {cls.__name__: cls
            for path in sorted((ROOT / "src" / "pricekit").glob("*.py"))
            for module in [importlib.import_module(f"pricekit.{path.stem}")]
            for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__}


def test_every_record_has_a_builder():
    assert sorted(package_records()) == sorted(RECORD_BUILDERS)


@pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
def test_records_compare_by_value(name):
    """Records built from equal inputs are equal, from different inputs
    unequal, and unequal to any other object, without raising; a hash agrees
    with == or is refused, by the one base naming the record itself."""
    cls = package_records()[name]
    build = RECORD_BUILDERS[name]
    a, b, c = build(record_inputs(0.0)), build(record_inputs(0.0)), build(record_inputs(0.25))
    assert type(a) is type(b) is type(c) is cls
    assert a is not b and a == b and b == a and not a != b
    assert a != c and c != a and not a == c
    for other in (None, 1, object(), vars(a)):
        assert a != other and not a == other
    try:
        hashed = hash(a)
    except TypeError as exc:
        named = cls.__name__ if issubclass(cls, _Value) else r"\w+"
        assert re.fullmatch(f"unhashable type: '{named}'", str(exc)), str(exc)
    else:
        assert hashed == hash(b)


def test_only_the_value_base_defines_eq():
    """One value rule: no class of the package defines __eq__ but ``_Value``."""
    found = [f"{path.name}:{cls.name}"
             for path in sorted((ROOT / "src" / "pricekit").glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if getattr(node, "name", None) == "__eq__"
             or any(getattr(t, "id", None) == "__eq__" for t in getattr(node, "targets", []))]
    assert found == ["measure.py:_Value"]


@pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
def test_records_are_read_only(name):
    """A record and its pickled and deep-copied twins take no write: every
    array field, and every array in a mapping field, rejects one; every mapping
    field is a MappingProxyType; and assigning a field raises FrozenInstanceError."""
    record = RECORD_BUILDERS[name](record_inputs(0.25))
    for twin in (record, pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record
        for f in dataclasses.fields(twin):
            value = getattr(twin, f.name)
            if isinstance(value, Mapping):
                assert type(value) is MappingProxyType, f.name
            for array in value.values() if isinstance(value, Mapping) else [value]:
                if isinstance(array, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, f.name, value)
