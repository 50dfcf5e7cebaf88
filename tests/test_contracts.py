"""Package-wide contracts: each benchmark workload, run on its recorded
seed-0 inputs, gives the recorded outputs field by field
(``perfbench/reference``), no source module outside ``config.py`` holds
a threshold literal, only the law modules build law reports, every
import sits at the top of its module and is read there, no module holds a
cache, and README names only code that exists."""

import ast
import dataclasses
import importlib
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, gen  # noqa: E402


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


def test_kernel_images_are_formed_only_by_process():
    """``process`` forms every kernel-image child population (``validate``
    forms one to compare with the stated target, ``simulate`` one per
    generation), and nothing in the package calls ``compose``: each derived
    process is built once, in one place.  A call is named by its module and
    the top-level function or class (or the line of the statement) holding it."""
    def callers(callee):
        return sorted(f"{path.name}:{getattr(top, 'name', top.lineno)}"
                      for path in sorted((ROOT / "src" / "pricekit").glob("*.py"))
                      for top in ast.parse(path.read_text()).body
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and callee in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)))

    assert callers("_kernel_image") == ["cli.py:cmd_simulate", "process.py:process",
                                        "process.py:validate"]
    assert callers("compose") == []


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
