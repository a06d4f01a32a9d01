"""The package keeps only what is reached.

``oraclemod.__all__`` is an explicit list of names, none of them a
submodule; each resolves, on first access or through ``import *``, to the
very object of the module that defines it. Every module-level name
(function, class or assigned name) and non-dunder method under
``src/oraclemod`` must be reached from the package itself (outside its own
definition and ``__init__.py``) or from ``perfbench/``, unless an open
ROADMAP item names it as the item's future caller. An attribute read
through ``self`` inside a class reaches only that class's own methods.
Helpers that only tests use live under ``tests/`` (``catalog.py``,
``oracles.py``).

JSON is parsed in ``io`` alone, so that every file the CLI reads goes
through ``io.load_json`` and its rule of one key per object.
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import oraclemod

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oraclemod"

PUBLIC = (
    "IndexedPropContainer", "container_sum", "forces", "instance_reducible",
    "oracle_modality", "oracle_modality_bruteforce", "oracle_modalities_kleene",
    "oracle_modality_kleene", "pred_of_nucleus", "validate_container",
    "Frame", "FrameElement", "Poset", "downset_frame", "poset_from_relation",
    "Nucleus", "NucleusReport", "dense_elements", "enumerate_nuclei",
    "fixed_points_frame", "sup_nuclei", "validate_nucleus",
    "THEOREM_IDS", "Budget", "TheoremReport", "verify_theorems",
    "CanonicalSheafElement", "EquiTree", "Leaf", "Node", "SetContainer", "delta",
    "equifoliate", "membership", "modal_eq", "run_tree_suites", "sheaf_classify",
    "tree_bind",
)

# Unreached today; each is the named ROADMAP item's future caller.
AWAITED = {
    "weihrauch.compose_reducers": "item 10",
    "nuclei.fixed_points_frame": "item 9",
    "trees.sheaf_classify": "item 9",
}


def test_all_is_the_explicit_list():
    assert tuple(oraclemod.__all__) == PUBLIC
    for name in oraclemod.__all__:
        assert not isinstance(getattr(oraclemod, name), types.ModuleType), name


def test_public_names_are_the_objects_of_their_defining_modules():
    defined = {name: path.stem for path in PACKAGE.glob("*.py")
               for cls, name, _ in _definitions(path) if cls is None and name in PUBLIC}
    assert sorted(defined) == sorted(PUBLIC)
    star = {}
    exec("from oraclemod import *", star)
    for name in PUBLIC:
        owner = importlib.import_module(f"oraclemod.{defined[name]}")
        assert star[name] is getattr(oraclemod, name) is getattr(owner, name), name
    assert set(PUBLIC) <= set(dir(oraclemod))
    with pytest.raises(AttributeError, match="module 'oraclemod' has no attribute 'Lattice'"):
        oraclemod.Lattice


def test_submodules_import_by_name_in_a_fresh_interpreter():
    # before the first import of a submodule, the package's __getattr__ is
    # asked for it and must let the import system load it
    script = ("from oraclemod import containers, pca\n"
              "print(containers.__name__, pca.__name__)")
    run = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "oraclemod.containers oraclemod.pca\n"), run.stderr


def _bound(fn) -> set[str]:
    """Names a function or lambda binds: its arguments and every name
    stored, def'd or class'd in its body."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _references(path: Path) -> list[tuple[str, object, int]]:
    """(kind, what, line) for each reference in a file: a global name read
    ("name"), an attribute read through ``self`` inside a class as (class
    name, attribute) ("self"), any other attribute read as (owner name or
    None, attribute) ("attr") and a name imported as (module, name)
    ("import")."""
    out = []

    def visit(node, local, cls):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | _bound(node)
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                out.append(("name", node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner == "self" and cls is not None:
                out.append(("self", (cls, node.attr), node.lineno))
            else:
                out.append(("attr", (owner, node.attr), node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append(("import", (node.module or "", alias.name), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, local, cls)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset(), None)
    return out


def _definitions(path: Path):
    """(class name or None, name, node) for each module-level function,
    class and assigned name, and each non-dunder method of a top-level
    class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield None, target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name, item


def _reaches(kind, what, in_module: bool, module: str, cls, name: str) -> bool:
    """Whether one reference can reach the definition: a method by an
    attribute of its name, through ``self`` only from its own class; a
    module-level name by its bare name in its own module, as
    ``module.name``, or by name from an import of its module."""
    if cls is not None:
        return (kind == "attr" and what[1] == name
                or kind == "self" and in_module and what == (cls, name))
    if kind == "name":
        return in_module and what == name
    if kind == "attr":
        return what == (module, name)
    return kind == "import" and what[1] == name and what[0].rpartition(".")[2] == module


@functools.cache
def _unreached() -> tuple[str, ...]:
    """``module.name`` or ``module.Class.name`` of every definition under
    ``src/oraclemod`` that no reference reaches."""
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    refs = {path: _references(path) for path in readers}
    out = []
    for path in sources:
        module = path.stem
        for cls, name, node in _definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            reached = any(
                _reaches(kind, what, reader == path, module, cls, name)
                for reader, rs in refs.items()
                for kind, what, line in rs
                if not (reader == path and line in own)
            )
            if not reached:
                out.append(f"{module}.{cls + '.' if cls else ''}{name}")
    return tuple(out)


def test_every_definition_is_reached():
    assert [name for name in _unreached() if name not in AWAITED] == []


def test_awaited_names_are_defined_and_still_unreached():
    # an entry goes once its item lands and calls it
    assert set(AWAITED) <= set(_unreached())


def test_json_is_parsed_in_io_alone():
    readers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                readers.add(path.name)
    assert readers == {"io.py"}
