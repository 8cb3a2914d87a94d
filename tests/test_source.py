"""Source hygiene: no assert statements, a standard-library-only runtime,
no imported name left unused, no reader of the derived Host.records tuple
inside the package, no reader of the mix table outside hrep, one key
layout inside hrep, no attribute set through object.__setattr__, and no
public function with a parameter named like a private name."""

import ast
import os
import subprocess
import sys

import linrem
from conftest import subprocess_env

SRC = os.path.dirname(os.path.abspath(linrem.__file__))


def _stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def _modules():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_package_has_no_asserts_and_imports_only_stdlib():
    problems = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                # python -O strips these; invariants must be raised errors.
                problems.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, ast.Import):
                problems += [
                    f"{name}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if not _stdlib(alias.name)
                ]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and not _stdlib(node.module):
                problems.append(f"{name}:{node.lineno}: imports {node.module}")
    assert problems == []


def test_package_modules_use_every_name_they_import():
    # __init__ imports to re-export; any other module reads each name it
    # imports. A __future__ import is a compiler directive, not a name.
    unused = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{name}:{node.lineno}: {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for bound in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
            if bound not in read
        ]
    assert unused == []


def test_package_reads_no_host_records():
    # Host.records rebuilds a tuple from by_key on every read; the package
    # reads by_key itself, and only the property's own definition remains.
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "records"
    ]
    assert reads == []


def test_only_hrep_reads_the_mix_table():
    # Host.shifts owns the x-translation mix_j . x; outside hrep, which
    # builds the tables and the host, no module reads mix.
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "hrep.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "mix"
    ]
    assert reads == []


def test_hrep_lays_out_keys_only_in_host_plans():
    # build_coefficients makes the tables and host_plans lays out every
    # color's key from them; the host, the stream and the exports read
    # the plans, so no other code in hrep reads a layout table.
    tree = dict(_modules())["hrep.py"]
    allowed = {
        id(node)
        for func in tree.body
        if getattr(func, "name", None) in ("build_coefficients", "host_plans")
        for node in ast.walk(func)
    }
    reads = [
        f"hrep.py:{node.lineno}: {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("outside", "closing", "mix", "support", "pivots")
        and id(node) not in allowed
    ]
    assert reads == []


def test_package_sets_no_attribute_through_object_setattr():
    # object.__setattr__ writes past a frozen dataclass's guard; the
    # package's frozen tables stay frozen and carry no provenance mark.
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert calls == []


def test_public_functions_take_no_private_parameters():
    # A parameter named like a private name is part of the public
    # signature all the same; a route only the package may take belongs
    # behind a private function.
    private = []
    for name, tree in _modules():
        publics = [node for node in tree.body if not getattr(node, "name", "_").startswith("_")]
        for cls in [node for node in publics if isinstance(node, ast.ClassDef)]:
            publics += [node for node in cls.body if not getattr(node, "name", "_").startswith("_")]
        for func in publics:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = func.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                private += [
                    f"{name}:{func.lineno}: {func.name}({arg.arg})"
                    for arg in params
                    if arg is not None and arg.arg.startswith("_")
                ]
    assert private == []


def test_cli_import_leaves_out_multiprocessing():
    # Importing multiprocessing costs every subcommand start-up time
    # (the benchmark's setup_s), and no code path uses it.
    probe = "import sys, linrem.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"
