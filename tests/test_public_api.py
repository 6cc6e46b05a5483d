"""Guards on the public surface of the package."""

import ast
import gc
import importlib
import inspect
import sys
import weakref
from pathlib import Path

import mayext

PACKAGE_DIR = Path(mayext.__file__).parent


def test_no_private_parameters_in_public_signatures():
    # test hooks belong in the tests (monkeypatching), not in the API;
    # exception classes are skipped, they take only a message
    checked, offenders = 0, []
    for name in mayext.__all__:
        obj = getattr(mayext, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters
        offenders += [f"{name}({param})" for param in params if param.startswith("_")]
        checked += 1
    assert checked > 0
    assert offenders == []


def test_every_import_is_used():
    # a name a module imports must be read in it; __future__ imports and
    # the names __init__.py re-exports through __all__ are exempt
    checked, offenders = 0, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(mayext.__all__)
        offenders += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
        checked += 1
    assert checked > 1
    assert offenders == []


def test_library_modules_import_no_command_line():
    # click and the CLI module are the command line's: library code and
    # the session it reads stay usable without them
    front = {"cli_runner.py", "__init__.py", "__main__.py"}
    checked, offenders = 0, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in front:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "click" or name.split(".")[-1] == "cli_runner"
            ]
        checked += 1
    assert checked > 4
    assert offenders == []
    assert mayext.Session.__module__ != "mayext.cli_runner"
    assert mayext.DiskCache.__module__ != "mayext.cli_runner"


def test_only_the_session_builds_columns():
    # bases, records and boundary data read one Column per (session, t), so
    # no module but session.py may build one beside it
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Column":
                    sites.append(f"{path.name}:{node.lineno}")
    assert {line.split(":")[0] for line in sites} == {"session.py"}, sites


def _names_read(tree) -> list[str]:
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def test_every_private_definition_is_used():
    # a module-level private function or class must be read somewhere in
    # the package, outside its own body; code only the tests call goes
    paths = PACKAGE_DIR.glob("*.py")
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    reads = [name for tree in trees.values() for name in _names_read(tree)]
    checked, offenders = 0, []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            checked += 1
            if reads.count(node.name) == _names_read(node).count(node.name):
                offenders.append(f"{module}:{node.lineno} {node.name}")
    assert checked > 30
    assert offenders == []


def _purge_package():
    for name in [m for m in sys.modules if m == "mayext" or m.startswith("mayext.")]:
        del sys.modules[name]


def test_reimport_frees_the_previous_import():
    # a process that re-imports the package (a long-running host, the
    # benchmark) must not keep each purged import alive, e.g. through a
    # typing cache holding one of its classes
    saved = {
        name: module
        for name, module in sys.modules.items()
        if name == "mayext" or name.startswith("mayext.")
    }
    try:
        _purge_package()
        first = weakref.ref(importlib.import_module("mayext.may_core").Element)
        for _ in range(20):
            _purge_package()
            importlib.import_module("mayext")
        _purge_package()
        gc.collect()
        assert first() is None
    finally:
        _purge_package()
        sys.modules.update(saved)
