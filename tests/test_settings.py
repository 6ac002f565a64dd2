"""Census of settings: every defaulted parameter in ``src/vep`` has a caller.

A default that no call site overrides is a setting with one value in use:
no test or workload runs any other value, so it belongs in the code as a
literal or a module constant.  This test lists each defaulted parameter
of a function in ``src/vep`` and fails for every one that no call in
``src/``, ``tests/``, ``scripts/`` or ``perfbench/`` passes, by keyword or
by position.  Calls are matched by function or attribute name only, so a
name clash can make the census more permissive, never stricter.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "scripts", "perfbench")
ALL = -1  # a call with *args or **kwargs may pass anything


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _functions(tree: ast.Module):
    """Yield (call name, function node, is method) for every def in a module.

    A method is called through an attribute, with ``self`` bound; an
    ``__init__`` is called through its class name.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, not static
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(node) not in methods:
            yield node.name, node, False


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(parameter, positional index or None) for each parameter with a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    shift = 1 if method else 0
    out = [(arg.arg, i - shift) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls():
    """name -> list of (keywords passed, positional count) over every caller file."""
    calls = defaultdict(list)
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute):
                    name = f.attr
                else:
                    continue
                keywords = {ALL if k.arg is None else k.arg for k in node.keywords}
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                calls[name].append((keywords, ALL if starred else len(node.args)))
    return calls


def never_passed() -> list[str]:
    calls = _calls()
    missing = []
    for path in sorted((ROOT / "src" / "vep").glob("*.py")):
        for name, fn, method in _functions(_parse(path)):
            for param, index in _defaulted(fn, method):
                passed = any(param in kws or ALL in kws
                             or n == ALL or (index is not None and n > index)
                             for kws, n in calls.get(name, ()))
                if not passed:
                    missing.append(f"{path.stem}.{name}({param})")
    return missing


def test_every_defaulted_parameter_is_passed_somewhere():
    missing = never_passed()
    assert not missing, f"{len(missing)} defaulted parameters no call passes: {missing}"
