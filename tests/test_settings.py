"""Two censuses of ``src/vep``: settings with one value in use, and code that
only tests reach.

A default that no call site overrides is a setting with one value in use:
no test or workload runs any other value, so it belongs in the code as a
literal or a module constant.  The first census lists each defaulted
parameter of a function in ``src/vep`` and fails for every one that no call
in ``src/``, ``tests/``, ``scripts/`` or ``perfbench/`` passes, by keyword or
by position.

A public function, class or method that nothing but a test refers to is
code no command runs.  The second census fails for every one that no Name
or Attribute in ``src/``, ``scripts/`` or ``perfbench/`` refers to outside
its own body and that ``perfbench/spans.py`` does not name in ``TARGETS``;
``KEPT`` lists the few that tests use as references, each with its reason.

Both match by name only, so a name clash can make a census more
permissive, never stricter.
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


# ---------------------------------------------------------------------------
# code that only tests reach
# ---------------------------------------------------------------------------

REFERENCE_DIRS = ("src", "scripts", "perfbench")
KEPT = (
    ("diagnostics.strong_slope", "acceptance criterion 8 bounds gamma by it"),
    ("expr.to_string", "the parser round-trip tests print trees with it"),
    ("geometry.body_contains", "acceptance criterion 5a checks each inclusion with it"),
    ("merit.probe_lower_semicontinuity", "acceptance criterion 8 probes merit with it"),
    ("merit.probe_midpoint_convexity", "acceptance criterion 8 probes nu with it"),
    ("problem.oracle_dist_to_solutions", "tests use it as the distance reference"),
)


def _public_defs():
    """(module.qualname, name, path, node) for every public top-level function
    and class of ``src/vep`` and every public method of those classes."""
    for path in sorted((ROOT / "src" / "vep").glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, path, item


def _tracer_targets() -> set[str]:
    for node in _parse(ROOT / "perfbench" / "spans.py").body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return {f"{mod}.{fn}" for mod, fns in ast.literal_eval(node.value).items()
                    for fn in fns}
    return set()


def _references():
    """name -> (path, line, anywhere) per reference: an Attribute counts for a
    definition in any module (anywhere), a Name only in its own module or
    in a module that imports that name."""
    refs = defaultdict(list)
    for d in REFERENCE_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = _parse(path)
            imported = {a.asname or a.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for a in node.names}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    refs[node.attr].append((path, node.lineno, True))
                elif isinstance(node, ast.Name):
                    refs[node.id].append((path, node.lineno, node.id in imported))
    return refs


def reached_by_tests_only() -> list[str]:
    refs = _references()
    targets = _tracer_targets()
    unreached = []
    for qual, name, path, node in _public_defs():
        reached = any((anywhere or p == path)
                      and not (p == path and node.lineno <= line <= node.end_lineno)
                      for p, line, anywhere in refs.get(name, ()))
        if not reached and qual not in targets:
            unreached.append(qual)
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    kept = {qual for qual, _ in KEPT}
    unreached = reached_by_tests_only()
    extra = [qual for qual in unreached if qual not in kept]
    assert not extra, f"{len(extra)} public names only tests reach: {extra}"
    stale = sorted(kept - set(unreached))
    assert not stale, f"KEPT names that no longer need the exemption: {stale}"
