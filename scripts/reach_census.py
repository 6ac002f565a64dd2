#!/usr/bin/env python3
"""Count the statement lines of ``src/vep`` that the report commands reach.

Usage, from the root of a checkout (the one whose ``src/`` is run):

    python3 path/to/scripts/reach_census.py

The script runs every command of ``report_bodies.commands()`` in this one
process, as ``vep.cli.main(["--seed", "3", "--format", "json-like", ...])``
with its output discarded, under a ``sys.settrace`` line collector (stdlib
only).  It then prints, per module, the statement lines reached out of the
statement lines inside function bodies; the lines of the statements that no
command reaches, as ranges; and the functions that no command enters.  A
statement counts as reached when a line event falls on one of its own lines
(its lines outside the statements nested in it).  Caches live for
the whole process, so a line that only a cache miss runs counts once a
command before it has run it; run time is a few seconds.
"""

import ast
import contextlib
import io
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path.cwd() / "src"
PACKAGE = SRC / "vep"


def _own_lines(node: ast.stmt) -> set[int]:
    """The lines of a statement outside the statements nested in it."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _census(tree: ast.Module):
    """(statements inside function bodies as own-line sets, functions as
    (first line of the code object, qualified name))."""
    statements, functions = [], []

    def visit(node, prefix, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions.append((first, prefix + child.name))
                if in_function:
                    statements.append(_own_lines(child))
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, ast.ClassDef):
                if in_function:
                    statements.append(_own_lines(child))
                visit(child, prefix + child.name + ".", in_function)
            else:
                if in_function and isinstance(child, ast.stmt) and not _is_docstring(child):
                    statements.append(_own_lines(child))
                visit(child, prefix, in_function)

    visit(tree, "", False)
    return statements, functions


def _ranges(numbers: set[int]) -> str:
    """Sorted numbers as comma-separated runs: {3, 4, 5, 9} -> "3-5, 9"."""
    runs, ordered = [], sorted(numbers)
    start = prev = ordered[0]
    for k in ordered[1:] + [None]:
        if k != prev + 1:
            runs.append(f"{start}-{prev}" if prev > start else f"{start}")
            start = k
        prev = k
    return ", ".join(runs)


def _run_commands(commands) -> tuple[dict, dict]:
    """Line events and entered code objects, per file under src/vep."""
    lines, entered = defaultdict(set), defaultdict(set)
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        entered[code.co_filename].add(code.co_firstlineno)
        return local

    from vep import cli

    sys.settrace(tracer)
    try:
        for cmd in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(SystemExit):      # argparse's usage errors
                cli.main(["--seed", "3", "--format", "json-like", *cmd])
    finally:
        sys.settrace(None)
    return lines, entered


def main():
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from report_bodies import commands

    lines, entered = _run_commands(commands())
    reached_total = total = 0
    missed, unreached = [], []
    print(f"{'module':<16} {'reached':>8} {'total':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        statements, functions = _census(ast.parse(path.read_text(encoding="utf-8")))
        seen = lines[str(path)]
        reached = sum(1 for own in statements if own & seen)
        reached_total += reached
        total += len(statements)
        print(f"vep.{path.stem:<12} {reached:>8} {len(statements):>6}")
        cold = set().union(*(own for own in statements if not own & seen))
        if cold:
            unreached.append(f"  vep.{path.stem}: {_ranges(cold)}")
        missed += [f"vep.{path.stem}.{name}" for first, name in functions
                   if first not in entered[str(path)]]
    print(f"{'total':<16} {reached_total:>8} {total:>6}  ({100 * reached_total / total:.0f}%)")
    print("statement lines no command reaches:")
    print("\n".join(unreached))
    print(f"functions no command enters ({len(missed)}):")
    for name in missed:
        print(f"  {name}")


if __name__ == "__main__":
    main()
