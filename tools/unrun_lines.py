#!/usr/bin/env python3
"""Statements of `src/crossemb` that a pytest run never executes.

    python3 tools/unrun_lines.py [PYTEST_ARGS ...]    # default: -q tests

Runs pytest in this process under a `sys.settrace` recorder of the lines
executed in `src/crossemb`, then prints, per module, each statement none
of whose lines ran: its line range and its first line. Docstrings are not
counted as statements. A compound statement counts as run when any line
of it ran; the statements in its body are listed on their own.

Lines that run only in forked workers (the experiments' process pool) or
in subprocesses are not seen: their statements are listed as never run.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crossemb"
NOTE = ("note: lines run only in forked workers or subprocesses are not seen, "
        "so their statements are listed as never run")


def statements(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement of `source`, decorators
    included, sorted; docstrings are left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return sorted(
        (min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]),
         node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings
    )


def unrun_statements(source: str, hits: set[int]) -> list[tuple[int, int]]:
    """The statements of `source` none of whose lines is in `hits`."""
    return [(first, last) for first, last in statements(source)
            if not any(line in hits for line in range(first, last + 1))]


def listing(name: str, source: str, hits: set[int]) -> list[str]:
    """One line per statement of module `name` that never ran."""
    lines = source.splitlines()
    return [f"{name}:{first}" + (f"-{last}" if last > first else "")
            + f": {lines[first - 1].strip()}"
            for first, last in unrun_statements(source, hits)]


def _tracer(hits: dict[str, set[int]]):
    """A `sys.settrace` function that adds each line run in a file under
    `SRC` to `hits[file]` and traces no other frame."""
    prefix = str(SRC) + "/"
    known: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in known:
            known[filename] = str(Path(filename).resolve()).startswith(prefix)
        return local if known[filename] else None

    return trace


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SRC.parent))
    import pytest

    # Read before the run, so that the line numbers are those that ran.
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    hits: dict[str, set[int]] = defaultdict(set)
    tracer = _tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file: dict[str, set[int]] = defaultdict(set)
    for filename, lines in hits.items():
        by_file[str(Path(filename).resolve())] |= lines
    total = 0
    for path, source in sources.items():
        found = listing(path.name, source, by_file[str(path)])
        total += len(found)
        for line in found:
            print(line)
    print(f"{total} statement(s) of src/crossemb never ran")
    print(NOTE)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
