#!/usr/bin/env python3
"""Print the statement lines of ``src/regretlab`` that Tier-1 never reaches.

    python3 tools/line_census.py > census.txt

Runs the Tier-1 suite (``tests/``) in this process under a ``sys.settrace``
hook, set for new threads too through ``threading.settrace``, that records
the line events of the package's own files.  The two documented lower-bound
failures are deselected.  pytest's own output goes to stderr; stdout gets
only the census, one line per module that has unreached statements, so two
runs compare with one ``diff``.

A statement is executable when its own lines (a compound statement's header,
a simple statement's whole span, decorators included) carry bytecode, and
reached when a line event fell on one of them.  Docstrings and ``global``
carry none.  Runs of unreached statements with no reached one between them
print as one range.

Not seen: lines reached only in a subprocess (the CLI tests that run
``python -m regretlab``) or in the child that ``experiment._run_beside``
forks (``experiment._child`` and the branch that calls it).  Those lines are
listed although some test reaches them there.

Tracing slows the suite about twofold.  Only the standard library and pytest
are used.  Exits with pytest's status.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "regretlab")
# the two documented failures (README "Testing"): deselected, as they fail at any commit
DOCUMENTED_FAILURES = (
    "tests/test_acceptance.py::test_06_lower_bound_experiment_matches_its_closed_forms",
    "tests/test_library.py::TestLowerBound::test_realized_matches_closed_form",
)


def _trace_package(files):
    """Start recording line events of ``files`` (real paths) in this thread
    and in threads started from now on; returns real path -> set of lines."""
    hits = {path: set() for path in files}
    known = {}  # co_filename as imported -> the file's local tracer, or None

    def local_tracer(found):
        def local(frame, event, arg):
            if event == "line":
                found.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            found = hits.get(os.path.realpath(name))
            known[name] = None if found is None else local_tracer(found)
        return known[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    return hits


def _code_lines(code: types.CodeType) -> set:
    """Every line that carries bytecode in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """A statement's own lines: its decorators and header for a compound
    statement, its whole span for a simple one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(start, max(start, end) + 1)


def _is_docstring(node: ast.stmt, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _statements(path: str) -> list:
    """(first line, own lines) of each executable statement of ``path``, in order."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    found = []
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                own = _own_lines(node)
                if code_lines.intersection(own):
                    found.append((node.lineno, own))
    return sorted(found, key=lambda s: s[0])


def _ranges(flags) -> list:
    """'a' or 'a–b' for each run of unreached statements, given (line,
    reached) of every executable statement in line order."""
    runs, start, last = [], None, None
    for line, reached in flags + [(None, True)]:
        if reached and start is not None:
            runs.append(str(start) if start == last else f"{start}–{last}")
            start = None
        elif not reached:
            start = line if start is None else start
            last = line
    return runs


def census(hits) -> list:
    """A total line, then one line per module with unreached statements: its
    name, the count of unreached of executable statements, and their ranges."""
    out, missed_all, total = [], 0, 0
    for path in sorted(hits):
        flags = [(line, not hits[path].isdisjoint(own)) for line, own in _statements(path)]
        missed = sum(not reached for _, reached in flags)
        missed_all, total = missed_all + missed, total + len(flags)
        if missed:
            module = os.path.splitext(os.path.basename(path))[0]
            out.append(f"{module} {missed} of {len(flags)}: {', '.join(_ranges(flags))}")
    return [f"{missed_all} of {total} executable statements unreached"] + out


def main() -> int:
    files = {os.path.realpath(os.path.join(PACKAGE, name))
             for name in os.listdir(PACKAGE) if name.endswith(".py")}
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hits = _trace_package(files)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                  *(f"--deselect={t}" for t in DOCUMENTED_FAILURES), "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("# statement lines of src/regretlab never reached by Tier-1 in this process "
          f"(pytest exit status {int(status)})")
    print("# not seen: subprocess CLI tests and the child experiment._run_beside forks")
    for line in census(hits):
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
