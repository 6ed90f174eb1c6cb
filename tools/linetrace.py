#!/usr/bin/env python3
"""Lines of src/sadmm/ that a pytest run never executes.

    python3 tools/linetrace.py [PYTEST ARGS ...]

Runs pytest in this process, from the repository root, with the given
arguments (none: the configured test paths) and with this checkout's src/
first on the import path. A sys.settrace hook records every line executed
in a frame whose code lives under src/sadmm/; frames elsewhere are not
traced line by line. Then it prints `file:line: source` for every
executable line of src/sadmm/*.py that never ran. A line is executable when
the compiled module gives it bytecode; docstrings and the `...` bodies of
stub methods (the Protocol's) are left out, and comments have no bytecode.

Say `-k "not criterion_07"` or name test files to keep the run short; the
trace makes the suite about twice as slow. The exit status is 0 whatever
the tests did; pytest's own summary is printed above the list. The script
uses the standard library only and is not part of the test suite.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sadmm"


def _code_lines(code) -> set[int]:
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Lines of docstrings and of `...` statement bodies."""
    skipped = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for i, stmt in enumerate(node.body):
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                continue
            value = stmt.value.value
            if (i == 0 and isinstance(value, str)) or value is Ellipsis:
                skipped.update(range(stmt.lineno, stmt.end_lineno + 1))
    return skipped


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _skipped_lines(ast.parse(source))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
                missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
