"""Print the lines of the package that no test runs, module by module.

It runs the test suite in this process with ``pytest.main``, under a line
tracer set with ``sys.settrace`` and ``threading.settrace`` that records the
line events of code in ``src/stablesim`` only.  The package is imported after
the tracer is set, so module-level statements count too.  A module's
executable lines are the line numbers of its code objects' ``co_lines()``,
nested code objects included, less the lines of ``def`` and ``class``
statements (with their decorators), imports and docstrings.  Every
executable line that recorded no line event is printed under its module,
with its source text, and a last line gives the totals.

Only the test process is traced.  Forked span workers (``io._span_results``)
and child interpreters are not, so the functions in ``FORKED``, which run
only on span workers, are left out of the totals and listed by name on a
line of their own.  The total thus reads 0 when every traceable line runs.
The tracer makes the suite several times slower: about two and a half
minutes for the whole suite on 2 CPUs.

usage: python tools/unrun_lines.py [PYTEST_ARGS...]
       (imports the package from src/ next to tools/; the arguments, default
       the tests/ directory, go to pytest)
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablesim"
# per module, the functions that only forked span workers run
FORKED = {"io.py": ("_hold", "_held_call")}


def executable_lines(path: Path, source: str) -> set[int]:
    """Lines of the module at ``path``, whose text is ``source``, that hold
    bytecode, less def, class, import and docstring lines."""
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    skip: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            skip.update(range(first, node.body[0].lineno))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                skip.update(range(doc.lineno, doc.end_lineno + 1))
    return lines - skip


def function_lines(source: str, names) -> set[int]:
    """Lines of the module-level functions ``names`` in ``source``."""
    return {line for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in names
            for line in range(node.lineno, node.end_lineno + 1)}


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # read before the run, so that an edit during it cannot shift the lines
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = n_forked = 0
    for path, source in sources.items():
        lines = executable_lines(path, source)
        forked = lines & function_lines(source, FORKED.get(path.name, ()))
        lines -= forked
        n_forked += len(forked)
        missed = sorted(line for line in lines if (str(path), line) not in ran)
        total += len(lines)
        unrun += len(missed)
        if missed:
            text = source.splitlines()
            print(f"{path.name}: {len(missed)} of {len(lines)} executable lines unrun")
            for line in missed:
                print(f"  {line:5d}  {text[line - 1].strip()}")
    names = ", ".join(f"{module[:-3]}.{name}" for module, fs in FORKED.items() for name in fs)
    print(f"not traced: {n_forked} executable lines of {names}, run only on forked span workers")
    print(f"total: {unrun} of {total} executable lines unrun")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
