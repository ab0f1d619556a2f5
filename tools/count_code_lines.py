"""Count the code lines and the defaulted parameters of each module in a
package directory.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string literal of a module, class or function,
found with ``ast``); blank lines and comment-only lines are not counted.

A defaulted parameter is a parameter with a default value of a public
function or method: a module-level function, or a method of a module-level
class, whose name has no leading underscore (dunder methods count).  The
fields with a default of a public dataclass count as parameters of its
generated ``__init__``.  Each one is a setting a caller can change.

usage: python tools/count_code_lines.py [PACKAGE_DIR]   (default src/stablesim)
       prints one line per module: code lines, defaulted parameters, name
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines: set[int] = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _n_defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    names = {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list}
    return bool(names & {"dataclass", "dataclasses.dataclass"})


def defaulted_parameters(tree: ast.Module) -> int:
    total = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            total += _n_defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                    total += _n_defaults(item)
                elif (isinstance(item, ast.AnnAssign) and item.value is not None
                      and _is_dataclass(node) and "ClassVar" not in ast.unparse(item.annotation)):
                    total += 1
    return total


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/stablesim")
    total = total_defaults = 0
    print("  code  defaulted  module")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n = code_lines(source)
        d = defaulted_parameters(ast.parse(source))
        total += n
        total_defaults += d
        print(f"{n:6d}  {d:9d}  {path.name}")
    print(f"{total:6d}  {total_defaults:9d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
