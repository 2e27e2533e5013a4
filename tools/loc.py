"""Count the lines of the sftkit package: total lines and code lines.

A code line holds a token other than a comment, a newline or an indent, and
is not a line of a docstring (the leading string of a module, class or
function body).  Blank lines, comment lines and docstrings are not code.

    python3 tools/loc.py            # src/sftkit
    python3 tools/loc.py DIR ...    # every *.py under each DIR

Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "sftkit"]
    total = code = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            t, c = count(path.read_text(encoding="utf-8"))
            total, code = total + t, code + c
    print(f"total lines: {total}")
    print(f"code lines: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
