"""Count the code lines of a package: the size figure simplicity changes cite.

A line counts when it carries a token of code, so blank lines, comment-only
lines and the lines of docstrings (the leading string of a module, class or
function body) do not.  A token that spans several lines (a multi-line
string, say) counts each line it touches.

    python tools/code_lines.py [DIR]    # default: src/srds

prints one ``<count> <module>`` line per ``*.py`` file of DIR, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/srds")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
