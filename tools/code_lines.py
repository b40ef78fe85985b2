"""Count the code-only lines of a Python package, one line per module and a total.

A line counts when it holds a token other than a comment, except the lines
of a string that stands alone as a statement (a docstring, or any other bare
string).  Blank lines, comment lines and docstrings are left out; a
statement that spans three lines counts three.

Run from the repository root:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/taupart.  It only reports: the exit code is 0
unless the directory cannot be read.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def count_lines(source: str) -> int:
    """The code-only lines of one module's source."""
    bare = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            bare.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - bare)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/taupart")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<12} {count:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
