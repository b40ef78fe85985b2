"""Count the code-only lines of a Python package, one line per module and a total.

A line counts when it holds a token other than a comment, except the lines
of a string that stands alone as a statement (a docstring, or any other bare
string).  Blank lines, comment lines and docstrings are left out; a
statement that spans three lines counts three.

Run from the repository root:

    python tools/code_lines.py [PACKAGE_DIR [BASE_DIR]]

PACKAGE_DIR defaults to src/taupart.  Given BASE_DIR, the same package in
another tree (a worktree of the base commit, say), it prints each module's
count in both trees and the change, a module missing from one tree
counting 0 there.  It only reports: the exit code is 0 unless a directory
cannot be read.
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


def package_counts(package: Path) -> dict[str, int]:
    """The code-only lines of each module of a package directory, by name."""
    if not package.is_dir():
        raise OSError(f"{package} is not a directory")
    return {path.stem: count_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    try:
        now = package_counts(Path(argv[0] if argv else "src/taupart"))
        base = package_counts(Path(argv[1])) if len(argv) > 1 else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if base is None:
        for name, count in [*now.items(), ("total", sum(now.values()))]:
            print(f"{name:<12} {count:>6}")
        return 0
    rows = [(name, base.get(name, 0), now.get(name, 0)) for name in sorted(base.keys() | now.keys())]
    rows.append(("total", sum(base.values()), sum(now.values())))
    print(f"{'module':<12} {'base':>6} {'now':>6} {'change':>7}")
    for name, before, after in rows:
        print(f"{name:<12} {before:>6} {after:>6} {after - before:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
