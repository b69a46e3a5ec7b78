"""Line census of the `onecell` package: code, docstring, comment and
blank lines per module of `src/onecell`.

    python tests/line_census.py

A docstring line is any line of a module, class or function docstring;
of the other lines, a blank line is empty or white space, a comment
line holds only a `#` comment, and every remaining line is code.  The
four counts of a module add up to its `wc -l`.  pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "onecell"
KINDS = ("code", "docstring", "comment", "blank")


def census(text: str) -> dict[str, int]:
    """The count of each of `KINDS` among the lines of one module."""
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstring_lines:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> int:
    rows = [(path.name, census(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    print(f"{'module':18}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in [*rows, ("total", total)]:
        print(f"{name:18}{sum(counts.values()):>7}"
              + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
