"""Line census of the `onecell` package: code, docstring, comment and
blank lines per module of `src/onecell`.

    python tests/line_census.py                 # the counts of the tree
    python tests/line_census.py --against REF   # their changes since REF

With `--against`, each module's counts at the git ref REF are read with
`git show` and the table holds the tree's counts minus those, a module
new since REF or gone from the tree counting as empty on the other side;
a ref that git cannot find is reported, with exit status 2.

A docstring line is any line of a module, class or function docstring;
of the other lines, a blank line is empty or white space, a comment
line holds only a `#` comment, and every remaining line is code.  The
four counts of a module add up to its `wc -l`.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "onecell"
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


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def census_at(ref: str) -> dict[str, dict[str, int]] | None:
    """The census of each module at the git ref, read with `git show`;
    None when git cannot find the ref."""
    if _git("rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}").returncode:
        return None
    listed = _git("ls-tree", "--name-only", ref, "--", "src/onecell/").stdout.split()
    return {Path(path).name: census(_git("show", f"{ref}:{path}").stdout)
            for path in listed if path.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Line census of src/onecell.")
    parser.add_argument("--against", metavar="REF",
                        help="print the changes since the git ref REF")
    args = parser.parse_args(argv)
    counts = {path.name: census(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    sign = ""
    if args.against is not None:
        before = census_at(args.against)
        if before is None:
            print(f"line_census: no git ref {args.against!r} to compare against")
            return 2
        empty = dict.fromkeys(KINDS, 0)
        counts = {name: {kind: counts.get(name, empty)[kind] - before.get(name, empty)[kind]
                         for kind in KINDS}
                  for name in sorted(counts.keys() | before.keys())}
        sign = "+"
        print(f"changes since {args.against}")
    total = {kind: sum(c[kind] for c in counts.values()) for kind in KINDS}
    print(f"{'module':18}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, c in [*counts.items(), ("total", total)]:
        print(f"{name:18}{sum(c.values()):>{sign}7}"
              + "".join(f"{c[kind]:>{sign}11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
