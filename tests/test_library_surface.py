"""The library holds only what it uses: every module-level function and
class of `onecell` is named by code in `src/`, `bench/` or `demos/`
(the layer names of `bench/tracer.py`'s `LAYERS` count), or is part of
the public `onecell.__all__`.  A helper that only tests call belongs in
`tests/oracles.py`."""

import ast
from pathlib import Path

import onecell

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "onecell"


def _defined(path: Path) -> list[str]:
    """The module-level functions and classes that path defines."""
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _named(node: ast.AST) -> set[str]:
    """The names that node's code reads, imports or lists as a layer."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in sub.targets)):
            out |= {part for c in ast.walk(sub.value) if isinstance(c, ast.Constant)
                    and isinstance(c.value, str) for part in c.value.split(".")}
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names a module's code uses, not counting a definition's uses
    of its own name (recursion)."""
    out = set()
    for node in tree.body:
        names = _named(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(node.name)
        out |= names
    return out


def test_every_library_definition_is_used_or_public():
    files = [*_PACKAGE.glob("*.py"), *(_ROOT / "bench").glob("*.py"),
             *(_ROOT / "demos").glob("*.py")]
    used = set(onecell.__all__).union(*(_used(ast.parse(f.read_text())) for f in files))
    unused = sorted(f"{path.stem}.{name}" for path in sorted(_PACKAGE.glob("*.py"))
                    for name in _defined(path) if name not in used)
    assert unused == []


def test_the_scan_counts_layers_and_not_recursion():
    tree = ast.parse("LAYERS = (('properties', 'is_squarefree', None),)\n"
                     "def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return h.refine\n")
    assert _used(tree) >= {"is_squarefree", "h", "refine"}
    assert not _used(tree) & {"f", "g"}
