"""sympy sits behind one boundary: `polynomial.factor`, which uses only
sympy's dense polynomial layer."""

import ast
from pathlib import Path

import onecell


def _sympy_imports(path: Path) -> list[str]:
    """The sympy modules that `path` imports, in order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        out += [n for n in names if n == "sympy" or n.startswith("sympy.")]
    return out


def test_only_the_polynomial_module_imports_sympy():
    package = Path(onecell.__file__).parent
    importers = sorted(p.name for p in package.glob("*.py") if _sympy_imports(p))
    assert importers == ["polynomial.py"]


def test_the_polynomial_module_imports_only_sympy_polys_submodules():
    modules = _sympy_imports(Path(onecell.__file__).parent / "polynomial.py")
    assert modules
    assert all(m.startswith("sympy.polys.") for m in modules), modules
