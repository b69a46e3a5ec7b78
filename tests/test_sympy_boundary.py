"""sympy sits behind one boundary: `polynomial.factor`."""

import ast
from pathlib import Path

import onecell


def _imports_sympy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            return True
    return False


def test_only_the_polynomial_module_imports_sympy():
    package = Path(onecell.__file__).parent
    importers = sorted(p.name for p in package.glob("*.py") if _imports_sympy(p))
    assert importers == ["polynomial.py"]
