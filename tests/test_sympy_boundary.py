"""sympy sits behind one boundary: `polynomial.factor`, which uses only
sympy's dense polynomial layer."""

import ast
import os
import subprocess
import sys
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


def _sympy_modules_after(code: str) -> list[str]:
    """The sympy modules loaded in a fresh interpreter that runs code."""
    src = str(Path(onecell.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    out = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_sympy_is_loaded_only_by_a_factorization_that_needs_it():
    assert _sympy_modules_after("import onecell") == []
    # the disk x^2 + y^2 < 1 above y = 1/2: every factorization has a
    # closed form or a certificate
    solve = (
        "from onecell.explain import Constraint\n"
        "from onecell.polynomial import parse_poly\n"
        "from onecell.solver import solve_conjunction\n"
        "r = solve_conjunction([Constraint(parse_poly('x1^2+x2^2-1'), '<'),\n"
        "                       Constraint(parse_poly('2*x2-1'), '>')], 2)\n"
        "print(r.status)"
    )
    assert _sympy_modules_after(solve) == []
    assert _sympy_modules_after("import onecell\nonecell.polynomial.factor_dense((4, 0, 0, 0, 1))")


def test_squarefree_mode_loads_no_sympy():
    """x^2 (x - 1)^2 goes through Yun's algorithm on the tuple, and
    x1^2*x2 + x2^3 + 1 is proved square-free by its image x2^3 + x2 + 1."""
    dense = "import onecell\nprint(onecell.polynomial.factor_dense((0, 0, 1, -2, 1), 'squarefree'))"
    assert _sympy_modules_after(dense) == []
    term_map = ("from onecell.polynomial import factor, parse_poly\n"
                "print(factor(parse_poly('x1^2*x2+x2^3+1'), 'squarefree'))")
    assert _sympy_modules_after(term_map) == []


def test_finest_input_with_a_repeated_factor_loads_no_sympy():
    """(3x - 1)^2 (9x^2 + 9x + 1): Yun's algorithm splits off its
    square-free parts, which the quadratic closed form finishes."""
    dense = "import onecell\nprint(onecell.polynomial.factor_dense((1, 3, -36, 27, 81)))"
    assert _sympy_modules_after(dense) == []
