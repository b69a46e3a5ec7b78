"""A committed mutant catalogue: mutation analysis (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 1978) on a
hand-picked list of faults that the test suite must catch.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

For each entry the script copies `src/`, `tests/` and `pyproject.toml`
to a temporary directory (never touching the working tree), checks that
the entry's old text occurs exactly once in its file (otherwise the
entry is stale), applies the change, and runs the entry's tests with
`-x` under its time limit.  The mutant is killed when a test fails
within the limit; it survives when the tests pass or run past the
limit.  A failure that is a `NameError`, `ImportError`,
`ModuleNotFoundError` or `SyntaxError` shows a mutant that does not
run, not a fault the tests caught: the mutant is broken.  The script
prints one line per entry, killed, survived, broken or stale with the
seconds to the first failure, and exits 1 unless every entry is
killed.  pytest does not collect this file.

A change that rewrites mutated code updates its entry here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# pytest's line for an exception that says the mutated code cannot run
BROKEN = re.compile(r"^E +(NameError|ImportError|ModuleNotFoundError|SyntaxError)\b", re.M)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    limit: float  # seconds


REALALG = "src/onecell/realalg.py"
POLYNOMIAL = "src/onecell/polynomial.py"
EXPLAIN = "src/onecell/explain.py"
ENGINE = "src/onecell/engine.py"

CATALOGUE = [
    Mutant(
        "equality that skips the gcd",
        REALALG,
        "        g = _gcd_heuristic(x._sqf, y._sqf)[0]\n",
        "        g = (1,)\n",
        ("tests/test_squarefree_isolation.py::test_equal_values_of_different_tuples",),
        60,
    ),
    Mutant(
        "a refine that misses a midpoint root",
        REALALG,
        "        elif s:\n"
        "            self._box = (a << 1, m, d << 1)\n"
        "        else:\n"
        "            g = math.gcd(m, d << 1)\n"
        "            self._set_ratio(m // g, (d << 1) // g)\n",
        "        else:\n"
        "            self._box = (a << 1, m, d << 1)\n",
        ("tests/test_squarefree_isolation.py::test_a_rational_root_at_a_bisection_midpoint",),
        60,
    ),
    Mutant(
        "a midpoint rational left unreduced",
        REALALG,
        "            self._set_ratio(m // g, (d << 1) // g)\n",
        "            self._set_ratio(m, d << 1)\n",
        ("tests/test_integer_eval.py::test_rationals_compare_and_key_as_their_fractions",),
        60,
    ),
    Mutant(
        "a rational comparison that multiplies both sides by one denominator",
        REALALG,
        "            x, y = a * g, e * d\n",
        "            x, y = a * g, e * g\n",
        ("tests/test_integer_eval.py::test_rationals_compare_and_key_as_their_fractions",),
        60,
    ),
    Mutant(
        "a bisection that misses a midpoint root",
        REALALG,
        "            if not right[0]:\n",
        "            if False:\n",
        ("tests/test_squarefree_isolation.py::test_a_rational_root_at_a_bisection_midpoint",),
        60,
    ),
    Mutant(
        "a refine that keeps the wrong half",
        REALALG,
        "        if s == self._slo:\n",
        "        if s != self._slo:\n",
        ("tests/test_integer_enclosures.py",),
        120,
    ),
    Mutant(
        "k off by one in _simplest",
        REALALG,
        "            k = d // (c - t * d) + 1\n",
        "            k = d // (c - t * d)\n",
        ("tests/test_integer_enclosures.py",),
        120,
    ),
    Mutant(
        "any root counts in the zero test",
        REALALG,
        "    return roots is NULLIFIED or s[k - 1] in roots\n",
        "    return roots is NULLIFIED or bool(roots)\n",
        ("tests/test_zero_test.py",),
        120,
    ),
    Mutant(
        "an integer form that drops the content's denominator",
        POLYNOMIAL,
        "k.numerator * (l // k.denominator) // g",
        "k.numerator // g",
        ("tests/test_rational_roots.py::test_roots_over_rational_prefixes_match_substitution",),
        60,
    ),
    Mutant(
        "a kernel scale that ignores den",
        POLYNOMIAL,
        "    return MPoly._canonical(_stored({e: Fraction(num * k, den) for e, k in R.items()}))\n",
        "    return MPoly._canonical({e: num * k for e, k in R.items()})\n",
        ("tests/test_resultant.py::test_rational_coefficients_up_to_level_three",),
        60,
    ),
    Mutant(
        "a fiber whose zero top coefficients are kept",
        REALALG,
        "        c = _trim(p._fiber(point, i)[0])\n",
        "        c = p._fiber(point, i)[0]\n",
        ("tests/test_rational_roots.py::test_roots_over_rational_prefixes_match_substitution",),
        60,
    ),
    Mutant(
        "epsilon dropped in _root_count",
        REALALG,
        "    signs = [_eps(m) * sign_at(psc[e - m], s) for m in range(1, e + 1)]\n",
        "    signs = [sign_at(psc[e - m], s) for m in range(1, e + 1)]\n",
        ("tests/test_root_count.py",),
        120,
    ),
    Mutant(
        "a _quotient without its remainder check",
        POLYNOMIAL,
        "    return None if any(a[:m]) else out\n",
        "    return out\n",
        ("tests/test_squarefree.py",),
        120,
    ),
    Mutant(
        "a gcd that gives up after its first failed point",
        POLYNOMIAL,
        "        k *= 2\n",
        "        return (1,), a, b\n",
        ("tests/test_squarefree.py",),
        120,
    ),
    Mutant(
        "_irord_choice citing only the first pair",
        "src/onecell/rules.py",
        "    res = ordering_resultants(((a.poly, b.poly) for a, b in pairs), ell + 1)\n",
        "    res = ordering_resultants(((a.poly, b.poly) for a, b in pairs[:1]), ell + 1)\n",
        ("tests/test_rules.py", "tests/test_acceptance.py"),
        120,
    ),
    Mutant(
        "a dropped multiplicity in Yun",
        POLYNOMIAL,
        "            pairs.append((tuple(a), i))\n",
        "            pairs.append((tuple(a), 1))\n",
        ("tests/test_squarefree.py",),
        120,
    ),
    Mutant(
        "a binomial root taken as +s",
        POLYNOMIAL,
        "        u = -s if c[0] > 0 else s\n",
        "        u = s\n",
        ("tests/test_deflation.py",),
        120,
    ),
    Mutant(
        "N in _ires without its factor 2",
        POLYNOMIAL,
        "    n = 2 * _norm(P) ** dq * _norm(Q) ** dp + 1\n",
        "    n = _norm(P) ** dq * _norm(Q) ** dp + 1\n",
        ("tests/test_resultant.py::test_large_coefficients_match_term_maps",),
        60,
    ),
    Mutant(
        "slot widths D_k without the + 1",
        POLYNOMIAL,
        "    widths = [_degree_bound(P, Q, k, dp, dq) + 1 for k in range(1, j + 1)]\n",
        "    widths = [_degree_bound(P, Q, k, dp, dq) for k in range(1, j + 1)]\n",
        ("tests/test_resultant.py::test_rows_match_term_maps",),
        60,
    ),
    Mutant(
        "_digits without its balancing step",
        POLYNOMIAL,
        "        if 2 * d > base:  # the balanced digit d - 2^k\n"
        "            d -= base\n",
        "",
        ("tests/test_resultant.py::test_digits_read_back_balanced_coefficients",),
        60,
    ),
    Mutant(
        "_at raising a to the wrong power",
        POLYNOMIAL,
        "            f = a ** e[-1]\n",
        "            f = a ** (e[-1] + 1)\n",
        ("tests/test_resultant.py::test_rows_at_a_value_match_substitution",),
        60,
    ),
    Mutant(
        "OrdInv sharing SgnInv's kind tag",
        "src/onecell/properties.py",
        "# a level proves tiers up to this one from the sample alone, and the rest\n",
        "OrdInv.tag = SgnInv.tag\n"
        "# a level proves tiers up to this one from the sample alone, and the rest\n",
        ("tests/test_properties.py",),
        120,
    ),
    Mutant(
        "_pairs_ldb with the pair orientation swapped",
        "src/onecell/heuristics.py",
        "                pairs.append((r, b) if side < 0 else (b, r))\n",
        "                pairs.append((b, r) if side < 0 else (r, b))\n",
        ("tests/test_heuristics.py",),
        120,
    ),
    Mutant(
        "an intern key that drops the coefficients",
        POLYNOMIAL,
        "        key = frozenset(terms.items())\n",
        "        key = frozenset(terms)\n",
        ("tests/test_memo.py::test_equal_polynomials_built_by_different_paths_are_one_object",),
        60,
    ),
    Mutant(
        "a kept normal form that skips the sign flip",
        POLYNOMIAL,
        "            P = {e: -k for e, k in P.items()}\n",
        "            pass\n",
        ("tests/test_memo.py::test_equal_polynomials_built_by_different_paths_are_one_object",),
        60,
    ),
    Mutant(
        "line_samples sorting the values as they are, with no copies",
        REALALG,
        "    copies = [v.canonical_copy() for v in values]\n",
        "    copies = list(values)\n",
        ("tests/test_solver.py::test_model_does_not_depend_on_earlier_calls",),
        60,
    ),
    Mutant(
        "separate calling _gap on the originals",
        REALALG,
        "    b, d, e, g = _gap(*(None if v is None else v.canonical_copy() for v in (lo, hi)))\n",
        "    b, d, e, g = _gap(lo, hi)\n",
        ("tests/test_cells.py::test_interior_point_does_not_depend_on_earlier_calls",),
        60,
    ),
    Mutant(
        "an overlap sign test without its nonempty-overlap test",
        REALALG,
        "    return lo[0] * hi[1] < hi[0] * lo[1] and _usign(c, *lo) != _usign(c, *hi)\n",
        "    return _usign(c, *lo) != _usign(c, *hi)\n",
        ("tests/test_squarefree_isolation.py::test_agrees_with_the_irreducible_path",),
        60,
    ),
    Mutant(
        "a wrong sign in Capelli's -4*Q^4 test",
        POLYNOMIAL,
        "    if n % 4 or b < 0:\n",
        "    if n % 4 or b > 0:\n",
        ("tests/test_deflation.py::test_capelli_criterion",),
        60,
    ),
    Mutant(
        "a section on a root of its constraint read with the sign of the sector below",
        EXPLAIN,
        "            if k < len(roots) and roots[k] == at_j:\n",
        "            if False:\n",
        ("tests/test_explain.py::test_sweep_matches_the_pointwise_sweep_on_mixed_constraints",),
        60,
    ),
    Mutant(
        "a > atom of a learned cell read as >=, accepting the section on its own bound",
        EXPLAIN,
        "    cells = [[place(a) for a in cell] for cell in cells]\n",
        "    cells = [[place(ExtendedConstraint(a.var, \">=\", a.bound) if a.rel == \">\" else a)\n"
        "              for a in cell] for cell in cells]\n",
        ("tests/test_explain.py::test_sweep_matches_the_pointwise_sweep_in_the_solver",),
        60,
    ),
    Mutant(
        "a cell seeded with square-free parts instead of irreducible factors",
        ENGINE,
        "        parts = [f for f, _ in factor(p) if not f.is_constant()]\n",
        "        parts = [f for f, _ in factor(p, \"squarefree\") if not f.is_constant()]\n",
        ("tests/test_golden.py",),
        60,
    ),
    Mutant(
        "an explanation seeded with square-free parts instead of irreducible factors",
        EXPLAIN,
        "        for f, _ in factor(p):\n",
        "        for f, _ in factor(p, \"squarefree\"):\n",
        ("tests/test_golden.py",),
        60,
    ),
    Mutant(
        "sector bounds left unordered",
        "src/onecell/heuristics.py",
        "        pairs.append((interval.lower, interval.upper))\n",
        "        pass\n",
        ("tests/test_engine.py::test_sign_invariance_random",),
        60,
    ),
]


def run(m: Mutant) -> tuple[str, float]:
    """('killed' | 'survived' | 'broken' | 'stale' | 'error: ...', seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        path = tmp / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "stale", 0.0
        path.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        start = time.monotonic()
        try:
            out = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                 timeout=m.limit)
        except subprocess.TimeoutExpired:
            return "survived", time.monotonic() - start
        seconds = time.monotonic() - start
        if out.returncode == 1:
            return "broken" if BROKEN.search(out.stdout) else "killed", seconds
        if out.returncode == 0:
            return "survived", seconds
        return f"error: pytest exit {out.returncode}", seconds


def main(names: list[str]) -> int:
    entries = [m for m in CATALOGUE if not names or m.name in names]
    if names and len(entries) != len(names):
        print("unknown entries:", sorted(set(names) - {m.name for m in CATALOGUE}))
        return 2
    results = []
    for m in entries:
        verdict, seconds = run(m)
        results.append((m, verdict, seconds))
        print(f"{verdict:9} {seconds:6.1f} s  {m.name}", flush=True)
    killed = [(s, m.name) for m, v, s in results if v == "killed"]
    print(f"{len(killed)} of {len(results)} killed", end="")
    print(f"; slowest kill {max(killed)[0]:.1f} s ({max(killed)[1]})" if killed else "")
    return 0 if len(killed) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
