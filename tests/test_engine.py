"""End-to-end cell construction: the worked two-variable instance,
failure modes, and randomized soundness."""

import random
from fractions import Fraction

import pytest

from onecell.cells import cell_contains, cell_pick_interior_point, cell_to_text
from onecell.config import HEURISTIC_IDS, HeuristicConfig, config_from_id
from onecell.engine import Fail, single_cell
from onecell.polynomial import normalize, parse_poly
from onecell.properties import SgnInv, validate_trace
from onecell.realalg import RealAlg, Sample, isolate_real_roots
from onecell.stats import RunStats

from conftest import (
    check_cell_sound,
    random_poly,
    random_sample,
    sign_vector,
    within_seconds,
)
from oracles import realalg_from_text

P_RUNNING = ["x1-2*x2+1", "x1^2+x2^2-1", "x1-2*x2-1"]
S_RUNNING = (Fraction(1, 8), Fraction(-3, 4))


def test_running_instance_cell_shape():
    result = single_cell(P_RUNNING, S_RUNNING, HeuristicConfig("EQ", "BC"))
    assert result
    text = cell_to_text(result.cell)
    assert text == (
        'level 1 sector (root "5*x1^2-2*x1-3" 1) (root "x1^2-1" 2)\n'
        'level 2 sector (root "x2^2+x1^2-1" 1) (root "2*x2-x1+1" 1)\n'
    )


def test_running_instance_base_interval_endpoints():
    """The level-1 sector is exactly (-3/5, 1), resolved numerically
    from the projection polynomials."""
    result = single_cell(P_RUNNING, S_RUNNING)
    lo_bound = result.cell[0].lower
    hi_bound = result.cell[0].upper
    lo = isolate_real_roots(lo_bound.poly)[lo_bound.index - 1]
    hi = isolate_real_roots(hi_bound.poly)[hi_bound.index - 1]
    assert lo.compare(RealAlg.rational(Fraction(-3, 5))) == 0
    assert hi.compare(RealAlg.rational(Fraction(1))) == 0


def test_running_instance_trace_validates():
    result = single_cell(P_RUNNING, S_RUNNING)
    assert validate_trace(result.trace, set(result.trace.axioms))


def test_running_instance_inputs_are_derived():
    result = single_cell(P_RUNNING, S_RUNNING)
    derived = {c.text() for c in result.trace.conclusions()}
    for p in P_RUNNING:
        poly = parse_poly(p)
        assert (
            SgnInv(poly).text() in derived
            or SgnInv(normalize(poly)).text() in derived
        )


def test_nullified_top_level_fails():
    result = single_cell(["x1*x3+x2"], (0, 0, 0))
    assert isinstance(result, Fail)
    assert not result


def test_nonzero_coefficient_rescues():
    result = single_cell(["x1*x3+x2"], (1, 0, 0))
    assert result
    assert cell_contains(result.cell, Sample([Fraction(1), Fraction(0), Fraction(0)])) is True


NULLIFIED_OVER_00 = ["x1*x3+x2", "x3-1"]  # x1*x3+x2 vanishes over (0, 0)


@pytest.mark.parametrize("hid", sorted(HEURISTIC_IDS))
def test_nullified_polynomial_over_a_section_by_eqproj(hid):
    """Over the section x3 = 1, sign-invariance of the nullified
    x1*x3+x2 follows from the equational projection, whose resultant
    x2+x1 makes level 2 a section too."""
    result = single_cell(NULLIFIED_OVER_00, (0, 0, 1), config_from_id(hid))
    assert cell_to_text(result.cell) == (
        "level 1 sector -inf +inf\n"
        'level 2 section (root "x2+x1" 1)\n'
        'level 3 section (root "x3-1" 1)\n'
    )
    assert any(
        line.startswith("DERIVE sgninv(x1*x3+x2) FROM ")
        and line.endswith("; ordinv(x2+x1) VIA eqproj")
        for line in result.trace.to_text().splitlines()
    )
    assert validate_trace(result.trace, set(result.trace.axioms))
    polys = [parse_poly(p) for p in NULLIFIED_OVER_00]
    assert check_cell_sound(result.cell, polys, Sample([0, 0, 1]), 5) == 5


# golden fuzz 30 at (5/2, 0, -1/3): x1*x2, the leading coefficient in x3
# of the last polynomial, is square-free, so it stays whole at level 2
# with its content x1, and shares the factor x2 of the section x2 = 0
ZERO_RESULTANT = ["2", "-x2^3", "3*x2^2*x3+x2^3", "-3*x1*x2*x3+3*x1^2*x2+2"]


@pytest.mark.parametrize("hid", sorted(HEURISTIC_IDS))
@pytest.mark.parametrize("polys, coords, culprit, failing", [
    # a sector: no rule concludes sign-invariance of a nullified polynomial
    (NULLIFIED_OVER_00, (0, 0, 2), "x1*x3+x2", HEURISTIC_IDS),
    # x1*x3+x2*x3 = x3*(x2+x1), and its root x3 = 0 leaves x3 = 1 in a sector
    (["x1*x3+x2", "x1*x3+x2*x3"], (0, 0, 1), "x1*x3+x2", HEURISTIC_IDS),
    # a section whose polynomial x2 divides x1*x2: a zero resultant, so
    # the equational projection does not apply; bc, ch-ch and full pick
    # other bounds and build a cell
    (ZERO_RESULTANT, (Fraction(5, 2), 0, Fraction(-1, 3)), "x1*x2",
     ("eq-bc", "eq-ch", "eq-ldb", "ldb-ldb")),
], ids=["sector", "sector-of-x3", "zero-resultant"])
def test_nullified_polynomial_without_eqproj_fails(polys, coords, culprit, failing, hid):
    """Splitting off a content of lower level (ROADMAP item 20) will
    turn the zero-resultant failures into cells."""
    result = single_cell(polys, coords, config_from_id(hid))
    if hid in failing:
        assert result == Fail(f"no applicable rule for sgninv({culprit})")
        return
    assert validate_trace(result.trace, set(result.trace.axioms))
    polys = [parse_poly(p) for p in polys]
    assert check_cell_sound(result.cell, polys, Sample(coords), 5) == 5


def test_cell_contains_its_sample():
    rng = random.Random(7)
    for _ in range(25):
        nv = rng.randint(1, 3)
        polys = [random_poly(rng, nv) for _ in range(rng.randint(1, 3))]
        coords = random_sample(rng, nv)
        result = single_cell(polys, coords)
        if isinstance(result, Fail):
            continue
        assert cell_contains(result.cell, Sample(coords)) is True


def _random_instances(rng, count):
    """The seeded fuzz corpus: count instances in 1 to 3 variables, each
    1 to 4 polynomials and a rational sample."""
    for _ in range(count):
        nv = rng.randint(1, 3)
        polys = [random_poly(rng, nv) for _ in range(rng.randint(1, 4))]
        yield polys, random_sample(rng, nv)


@pytest.mark.parametrize("count", [200], ids=["default"])
def test_sign_invariance_random(rng, count):
    """Sign-invariance at interior points, heuristics round-robin, under
    the default configuration of each heuristic id.  Every trace must
    validate, and every level of a cell is connected, so the picker never
    refuses a draw."""
    successes = 0
    for k, (polys, coords) in enumerate(_random_instances(rng, count)):
        hid = sorted(HEURISTIC_IDS)[k % len(HEURISTIC_IDS)]
        result = single_cell(polys, coords, config_from_id(hid))
        if isinstance(result, Fail):
            continue
        successes += 1
        assert validate_trace(result.trace, set(result.trace.axioms))
        reference = sign_vector(polys, Sample(coords))
        for seed in range(10):
            pt = within_seconds(5, lambda: cell_pick_interior_point(result.cell, seed))
            assert sign_vector(polys, pt) == reference, f"sign change inside cell at {pt!r}"
    assert successes > 10


def test_sample_on_poly_root_gives_section():
    result = single_cell(["x2^2+x1^2-1"], (Fraction(0), Fraction(1)))
    assert result
    assert result.cell[1].is_section()


def test_section_below_the_top_uses_connected_section():
    # level 2 is a section, so connectedness of the level-2 region is
    # derived from the section rule, the one no golden trace reaches
    polys = ["-x1^3+3*x1^2", "-2*x2^3+2", "-3*x2^2*x3-x1^2+2", "-2*x2^3-x3^2+1"]
    result = single_cell(polys, (Fraction(2, 3), 0, Fraction(-5, 2)), config_from_id("bc"))
    assert result
    assert result.cell[1].is_section()
    assert "VIA connected-section" in result.trace.to_text()
    assert validate_trace(result.trace, set())


def test_constant_inputs_are_harmless():
    result = single_cell(["3", "x1-1"], (Fraction(0),))
    assert result
    assert len(result.cell) == 1


def test_level_check_rejects_excess_variables():
    with pytest.raises(ValueError):
        single_cell(["x1*x3+x2"], (0, 0))


def test_stats_are_populated():
    stats = RunStats()
    result = single_cell(P_RUNNING, S_RUNNING, stats=stats)
    assert result
    lines = dict(l.split("=") for l in stats.lines())
    assert lines["cells_constructed"] == "1"
    assert int(lines["resultants_computed"]) >= 1
    assert int(lines["discriminants_computed"]) >= 1


def test_all_heuristics_on_running_instance():
    for hid in sorted(HEURISTIC_IDS):
        result = single_cell(P_RUNNING, S_RUNNING, config_from_id(hid))
        assert result, hid
        assert cell_contains(
            result.cell, Sample([Fraction(1, 8), Fraction(-3, 4)])
        ) is True
        assert validate_trace(result.trace, set(result.trace.axioms)), hid


@pytest.mark.parametrize("hid", sorted(HEURISTIC_IDS))
def test_each_value_rendered_at_most_once(monkeypatch, hid):
    """Ties in property selection are broken on rendered text; each
    polynomial and each real algebraic number renders it once, on a
    golden instance with irrational sample coordinates.  The memo tables
    are emptied first, so no value is kept, text and all, from an
    earlier test."""
    from onecell import memo, polynomial, realalg
    from test_golden import TIES

    memo.clear()
    renders = {polynomial: {}, realalg: {}}
    for module, seen in renders.items():
        def counting(x, render=module._render, seen=seen):
            n, _ = seen.get(id(x), (0, x))
            seen[id(x)] = (n + 1, x)  # holds x, so its id is not reused
            return render(x)

        monkeypatch.setattr(module, "_render", counting)
    polys, coords = TIES[4]
    assert single_cell(polys, [realalg_from_text(c) for c in coords],
                       config_from_id(hid))
    for seen in renders.values():
        assert seen and max(n for n, _ in seen.values()) == 1
