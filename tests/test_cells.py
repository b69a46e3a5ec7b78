"""Cell data structures: membership, interior sampling, text format."""

from fractions import Fraction

import pytest

import onecell
from onecell.cells import (
    CellDescription,
    ExtendedConstraint,
    IndexedRoot,
    SymbolicInterval,
    cell_contains,
    cell_from_text,
    cell_pick_interior_point,
    cell_to_formula,
    cell_to_text,
)
from onecell.config import HEURISTIC_IDS, HeuristicConfig, config_from_id
from onecell.engine import single_cell
from onecell.polynomial import parse_poly
from onecell.realalg import UNDEF, Sample

from conftest import sign_vector, within_seconds
from test_acceptance import P_RUNNING, S_RUNNING, _fuzz_instances


def _unit_disk_cell():
    circle = parse_poly("x2^2+x1^2-1")
    xline = parse_poly("x1^2-1")
    return CellDescription(
        [
            SymbolicInterval(1, IndexedRoot(xline, 1), IndexedRoot(xline, 2)),
            SymbolicInterval(2, IndexedRoot(circle, 1), IndexedRoot(circle, 2)),
        ]
    )


def test_cell_contains_disk():
    cell = _unit_disk_cell()
    assert cell_contains(cell, Sample([Fraction(0), Fraction(0)])) is True
    assert cell_contains(cell, Sample([Fraction(0), Fraction(2)])) is False
    assert cell_contains(cell, Sample([Fraction(3), Fraction(0)])) is False
    # over |x1| > 1 the circle has no real roots: bound undefined
    assert cell_contains(cell, Sample([Fraction(2), Fraction(0)])) in (False, UNDEF)


def test_section_membership():
    line = parse_poly("2*x2-x1")
    cell = CellDescription(
        [
            SymbolicInterval(1),
            SymbolicInterval.section(IndexedRoot(line, 1)),
        ]
    )
    assert cell_contains(cell, Sample([Fraction(4), Fraction(2)])) is True
    assert cell_contains(cell, Sample([Fraction(4), Fraction(1)])) is False


def test_interior_points_vary_and_stay_inside():
    cell = _unit_disk_cell()
    seen = set()
    for seed in range(25):
        pt = cell_pick_interior_point(cell, seed)
        assert cell_contains(cell, pt) is True
        seen.add(tuple(c.key() for c in pt))
    assert len(seen) > 1


def test_interior_point_of_section_is_the_section():
    line = parse_poly("x2-3")
    cell = CellDescription(
        [
            SymbolicInterval(1),
            SymbolicInterval.section(IndexedRoot(line, 1)),
        ]
    )
    for seed in range(5):
        pt = cell_pick_interior_point(cell, seed)
        assert pt[1].compare(Sample([Fraction(0), Fraction(3)])[1]) == 0


def test_text_roundtrip():
    cell = _unit_disk_cell()
    text = cell_to_text(cell)
    assert "level 1 sector" in text and "level 2 sector" in text
    assert cell_from_text(text) == cell
    inf_cell = CellDescription([SymbolicInterval(1)])
    assert cell_from_text(cell_to_text(inf_cell)) == inf_cell


def test_text_rejects_malformed():
    for bad in [
        "level 2 sector -inf +inf",
        'level 1 section -inf',
        "level 1 sector -inf",
        "nonsense",
        'level 1 sector -inf +inf\nlevel 2 sector (root "x2" 1) (root "x1" 1)',
        # equal bounds make a section, not an empty sector
        'level 1 sector (root "x1" 1) (root "x1" 1)',
        # +inf below and -inf above are not the ends they would stand for
        'level 1 sector +inf (root "x1" 1)',
        'level 1 sector (root "x1" 1) -inf',
        "level 1 sector +inf -inf",
        "level 1 sector +inf +inf",
        # an Arabic-Indic one is not a level or an index
        "level \u0661 sector -inf +inf",
        'level 1 section (root "x1" \u0661)',
    ]:
        with pytest.raises(ValueError):
            cell_from_text(bad)


def test_engine_cells_round_trip_through_text():
    """The README cell and the seeded fuzz cells under every heuristic
    read back equal to the cell the engine built."""
    cells = [single_cell(P_RUNNING, S_RUNNING, HeuristicConfig("EQ", "BC")).cell]
    for _, polys, coords, _ in _fuzz_instances(20):
        for hid in sorted(HEURISTIC_IDS):
            result = single_cell(polys, coords, config_from_id(hid))
            if result:
                cells.append(result.cell)
    assert len(cells) > 100
    for cell in cells:
        assert cell_from_text(cell_to_text(cell)) == cell


def test_intervals_sit_at_their_level():
    x1 = IndexedRoot(parse_poly("x1"), 1)
    with pytest.raises(ValueError):
        SymbolicInterval(2, x1)
    with pytest.raises(ValueError):
        SymbolicInterval(1, None, IndexedRoot(parse_poly("x2"), 1))
    with pytest.raises(ValueError):
        SymbolicInterval(0)
    section = SymbolicInterval.section(x1)
    assert section == SymbolicInterval(1, x1, x1) and section.is_section()
    assert section.bound_roots() == [x1]
    assert not SymbolicInterval(1, x1).is_section()
    assert not SymbolicInterval(1).is_section()


def test_roots_and_intervals_hash_as_their_fields():
    """The hashes computed at construction are the dataclass hashes of
    the fields, so sets of roots and intervals iterate as before."""
    circle = parse_poly("x2^2+x1^2-1")
    lo, hi = IndexedRoot(circle, 1), IndexedRoot(circle, 2)
    assert hash(lo) == hash((circle, 1))
    assert hash(IndexedRoot(parse_poly("x2^2+x1^2-1"), 1)) == hash(lo)
    for iv in (SymbolicInterval(2), SymbolicInterval(2, lo), SymbolicInterval(2, None, hi),
               SymbolicInterval(2, lo, hi), SymbolicInterval.section(hi)):
        assert hash(iv) == hash((iv.level, iv.lower, iv.upper))
    assert {SymbolicInterval(2, lo, hi), SymbolicInterval(2, lo, hi)} == {
        SymbolicInterval(2, lo, hi)
    }


def test_cell_description_puts_interval_i_at_level_i():
    whole = SymbolicInterval(1)
    assert CellDescription([whole]) == (whole,)
    for bad in ([whole] * 2, [SymbolicInterval(2)]):
        with pytest.raises(ValueError):
            CellDescription(bad)


def test_public_names_resolve():
    assert all(hasattr(onecell, name) for name in onecell.__all__)


def test_text_rejects_text_around_bounds():
    good = 'level 1 sector -inf  (root "x1" 1)'
    assert cell_from_text(good) == cell_from_text('level 1 sector -inf (root "x1" 1)')
    for bad in [
        'level 1 sector garbage -inf more (root "x1" 1) trailing',
        'level 1 sector -inf (root "x1" 1) trailing',
        'level 1 sector junk -inf (root "x1" 1)',
        'level 1 sector -inf , (root "x1" 1)',
        'level 1 section (root "x1" 1)(root "x1" 2)',
    ]:
        with pytest.raises(ValueError):
            cell_from_text(bad)


def test_formula_atoms_and_negation():
    cell = _unit_disk_cell()
    atoms = cell_to_formula(cell)
    rels = sorted(a.rel for a in atoms)
    assert rels == ["<", "<", ">", ">"]
    flipped = {("<", ">="), (">", "<="), ("=", "!="), ("<=", ">"), (">=", "<"), ("!=", "=")}
    for a in atoms:
        assert (a.rel, a.negated().rel) in flipped
        assert a.negated().negated() == a


def test_formula_of_section_is_equality():
    line = parse_poly("x2-3")
    cell = CellDescription(
        [
            SymbolicInterval(1),
            SymbolicInterval.section(IndexedRoot(line, 1)),
        ]
    )
    atoms = cell_to_formula(cell)
    assert len(atoms) == 1 and atoms[0].rel == "="
    assert atoms[0].var == 2


def test_extended_constraint_needs_a_variable():
    """Variables start at x1: an atom on x0 would read the last
    coordinate of a sample."""
    root = IndexedRoot(parse_poly("x1-1"), 1)
    with pytest.raises(ValueError):
        ExtendedConstraint(0, "<", root)
    assert ExtendedConstraint(1, "<", root).holds(Sample([0])) is True


def test_interior_points_of_a_relaxed_cell_with_empty_fibers():
    """The level-3 sector between x3 = 1 and x3 = x2^2 is empty wherever
    |x2| <= 1: a cell whose top level is not kept connected has empty
    fibers there.  The connectedness resultant of the bounds keeps
    x2 > 1, where the sector is not empty, so the one draw at every seed
    lands inside the cell."""
    polys = ["-x3^3-3*x1*x2^2-2", "-2*x3+2", "2*x2^2*x3-2*x3^2"]
    s = Sample([Fraction(1, 2), Fraction(2), Fraction(2)])
    result = single_cell(polys, tuple(s), config_from_id("ldb-ldb"))
    assert result
    assert cell_to_text(result.cell).splitlines()[1:] == [
        'level 2 sector (root "x2^2-1" 2) +inf',
        'level 3 sector (root "x3-1" 1) (root "x2^2-x3" 1)',
    ]
    ps = [parse_poly(p) for p in polys]

    def picks():
        return [cell_pick_interior_point(result.cell, seed) for seed in range(20)]

    for pt in within_seconds(5, picks):
        assert cell_contains(result.cell, pt) is True
        assert sign_vector(ps, pt) == sign_vector(ps, s)


def test_interior_point_of_an_empty_sector_is_refused():
    """A sector between x2 = 1 and x2 = 0 is empty over every x1: the
    one draw fails, and its failure is raised."""
    cell = CellDescription([
        SymbolicInterval(1),
        SymbolicInterval(2, IndexedRoot(parse_poly("x2-1"), 1),
                         IndexedRoot(parse_poly("x2"), 1)),
    ])

    def pick():
        with pytest.raises(ValueError):
            cell_pick_interior_point(cell, 0)

    within_seconds(5, pick)


def test_interior_point_does_not_depend_on_earlier_calls():
    # the second call refines the cached root sqrt(2) far past its
    # isolating interval; the point is read off the interval itself
    cell = single_cell(["x1^2-2"], [2]).cell
    before = cell_pick_interior_point(cell, 0)
    single_cell(
        ["x1^2-2", "1000*x1-1414", "100000*x1-141422", "10000000*x1-14142136"], [2]
    )
    after = cell_pick_interior_point(cell, 0)
    assert before[0].rational_value() == after[0].rational_value() == Fraction(39, 8)
