"""The acceptance gate: eight checks, one reported line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

from onecell.cells import cached_roots, cell_pick_interior_point, cell_to_formula, cell_to_text
from onecell.config import HEURISTIC_IDS, HeuristicConfig, config_from_id
from onecell.engine import Fail, single_cell
from onecell.explain import Constraint, check_conflict, explain_conflict
from onecell.heuristics import choose_representation
from onecell.polynomial import (
    MPoly,
    discriminant,
    factor,
    normalize,
    parse_poly,
    resultant,
)
from onecell.properties import (
    AnDel,
    AnSub,
    Connected,
    IrOrd,
    OrdInv,
    Repr,
    SampleProp,
    SgnInv,
    validate_trace,
)
from onecell.realalg import NULLIFIED, RealAlg, Sample, isolate_real_roots
from onecell.stats import RunStats

from conftest import check_cell_sound, random_poly, random_sample
from oracles import sturm_count_all_real_roots, sylvester_resultant

P_RUNNING = ["x1-2*x2+1", "x1^2+x2^2-1", "x1-2*x2-1"]
S_RUNNING = (Fraction(1, 8), Fraction(-3, 4))


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _running_result():
    return single_cell(P_RUNNING, S_RUNNING, HeuristicConfig("EQ", "BC"))


def test_criterion_1_running_instance():
    t0 = time.monotonic()
    result = _running_result()
    elapsed = time.monotonic() - t0
    ok = bool(result)
    detail = []
    if ok:
        text = cell_to_text(result.cell)
        expected = (
            'level 1 sector (root "5*x1^2-2*x1-3" 1) (root "x1^2-1" 2)\n'
            'level 2 sector (root "x2^2+x1^2-1" 1) (root "2*x2-x1+1" 1)\n'
        )
        ok = text == expected
        detail.append("cell shape" if ok else f"unexpected cell {text!r}")
        if ok:
            # level-1 projection, up to constant factors
            proj = {normalize(p) for p in (
                result.cell[0].lower.poly, result.cell[0].upper.poly)}
            want = {normalize(parse_poly("4-4*x1^2")),
                    normalize(parse_poly("5*x1^2-2*x1-3"))}
            ok = proj == want
            detail.append("projection set" if ok else f"projection {proj}")
        if ok:
            lo = isolate_real_roots(result.cell[0].lower.poly)[
                result.cell[0].lower.index - 1]
            hi = isolate_real_roots(result.cell[0].upper.poly)[
                result.cell[0].upper.index - 1]
            ok = (lo.compare(RealAlg.rational(Fraction(-3, 5))) == 0
                  and hi.compare(RealAlg.rational(Fraction(1))) == 0)
            detail.append("x1 in (-3/5, 1)" if ok else "wrong endpoints")
        if ok:
            ok = elapsed < 1.0
            detail.append(f"{elapsed:.3f}s")
    else:
        detail.append("construction failed")
    _report(1, ok, "; ".join(detail))


def test_criterion_2_trace_fidelity():
    result = _running_result()
    assert result
    text = result.trace.to_text()
    ok = "DERIVE ordinv(-4) FROM true" in text
    detail = ["ordinv(res(p3,p1)=-4) from true" if ok else "constant resultant entry missing"]
    if ok:
        want_kinds = {SampleProp, Repr, IrOrd, AnDel, AnSub, Connected}
        for p in P_RUNNING:
            poly = parse_poly(p)
            targets = {SgnInv(poly), SgnInv(normalize(poly))}
            found = False
            for e in result.trace.entries:
                if e.conclusion in targets and e.rule == "sgninv-ord":
                    kinds = {type(a) for a in e.antecedents}
                    dels = [a for a in e.antecedents if isinstance(a, AnDel)]
                    if kinds == want_kinds and any(
                        a.p in (poly, normalize(poly)) for a in dels
                    ):
                        found = True
            if not found:
                ok = False
                detail.append(f"no sgninv-ord derivation for {p}")
                break
        if ok:
            detail.append("all inputs derived via sgninv-ord")
    if ok:
        ok = validate_trace(result.trace, set(result.trace.axioms))
        detail.append("trace validates" if ok else "trace invalid")
    _report(2, ok, "; ".join(detail))


def _fuzz_instances(count):
    rng = random.Random(411)
    hids = sorted(HEURISTIC_IDS)
    for k in range(count):
        nv = rng.randint(1, 3)
        polys = [random_poly(rng, nv) for _ in range(rng.randint(1, 4))]
        coords = random_sample(rng, nv)
        yield k, polys, coords, hids[k % len(hids)]


def test_criterion_3_soundness_fuzz():
    t0 = time.monotonic()
    total, successes, points = 0, 0, 0
    per_heuristic = {h: 0 for h in sorted(HEURISTIC_IDS)}
    for k, polys, coords, hid in _fuzz_instances(500):
        total += 1
        result = single_cell(polys, coords, config_from_id(hid))
        per_heuristic[hid] += 1
        if isinstance(result, Fail):
            continue
        successes += 1
        points += check_cell_sound(result.cell, polys, Sample(coords), 100)
    elapsed = time.monotonic() - t0
    ok = (
        total >= 500
        and successes > 0
        and all(v > 0 for v in per_heuristic.values())
        and elapsed < 180
    )
    _report(
        3,
        ok,
        f"{total} instances, {successes} cells, {points} interior points, "
        f"0 violations, all {len(per_heuristic)} heuristics, {elapsed:.1f}s",
    )


def test_criterion_4_nullification():
    bad = single_cell(["x1*x3+x2"], (0, 0, 0))
    good = single_cell(["x1*x3+x2"], (1, 0, 0))
    ok = isinstance(bad, Fail) and bool(good)
    _report(4, ok, "FAIL at (0,0,0), success at (1,0,0)")


def test_criterion_5_algebra_oracles():
    rng = random.Random(52)
    detail = []
    # resultant vs Sylvester determinant
    checked = 0
    while checked < 200:
        nv = rng.randint(1, 2)
        p = random_poly(rng, nv, max_deg=4)
        q = random_poly(rng, nv, max_deg=4)
        v = max(p.level, q.level)
        if v == 0 or p.degree(v) == 0 or q.degree(v) == 0:
            continue
        assert resultant(p, q, v) == sylvester_resultant(p, q, v)
        checked += 1
    detail.append("200 resultants == Sylvester")
    # discriminant identity
    from onecell.polynomial import coeff_info, exact_div
    from oracles import derivative

    checked = 0
    while checked < 100:
        p = random_poly(rng, 2, max_deg=4)
        v = p.level
        if v == 0 or p.degree(v) < 2:
            continue
        d = p.degree(v)
        _, lead, _ = coeff_info(p, v)
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        assert discriminant(p, v) == exact_div(
            resultant(p, derivative(p, v), v).scale(sign), lead
        )
        checked += 1
    detail.append("100 discriminant identities")
    # isolation count vs Sturm
    checked = 0
    while checked < 300:
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 6))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            continue
        p = MPoly({(i,): c for i, c in enumerate(coeffs) if c})
        assert len(isolate_real_roots(p)) == sturm_count_all_real_roots(coeffs)
        checked += 1
    detail.append("300 isolation counts == Sturm")
    # factorization reconstitutes products of irreducibles
    checked = 0
    while checked < 200:
        parts = [random_poly(rng, 2, max_deg=2) for _ in range(rng.randint(2, 3))]
        prod = MPoly.constant(1)
        for f in parts:
            prod = prod * f
        if prod.is_constant():
            continue
        back = MPoly.constant(1)
        for f, mult in factor(prod, "finest"):
            back = back * f ** mult
        assert normalize(back) == normalize(prod)
        checked += 1
    detail.append("200 factorizations reconstitute")
    _report(5, True, "; ".join(detail))


def test_criterion_6_heuristic_structure():
    rng = random.Random(411)
    compared = 0
    eq_checked = 0
    for k, polys, coords, _ in _fuzz_instances(500):
        prefix = Sample([RealAlg.rational(c) for c in coords[:-1]])
        level = len(coords)
        level_polys = [
            p
            for p in polys
            if p.level == level and cached_roots(p, prefix) is not NULLIFIED
        ]
        if not level_polys:
            continue
        s_val = RealAlg.rational(coords[-1])
        ch = choose_representation(
            level_polys, prefix, s_val, HeuristicConfig("CH", "CH"), level
        )
        full = choose_representation(
            level_polys, prefix, s_val, HeuristicConfig("FULL", "FULL"), level
        )
        closure = full.ordering.closure() | full.ordering.pairs
        assert all(pair in closure for pair in ch.ordering.pairs)
        compared += 1
        # resultant-property counts through full construction
        st_ch, st_full = RunStats(), RunStats()
        r_ch = single_cell(polys, coords, HeuristicConfig("CH", "CH"), st_ch)
        r_full = single_cell(polys, coords, HeuristicConfig("FULL", "FULL"), st_full)
        if r_ch and r_full:
            assert st_ch.resultants_computed <= st_full.resultants_computed
        # section instances: move the sample onto a root and run EQ
        if eq_checked < 60:
            roots = cached_roots(level_polys[0], prefix)
            if roots:
                on_root = list(prefix) + [roots[0]]
                st_eq = RunStats()
                r_eq = single_cell(polys, on_root, HeuristicConfig("EQ", "BC"), st_eq)
                if r_eq and r_eq.cell[level - 1].is_section():
                    bound_poly = r_eq.cell[level - 1].lower.poly
                    allowed = {normalize(discriminant(bound_poly, level))}
                    # discriminants the `del` steps cite for the level's
                    # polynomials with a root over the prefix; those
                    # without one are kept sign-invariant by `nozero`,
                    # which needs their delineability
                    top_discs = {
                        a.p
                        for e in r_eq.trace.entries
                        if e.rule == "del" and e.conclusion.p.level == level
                        and cached_roots(e.conclusion.p, prefix) not in (NULLIFIED, [])
                        for a in e.antecedents
                        if isinstance(a, OrdInv) and not a.p.is_constant()
                    }
                    assert top_discs <= allowed
                    eq_checked += 1
    ok = compared >= 100 and eq_checked >= 20
    _report(
        6,
        ok,
        f"CH within FULL closure and res-count CH <= FULL on {compared} instances; "
        f"EQ sections free of non-boundary discriminants on {eq_checked}",
    )


def test_criterion_7_explanation_soundness():
    rng = random.Random(77)
    built = 0
    attempts = 0
    while built < 100 and attempts < 3000:
        attempts += 1
        nv = rng.randint(1, 2)
        prefix = random_sample(rng, nv - 1)
        p = random_poly(rng, nv)
        q = random_poly(rng, nv)
        if p.level != nv:
            continue
        variants = [
            [Constraint(p, "<"), Constraint(p, ">")],
            [Constraint(p, "="), Constraint(p, "!=")],
            [Constraint(p, "<="), Constraint(q, rng.choice([">", "<"])),
             Constraint(p, ">")],
        ]
        C = variants[attempts % len(variants)]
        if any(c.poly.level > nv for c in C):
            continue
        if not check_conflict(C, Sample(prefix)):
            continue
        result = explain_conflict(C, prefix)
        if isinstance(result, Fail):
            continue
        atoms = cell_to_formula(result.cell)
        assert [a.negated() for a in atoms] == result.clause
        for seed in range(50):
            pt = cell_pick_interior_point(result.cell, seed)
            assert check_conflict(C, pt)
        built += 1
    ok = built >= 100
    _report(7, ok, f"{built} conflicts generalized, 50 interior re-checks each")


def test_criterion_8_stats_definitions():
    expected_keys = [
        "cells_constructed",
        "mean_cell_dimension",
        "max_main_degree",
        "resultants_computed",
        "discriminants_computed",
        "coefficients_computed",
    ]
    comparison = {}
    for hid in ("eq-bc", "full"):
        stats = RunStats()
        for k, polys, coords, _ in _fuzz_instances(40):
            single_cell(polys, coords, config_from_id(hid), stats)
        lines = dict(l.split("=") for l in stats.lines())
        assert list(lines) == expected_keys
        assert int(lines["resultants_computed"]) == len(stats.polys["res"])
        assert int(lines["discriminants_computed"]) == len(stats.polys["disc"])
        comparison[hid] = lines
    # per-run stats can be compared between heuristics on a small corpus;
    # no external aggregate numbers are asserted
    detail = "; ".join(
        f"{hid}: res={lines['resultants_computed']} disc={lines['discriminants_computed']}"
        f" mean_dim={lines['mean_cell_dimension']}"
        for hid, lines in comparison.items()
    )
    _report(8, True, detail)
