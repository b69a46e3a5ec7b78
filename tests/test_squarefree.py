"""Square-free decomposition on integer tuples: Yun's algorithm over the
heuristic gcd (`polynomial._yun`, `_gcd_heuristic`) for univariate
input, in both modes, as ``finest`` mode splits its square-free parts
further, and the image certificate (`_squarefree_by_images`) for
multivariate input.  Both kernels, `factor_dense` and `factor`, are
checked against sympy's `sqf_list` and `factor_list`
(`oracles.sympy_poly_factor`), in both modes, in either order from an
empty memo; the certificates must never pass input with a repeated
factor, and the gcd must always come back.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympy.polys import factortools, sqfreetools

from onecell import memo, polynomial
from onecell.polynomial import (
    MPoly,
    _gcd_heuristic,
    _primitive,
    _primitive_part,
    _squarefree_by_images,
    _upoly,
    dense,
    factor,
    factor_dense,
    parse_poly,
)

from oracles import sympy_poly_factor

MODES = ("finest", "squarefree")

# Logged seed-1 inputs of `squarefree` mode: the three tuples of degree
# 36-44 with a repeated factor (the slowest), and smaller ones with and
# without one.
LOGGED = [
    (-10460353203, 0, 153418513644, 12397455648, -607303139868, -109166484456, -77246012232,
     147030592824, 486281269584, -460210742424, -1369643838228, 546334889904, 179540890200,
     -670053060000, 350581080528, 209429793648, -859828059792, 59197541040, 271295049680,
     -242044317936, 2479053204, 105248937600, -88090921152, -16483378176, 31469954304,
     -4547373696, -6290014464, 1225342080, 527086080, 303917184, -324997248, -70170624,
     88233984, 3317760, -8331264, 0, 262144),
    (959533157425, -37359879480, 452608296462, 170954186256, -313272087093, -279820497888,
     -25411161696, 139409258112, -36612446841, 128969759520, 161136463338, -199946497680,
     -35090782167, 78238283616, -82599040944, 21072583296, 63050674392, -33606384840,
     -7531446536, 14452994592, -11365554240, -1689091488, 6569004240, -1318635936,
     -1200585072, 865147392, -241224192, -264494592, 187123968, 47858688, -48537600,
     -4810752, 6792192, 221184, -516096, 0, 16384),
    (25782661, 153309102, 1005364659, 3455504582, 12303660995, 27849252104, 67230428944,
     101900838580, 185285563061, 173351052286, 283444837917, 110873164170, 296344233758,
     -53441967874, 257376401549, -155176435142, 158501969821, -87379812676, 21872024416,
     11022485520, -30309184509, 21473553890, -10531002109, 220880882, 4022421301,
     -3179118848, 638827472, 1401419288, -1861027248, 1251874152, -479101808, 20319760,
     86048632, -39446584, -13694032, 29138776, -20913560, 9459072, -2747712, 339776, 119936,
     -87040, 27136, -5120, 512),
    (-387420489,) + (0,) * 29 + (256,),
    (4, -12, 9, 12, -8, 0, 0, 0, 4),
    (0, 0, -4, 0, -3, 0, 0, 54, 0, 36, 81),
    (0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, -648, 0, 0, 0, 0, 0, 1),
    (-2187, 0, 1782, -432, -1512, 540, -628, -540, 480, 108, -210, 0, 16),
]
X12 = (0,) * 12 + (1,)
# The first point's gcd reads as a linear polynomial that divides
# neither operand: square-free, and with a factor of multiplicity 2.
SPOILED = [(5, 4, -2, 1), (225, -580, 31, 416, 165, 18)]
CUBE = (-1, 0, 3, 0, -3, 0, 1)  # (x^2 - 1)^3

# Logged multivariate inputs (variables renamed to x1, x2), and the one
# that keeps a repeated factor.
LOGGED_MULTIVARIATE = [
    "2*x1^2*x2-3*x2^2+x2",
    "2*x1^6*x2^3+27",
    "16*x1^3*x2^3+108*x2^4+324*x2^2+243",
    "3*x1^2*x2^3-3*x1^2*x2^2-x1^3-x2",
    "x1*x2-2*x1^2",
]
SQUARE = "(3*x1^2*x2+2)^2"

big = st.integers(-(10**12), 10**12)
small = st.integers(-6, 6)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(c):
    return [k * x for k, x in enumerate(c)][1:]


@st.composite
def _dense_factors(draw):
    """1-4 random integer f_i of degree 1-5, each with a multiplicity
    1-4, the lower coefficients up to 10^12."""
    fs = []
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.lists(big, min_size=1, max_size=5))
        fs.append((f + [draw(st.integers(-9, 9).filter(bool))], draw(st.integers(1, 4))))
    return fs


@st.composite
def _dense_products(draw):
    """x^k times the product of `_dense_factors` to their multiplicities,
    of degree at most 40, k = 0-3; as an integer-primitive tuple with a
    positive leading entry."""
    c = [1]
    for f, m in draw(_dense_factors()):
        for _ in range(m):
            if len(c) + len(f) - 2 <= 40:
                c = _mul(c, f)
    return _primitive([0] * draw(st.integers(0, 3)) + c)


def _polys(nvars, max_deg=2, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.dictionaries(exps, small.filter(bool), min_size=1, max_size=max_terms).map(MPoly)


@st.composite
def _multivariate_products(draw, nvars=2):
    """A product of 1-3 random polynomials in x1..x_nvars, each to the
    power 1-3, or all to the power 1 (square-free unless two coincide)."""
    powers = st.just(1) if draw(st.booleans()) else st.integers(1, 3)
    p = MPoly.constant(1)
    for _ in range(draw(st.integers(1, 3))):
        p = p * draw(_polys(nvars)) ** draw(powers)
    return p


def _tuples(pairs):
    return [(dense(f, 1), m) for f, m in pairs]


def _check_dense(c, finest_first=True):
    memo.clear()
    for mode in MODES if finest_first else reversed(MODES):
        assert factor_dense(c, mode) == _tuples(sympy_poly_factor(_upoly(c, 1), mode)), (c, mode)


def _check(p, finest_first=True):
    memo.clear()
    for mode in MODES if finest_first else reversed(MODES):
        assert factor(p, mode) == sympy_poly_factor(p, mode), (p, mode)


def _sqf_spies():
    return [mock.patch.object(sqfreetools, name, wraps=getattr(sqfreetools, name))
            for name in ("dup_sqf_list", "dmp_sqf_list")]


@settings(max_examples=200, deadline=None)
@given(_dense_products(), st.booleans())
@example(LOGGED[0], True).via("logged seed-1 input of degree 36")
@example(LOGGED[1], False).via("logged seed-1 input of degree 36")
@example(LOGGED[2], True).via("logged seed-1 input of degree 44")
@example(X12, False)
@example(CUBE, True)
@example(SPOILED[0], True)
@example(SPOILED[1], False)
def test_dense_products_match_sympy(c, finest_first):
    _check_dense(c, finest_first)


@settings(max_examples=100, deadline=None)
@given(_multivariate_products(), st.booleans())
@example(parse_poly(SQUARE), True)
@example(parse_poly(LOGGED_MULTIVARIATE[0]), False)
def test_multivariate_products_match_sympy(p, finest_first):
    _check(p, finest_first)


@settings(max_examples=40, deadline=None)
@given(_multivariate_products(nvars=3), st.booleans())
def test_three_variable_products_match_sympy(p, finest_first):
    _check(p, finest_first)


def test_logged_inputs_match_sympy_without_calling_it():
    """The logged inputs are decomposed without sympy's `sqf_list`, all
    but (3*x1^2*x2+2)^2, which the image certificate refuses."""
    polys = [_upoly(c, 1) for c in LOGGED + [X12, CUBE]]
    polys += [parse_poly(text) for text in LOGGED_MULTIVARIATE]
    for p in polys:
        memo.clear()
        spies = _sqf_spies()
        with spies[0] as dup, spies[1] as dmp:
            got = factor(p, "squarefree")
        assert dup.call_count + dmp.call_count == 0, p
        assert got == sympy_poly_factor(p, "squarefree"), p
    memo.clear()
    spies = _sqf_spies()
    with spies[0] as dup, spies[1] as dmp:
        assert factor(parse_poly(SQUARE), "squarefree") == [(parse_poly("3*x1^2*x2+2"), 2)]
    assert dmp.call_count >= 1


@settings(max_examples=100, deadline=None)
@given(_dense_products(), st.booleans())
@example(SPOILED[0], True)
@example(SPOILED[1], False)
def test_a_heuristic_gcd_without_its_margin_matches_sympy(c, finest_first):
    """With no margin beyond the bound, the first point often reads a
    candidate that divides neither operand, and the gcd doubles k until
    one does: the gcd always comes back, and so do sympy's answers."""
    with mock.patch.object(polynomial, "GCD_MARGIN", 0):
        _check_dense(c, finest_first)


@pytest.mark.parametrize("c, sympy_calls", [
    # logged seed-1 ``finest`` input: (3x - 1)^2 (9x^2 + 9x + 1),
    # (3x - 1)^2 (9x^2 - 9x + 1) and (15x^2 - 12x + 2)^2, whose
    # square-free parts the quadratic closed form finishes
    ((1, 3, -36, 27, 81), 0),
    ((1, -15, 72, -135, 81), 0),
    ((4, -48, 204, -360, 225), 0),
    # irreducible, and refused by the certificate
    ((1, 6, -81, 90, 225), 1),
])
def test_finest_input_with_a_repeated_factor_is_split_by_yun_first(c, sympy_calls):
    want = _tuples(sympy_poly_factor(_upoly(c, 1), "finest"))
    memo.clear()
    with mock.patch.object(factortools, "dup_factor_list",
                           wraps=factortools.dup_factor_list) as spy:
        assert factor_dense(c) == want
    assert spy.call_count == sympy_calls
    _check_dense(c, False)


@settings(max_examples=200, deadline=None)
@given(_dense_factors(), st.one_of(big, small))
def test_the_certificate_never_passes_a_repeated_factor(fs, k):
    """f^2 (x - k) times the other factors, f of positive degree: the
    gcd with the derivative is never 1."""
    (f, _), *rest = fs
    c = _mul(_mul(f, f), [-k, 1])
    for g, _ in rest:
        c = _mul(c, g)
    assert len(_gcd_heuristic(c, _derivative(c))[0]) > 1


@settings(max_examples=150, deadline=None)
@given(_polys(2, max_terms=4).filter(lambda f: f.total_degree() >= 1), _polys(2, max_terms=4))
def test_the_image_certificate_never_passes_a_repeated_factor(f, g):
    p = f * f * g
    _, P = _primitive_part(p)
    assert not _squarefree_by_images(P, sorted(p.variables()))


@settings(max_examples=200, deadline=None)
@given(_dense_products())
def test_heuristic_gcd_cofactors_are_exact(c):
    """gcd(c, c') times each cofactor gives back c and c'."""
    dc = _derivative(c)
    g, a, b = _gcd_heuristic(c, dc)
    assert _mul(list(g), list(a)) == list(c)
    assert _mul(list(g), list(b)) == dc
