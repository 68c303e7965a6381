"""Puiseux polynomials and rationals: evaluation, canonical form, and the
closed-form minimum against grid search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfit import (
    ZERO,
    PuiseuxPoly,
    PuiseuxRational,
    eval_poly,
    eval_rational,
    min_poly,
)
from tropfit.puiseux import minimum_at, pairwise_minimum_value, poly_values, sign_masks

from oracles import canonical_monomials, grid_min, poly_sum, poly_value

coeff = st.floats(min_value=-9.0, max_value=9.0, allow_nan=False, allow_infinity=False)


def mixed_sign_polys():
    # exponent magnitudes in [1, 3.8]: >= 1 keeps the interval bounds inside
    # the [-20, 20] oracle grid, <= 3.8 lets a 1e-3 grid certify 2e-3
    neg = st.lists(st.tuples(st.floats(min_value=-3.8, max_value=-1.0), coeff), min_size=1, max_size=3)
    pos = st.lists(st.tuples(st.floats(min_value=1.0, max_value=3.8), coeff), min_size=1, max_size=3)
    zer = st.lists(st.tuples(st.just(0.0), coeff), max_size=1)
    return st.tuples(neg, pos, zer).map(lambda t: PuiseuxPoly(t[0] + t[1] + t[2]))


# --- evaluation ---------------------------------------------------------------


def test_eval_poly_examples():
    assert eval_poly(PuiseuxPoly([(1.0, 0.0)]), 5.0) == 5.0
    assert eval_poly(PuiseuxPoly([(-1.0, 4.0), (1.0, 0.0)]), 1.0) == 3.0
    for x in (-7.0, 0.0, 13.5):
        assert eval_poly(PuiseuxPoly([(0.0, 7.0)]), x) == 7.0
    for x in (ZERO, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            eval_poly(PuiseuxPoly([(1.0, 0.0)]), x)


def test_eval_rational_examples():
    p = PuiseuxPoly([(1.0, 2.0), (-2.0, 0.5)])
    assert eval_rational(PuiseuxRational(p, p), 3.0) == 0.0

    fitted = PuiseuxRational(
        PuiseuxPoly([(-0.0628, 0.5100), (3.8735, -4.6017)]),
        PuiseuxPoly([(-2.4888, 0.4150), (0.1216, -0.0793)]),
    )
    assert eval_rational(fitted, 0.0) == pytest.approx(0.0950, abs=1e-12)

    r = PuiseuxRational(PuiseuxPoly([(1.0, 0.0)]), PuiseuxPoly([(0.0, 2.0)]))
    assert eval_rational(r, 3.0) == 1.0


def test_poly_validation():
    with pytest.raises(ValueError):
        PuiseuxPoly([])
    with pytest.raises(ValueError):
        PuiseuxPoly([(1.0, math.inf)])
    with pytest.raises(ValueError):
        PuiseuxPoly([(math.nan, 1.0)])


def test_canonicalization_merges_duplicates():
    poly = PuiseuxPoly([(1.0, 2.0), (1.0, 5.0), (0.0, 1.0)])
    assert poly.monomials == ((0.0, 1.0), (1.0, 5.0))
    poly = PuiseuxPoly([(2.0, -1.0), (-1.0, 3.0), (2.0, 4.0), (2.0, 0.5), (-1.0, 3.5)])
    assert poly.monomials == ((-1.0, 3.5), (2.0, 4.0))


def signs(monomials):
    return [(math.copysign(1.0, p), math.copysign(1.0, t)) for p, t in monomials]


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_canonicalization_keeps_the_first_seen_zero(first):
    second = -first
    # the zero exponent of the first monomial, with the larger coefficient of the second
    (p, t), = PuiseuxPoly([(first, 1.0), (second, 2.0)]).monomials
    assert (p, t) == (0.0, 2.0) and math.copysign(1.0, p) == math.copysign(1.0, first)
    # tied max coefficients 0.0 and -0.0 keep the first seen
    poly = PuiseuxPoly([(1.0, -5.0), (1.0, first), (1.0, second), (first, second), (second, first)])
    assert signs(poly.monomials) == signs([(first, second), (1.0, first)])


def test_constructor_accepts_any_iterable_of_pairs():
    pairs = [(1.0, 2.0), (-0.5, 1.0), (1.0, 3.0)]
    expected = ((-0.5, 1.0), (1.0, 3.0))
    exponents, coefficients = zip(*pairs)
    for monomials in (pairs, [list(m) for m in pairs], tuple(pairs), zip(exponents, coefficients),
                      (m for m in pairs), np.array(pairs), np.array([(1, 2), (-0.5, 1), (1, 3)])):
        poly = PuiseuxPoly(monomials)
        assert poly.monomials == expected
        assert all(type(v) is float for m in poly.monomials for v in m)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite(bad):
    for monomials in ([(0.0, 1.0), (bad, 1.0)], [(0.0, 1.0), (1.0, bad)], np.array([[bad, bad]])):
        with pytest.raises(ValueError, match="finite"):
            PuiseuxPoly(monomials)


@pytest.mark.parametrize(
    "monomials",
    [[], (), iter([]), np.empty((0, 2)), [(1.0,)], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (1.0, 2.0, 3.0)],
     [(1.0, 2.0), (3.0,)], [1.0, 2.0], np.ones((2, 3)), np.ones(4)],
    ids=["empty-list", "empty-tuple", "empty-iterator", "empty-array", "1-tuple", "3-tuple",
         "ragged-long", "ragged-short", "flat", "array-k-3", "array-1d"],
)
def test_constructor_rejects_empty_or_non_pairs(monomials):
    with pytest.raises(ValueError):
        PuiseuxPoly(monomials)


@given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                          st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.0])), min_size=1, max_size=12))
def test_canonicalization_matches_the_dict_build(monomials):
    """Bit for bit, signs of zero included, what a dict merge gives."""
    got = PuiseuxPoly(monomials).monomials
    expected = canonical_monomials(monomials)
    assert got == expected
    assert signs(got) == signs(expected)


@given(
    st.lists(st.tuples(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), coeff), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=10),
)
def test_canonicalization_preserves_values(monomials, points):
    poly = PuiseuxPoly(monomials)
    for x in points:
        assert eval_poly(poly, x) == poly_value(monomials, x)


@given(
    st.lists(st.tuples(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                       st.sampled_from([-1.0, -0.0, 0.0, 1.0]) | coeff), min_size=1, max_size=8),
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0])
             | st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=10),
)
def test_poly_values_match_the_scalar_loop(monomials, points):
    """Bit for bit, signs of zero included, on monomials as a fit hands them
    over: unsorted, with repeated exponents and tied terms."""
    exponents, coefficients = zip(*monomials)
    got = poly_values(exponents, coefficients, points).tolist()
    expected = [poly_value(monomials, x) for x in points]
    assert got == expected
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expected]


@given(mixed_sign_polys(), st.data())
def test_eval_is_convex(poly, data):
    x1 = data.draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
    x2 = data.draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    mid = lam * x1 + (1 - lam) * x2
    chord = lam * eval_poly(poly, x1) + (1 - lam) * eval_poly(poly, x2)
    assert eval_poly(poly, mid) <= chord + 1e-9


def test_maxtimes_isomorphism():
    # a max-times polynomial is the exp image of a max-plus one
    exps = [(-1.0, 0.5), (2.0, 3.0)]
    maxplus = PuiseuxPoly([(p, math.log(t)) for p, t in exps])
    for v in (0.2, 1.0, 4.5):
        direct = max(t * v**p for p, t in exps)
        assert math.exp(eval_poly(maxplus, math.log(v))) == pytest.approx(direct, rel=1e-12)


# --- closed-form minimum -------------------------------------------------------


def test_min_poly_vee():
    pm = min_poly(PuiseuxPoly([(-1.0, 4.0), (1.0, 0.0)]))
    assert pm.attained
    assert pm.mu == pytest.approx(2.0, abs=1e-12)
    assert pm.lower == pytest.approx(2.0, abs=1e-12)
    assert pm.upper == pytest.approx(2.0, abs=1e-12)


def test_min_poly_constant():
    pm = min_poly(PuiseuxPoly([(0.0, 7.0)]))
    assert pm.mu == 7.0
    assert pm.lower is None and pm.upper is None
    assert pm.representative() == 0.0


def test_min_poly_flat_bottom():
    pm = min_poly(PuiseuxPoly([(-1.0, 0.0), (0.0, 5.0), (1.0, 0.0)]))
    assert pm.mu == pytest.approx(5.0, abs=1e-12)
    assert pm.lower == pytest.approx(-5.0, abs=1e-12)
    assert pm.upper == pytest.approx(5.0, abs=1e-12)
    assert pm.representative() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "monomials",
    [
        [(-1.0, 4.0), (1.0, 0.0)],
        [(0.0, 7.0)],
        [(-1.0, 0.0), (0.0, 5.0), (1.0, 0.0)],
    ],
)
def test_min_poly_examples_against_grid(monomials):
    pm = min_poly(PuiseuxPoly(monomials))
    value, arg = grid_min(monomials)
    assert pm.mu == pytest.approx(value, abs=2e-3)
    lo = pm.lower if pm.lower is not None else -math.inf
    hi = pm.upper if pm.upper is not None else math.inf
    assert lo - 2e-3 <= arg <= hi + 2e-3


def test_min_poly_reports_a_zero_minimum_as_positive_zero():
    # The one cross term is -0.0 * 0.5 + -0.0 * 0.5 = -0.0.
    pm = min_poly(PuiseuxPoly([(-1.0, -0.0), (1.0, -0.0)]))
    assert (repr(pm.mu), repr(pm.lower), repr(pm.upper)) == ("0.0", "-0.0", "0.0")
    assert repr(pm.representative()) == "0.0"


def test_min_poly_one_signed_is_unbounded():
    pm = min_poly(PuiseuxPoly([(1.0, 0.0), (2.0, 1.0)]))
    assert not pm.attained
    assert pm.mu == ZERO
    with pytest.raises(ValueError):
        pm.representative()
    pm = min_poly(PuiseuxPoly([(-1.0, 0.0)]))
    assert not pm.attained


def test_min_poly_one_side_unbounded_interval():
    # negative and zero exponents only: minimizers extend to +infinity
    pm = min_poly(PuiseuxPoly([(-2.0, 3.0), (0.0, 1.0)]))
    assert pm.attained
    assert pm.mu == pytest.approx(1.0)
    assert pm.upper is None
    assert pm.lower == pytest.approx(1.0)
    assert pm.representative() == pm.lower


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("p, on_zero_side", [(5e-13, True), (2e-12, False)])
def test_exponents_within_the_zero_tolerance_are_zero_exponents(sign, p, on_zero_side):
    """An exponent within ZERO_EXPONENT_TOL (1e-12) of 0 is a zero exponent
    for ``sign_masks``, ``pairwise_minimum_value``, ``minimum_at`` and
    ``min_poly`` alike: its coefficient is a candidate mu and it leaves its
    side of the interval of minimizers unbounded.  One beyond the tolerance
    bounds that side."""
    ps, ts = np.array([-sign, sign * p]), np.array([0.0, 5.0])
    negative, positive = sign_masks(ps)
    zero = ~(negative | positive)
    assert zero.tolist() == [False, on_zero_side]
    mu = pairwise_minimum_value(ps[negative], ts[negative], ps[positive], ts[positive], ts[zero])
    pm = min_poly(PuiseuxPoly(zip(ps.tolist(), ts.tolist())))
    assert [pm] == minimum_at([mu], ps[None], ts[None], [0])
    small_side = pm.upper if sign > 0 else pm.lower
    if on_zero_side:
        assert pm.mu == 5.0 and small_side is None
    else:
        assert pm.mu < 5.0 and small_side is not None


@settings(max_examples=150, deadline=None)
@given(mixed_sign_polys())
def test_min_poly_matches_grid_search(poly):
    pm = min_poly(poly)
    assert pm.attained
    value, arg = grid_min(poly.monomials)
    assert pm.mu == pytest.approx(value, abs=2e-3)
    if pm.lower is not None:
        assert eval_poly(poly, pm.lower) == pytest.approx(pm.mu, abs=1e-9)
    if pm.upper is not None:
        assert eval_poly(poly, pm.upper) == pytest.approx(pm.mu, abs=1e-9)
    lo = pm.lower if pm.lower is not None else -math.inf
    hi = pm.upper if pm.upper is not None else math.inf
    assert lo - 2e-3 <= arg <= hi + 2e-3
    assert eval_poly(poly, pm.representative()) == pytest.approx(pm.mu, abs=1e-9)


def test_poly_sum_is_pointwise_max():
    """Concatenated monomials canonicalize to the pointwise max."""
    a = PuiseuxPoly([(1.0, 0.0), (0.0, 2.0)])
    b = PuiseuxPoly([(1.0, 1.0), (-1.0, 0.0)])
    s = poly_sum([a, b])
    for x in (-3.0, 0.0, 0.7, 5.0):
        assert eval_poly(s, x) == max(eval_poly(a, x), eval_poly(b, x))
