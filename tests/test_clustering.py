"""Exponent search: the error-polynomial array, subset minima, the pair
minima against the full mu kernel and exact rationals, the greedy
agglomeration against hand-derived, exhaustive and object-based reference
results, and the two max/min identities the search rests on."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfit import SampleSet, agglomerate, best_approx_solve, error_polynomials, min_poly
from tropfit.clustering import SCORE_QUANTUM, _lower_chain, pair_minima, score_blocks
from tropfit.puiseux import sign_masks

from oracles import (
    agglomerate_by_merging,
    assignments,
    chebyshev,
    convex_sampleset,
    grid_min,
    lower_chain_fractions,
    lower_hull_exact,
    matvec,
    merged_minimum,
    monomial_matrix,
    pair_minima_exact,
    pair_minima_kernel,
    poly_sum,
    random_sampleset,
    sample_polynomials,
)

THREE_POINTS = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet([], [])
    with pytest.raises(ValueError):
        SampleSet([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SampleSet([float("inf")], [0.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"sample coordinates must be finite, got {bad!r}"):
            SampleSet([0.0, 1.0], np.array([2.0, bad]))
    with pytest.raises(ValueError):
        SampleSet([[0.0, 1.0]], [[2.0, 3.0]])
    s = SampleSet.from_points([(1.0, 2.0), (3.0, 4.0)])
    assert s.points == ((1.0, 2.0), (3.0, 4.0))
    assert len(s) == 2
    s = SampleSet(np.array([1, 3]), iter([np.float64(2.0), 4]))
    assert s.points == ((1.0, 2.0), (3.0, 4.0))
    xs, ys = np.array([1.0, 3.0]), [2.0, 4]
    s = SampleSet(xs, ys)
    for values in (s.xs, s.ys):
        assert values.dtype == np.float64
        with pytest.raises(ValueError):
            values[0] = 5.0
    xs[0], ys[0] = 7.0, 8.0
    assert s.points == ((1.0, 2.0), (3.0, 4.0))
    assert all(type(v) is float for point in s.points for v in point)


def test_error_polynomials_two_samples():
    polys = error_polynomials(SampleSet([0.0, 1.0], [0.0, 2.0]))
    assert polys.dtype == np.float64
    assert polys.tolist() == [[[0.0, 0.0], [1.0, -2.0]], [[-1.0, 2.0], [0.0, 0.0]]]


def test_error_polynomials_single_sample():
    assert error_polynomials(SampleSet([5.0], [3.0])).tolist() == [[[0.0, 0.0]]]


def test_error_polynomials_duplicate_abscissae():
    polys = error_polynomials(SampleSet([1.0, 1.0], [0.0, 3.0]))
    # rows keep one monomial per sample; the block polynomial merges them by
    # coefficient max, so exponent 0 carries max(0, 0-3) for the first sample
    assert polys.tolist() == [[[0.0, 0.0], [0.0, -3.0]], [[0.0, 3.0], [0.0, 0.0]]]
    res = agglomerate(polys, 2)
    objects = sample_polynomials(SampleSet([1.0, 1.0], [0.0, 3.0]))
    merged = [poly_sum(objects[i] for i in block) for block in res.partition.index_sets()]
    assert [poly.monomials for poly in merged] == [((0.0, 0.0),), ((0.0, 3.0),)]
    assert [b.minimum for b in res.partition.blocks] == [min_poly(poly) for poly in merged]


def test_error_polynomials_contain_unit_monomial():
    samples = random_sampleset(np.random.default_rng(7), 6)
    polys = error_polynomials(samples)
    assert polys.shape == (6, 6, 2)
    for i, row in enumerate(polys.tolist()):
        assert row[i] == [0.0, 0.0]


def test_merged_minimum_singleton_on_hull():
    polys = sample_polynomials(SampleSet([0.0, 1.0], [0.0, 2.0]))
    for i in range(2):
        assert merged_minimum([i], polys).mu == pytest.approx(0.0, abs=1e-12)


def test_merged_minimum_three_point_examples():
    polys = sample_polynomials(THREE_POINTS)
    pm = merged_minimum([0, 2], polys)
    assert pm.mu == pytest.approx(0.0, abs=1e-12)
    assert pm.lower == pytest.approx(0.0, abs=1e-12)
    assert pm.upper == pytest.approx(0.0, abs=1e-12)
    value, _ = grid_min([(-2, 0), (-1, -1), (0, 0), (1, -1), (2, 0)])
    assert pm.mu == pytest.approx(value, abs=2e-3)

    pm2 = merged_minimum([1], polys)
    assert pm2.mu == pytest.approx(1.0, abs=1e-12)
    assert pm2.representative() == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError):
        merged_minimum([], polys)


def test_merge_monotonicity(rng):
    for _ in range(30):
        m = int(rng.integers(2, 8))
        samples = random_sampleset(rng, m)
        polys = sample_polynomials(samples)
        idx = list(range(m))
        rng.shuffle(idx)
        cut = int(rng.integers(1, m))
        u, v = idx[:cut], idx[cut:]
        if not v:
            continue
        merged = merged_minimum(u + v, polys).mu
        assert merged >= merged_minimum(u, polys).mu - 1e-12
        assert merged >= merged_minimum(v, polys).mu - 1e-12


def test_agglomerate_bounds():
    polys = error_polynomials(THREE_POINTS)
    with pytest.raises(ValueError):
        agglomerate(polys, 0)
    with pytest.raises(ValueError):
        agglomerate(polys, 4)


def test_agglomerate_all_singletons():
    samples, _ = convex_sampleset(np.random.default_rng(3), 5, 3)
    polys = error_polynomials(samples)
    res = agglomerate(polys, len(samples))
    assert res.partition.index_sets() == tuple((i,) for i in range(len(samples)))
    assert all(abs(d) <= 1e-9 for d in res.subset_minima)
    assert res.delta_star == pytest.approx(0.0, abs=1e-9)


def test_agglomerate_three_point_example():
    res = agglomerate(error_polynomials(THREE_POINTS), 2)
    assert res.partition.index_sets() == ((0, 2), (1,))
    assert res.exponents == pytest.approx((0.0, 0.0), abs=1e-12)
    assert res.delta_star == pytest.approx(1.0, abs=1e-12)

    # exhaustive check over the three two-block partitions
    polys = sample_polynomials(THREE_POINTS)
    best = min(
        max(merged_minimum(block, polys).mu for block in partition)
        for partition in ([[0, 1], [2]], [[0, 2], [1]], [[0], [1, 2]])
    )
    assert res.delta_star == pytest.approx(best, abs=1e-12)


def test_agglomerate_delta_consistency(rng):
    """The clustering objective equals the matrix-residuation error at the
    returned exponents, and the residuation's solution attains it."""
    for _ in range(15):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, min(m, 4) + 1))
        samples = random_sampleset(rng, m)
        res = agglomerate(error_polynomials(samples), n)
        x = monomial_matrix(samples.xs, res.exponents)
        sol = best_approx_solve(x, samples.ys)
        assert sol.delta == pytest.approx(res.delta_star, abs=1e-9)
        achieved = chebyshev(matvec(x, sol.solution), samples.ys)
        assert achieved == pytest.approx(res.delta_star / 2, abs=1e-9)


def test_agglomerate_deterministic(rng):
    samples = random_sampleset(rng, 9)
    polys = error_polynomials(samples)
    first = agglomerate(polys, 3)
    second = agglomerate(polys, 3)
    assert first == second


def test_agglomerate_invariant_delta_is_max_of_minima(rng):
    samples = random_sampleset(rng, 7)
    res = agglomerate(error_polynomials(samples), 3)
    assert res.delta_star == max(res.subset_minima)
    blocks = res.partition.index_sets()
    assert sorted(i for b in blocks for i in b) == list(range(7))


def test_agglomerate_rejects_arrays_not_shaped_m_m_2():
    # two one-monomial rows, which no set of samples gives
    with pytest.raises(ValueError, match=r"must be an \(M, M, 2\) array"):
        agglomerate(np.array([[[1.0, 0.0]], [[2.0, 0.0]]]), 1)


@pytest.mark.parametrize(
    "shape", [(2, 1, 2), (0, 0, 2), (3, 3), (2, 2, 3), (2, 2, 2, 1)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_pair_minima_rejects_arrays_not_shaped_m_m_2(shape):
    with pytest.raises(ValueError, match=r"must be an \(M, M, 2\) array"):
        pair_minima(np.ones(shape))


def test_pair_minima_and_agglomerate_reject_a_nonzero_diagonal():
    polys = error_polynomials(THREE_POINTS).copy()
    polys[1, 1, 1] = -1.0
    for call in (lambda: pair_minima(polys), lambda: agglomerate(polys, 1)):
        with pytest.raises(ValueError, match=r"E\[i, i\] = \(0, 0\)"):
            call()


#: ``pair_minima`` and the full mu kernel both stay within this many eps of
#: the exact pair minima, in units of each entry's scale (``pair_minima_bound``).
PAIR_MINIMA_EPS = 2


def pair_minima_bound(samples, d):
    """PAIR_MINIMA_EPS eps times each entry's scale: the larger of |d[i, k]|
    and the largest |y_i - y_v| or |y_k - y_v| over the vertices v of the
    exact lower hull.  A term that attains a pair minimum combines two such
    coefficients with weights in [0, 1], so its rounding error scales with
    them."""
    ys = np.array(samples.ys)
    with np.errstate(over="ignore"):
        reach = np.abs(ys[:, None] - ys[lower_hull_exact(samples)]).max(axis=1)
        scale = np.maximum(np.abs(d), np.maximum.outer(reach, reach))
    return PAIR_MINIMA_EPS * np.finfo(float).eps * scale


def below_within(got, ref, tol):
    """got <= ref <= got + tol, elementwise and exactly."""
    got, ref = np.asarray(got), np.asarray(ref)
    return bool((got <= ref).all() and (np.where(got == ref, 0.0, ref - got) <= tol).all())


def end_slack(polys, block, tol):
    """How far lowering a block's minimum by up to tol can move an end of
    its interval of minimizers: tol over the least nonzero exponent of the
    members' rows."""
    exponents = polys[list(block)][..., 0]
    negative, positive = sign_masks(exponents)
    return tol / np.abs(exponents[negative | positive]).min(initial=np.inf)


@st.composite
def tie_heavy_samplesets(draw, max_size=30):
    """Small integer or one-decimal coordinates: duplicate abscissae and
    many exactly tied pair scores."""
    m = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        xs = st.integers(-3, 3).map(float)
    else:
        xs = st.integers(0, 20).map(lambda k: k / 10)
    ys = st.integers(-2, 2).map(float)
    return SampleSet(draw(st.lists(xs, min_size=m, max_size=m)),
                     draw(st.lists(ys, min_size=m, max_size=m)))


def assert_matches_merging_reference(samples):
    """``agglomerate`` makes the partitions of ``agglomerate_by_merging`` at
    every n.  Each block's minimum is never above the reference's and at
    most twice the pair minima's bound below it; a block with an equal
    minimum has the same exponent, bit for bit."""
    polys = error_polynomials(samples)
    tol = 2 * pair_minima_bound(samples, pair_minima_kernel(polys))
    objects = sample_polynomials(samples)
    for n in range(1, len(samples) + 1):
        fast = agglomerate(polys, n)
        ref = agglomerate_by_merging(objects, n)
        assert fast.partition.index_sets() == ref.partition.index_sets()
        for block, got, want, p, q in zip(fast.partition.index_sets(), fast.subset_minima,
                                          ref.subset_minima, fast.exponents, ref.exponents):
            slack = tol[np.ix_(block, block)].max()
            assert below_within(got, want, slack)
            assert p == q if got == want else abs(p - q) <= end_slack(polys, block, slack)
        assert fast.delta_star == max(fast.subset_minima)


@settings(max_examples=15, deadline=None)
@given(tie_heavy_samplesets())
def test_agglomerate_matches_merging_reference(samples):
    """Complete-linkage updates on the pair minima reproduce the partitions
    of the search that rebuilds and rescores merged polynomials at every n."""
    assert_matches_merging_reference(samples)


@pytest.mark.parametrize("seed", range(6))
def test_agglomerate_matches_merging_reference_on_random_sets(seed):
    """Generic merges, where a row whose partner was merged away must find
    its next partner."""
    assert_matches_merging_reference(random_sampleset(np.random.default_rng(seed), 12))


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_agglomerate_matches_merging_reference_at_forty_tie_heavy_samples(n):
    """Forty samples on a grid with one-decimal ordinates: many tied keys,
    and merges whose partners leave many rows stale at once."""
    rng = random.Random(0)
    samples = SampleSet([i / 10 for i in range(40)],
                        [round(rng.uniform(-1, 1), 1) for _ in range(40)])
    fast = agglomerate(error_polynomials(samples), n)
    ref = agglomerate_by_merging(sample_polynomials(samples), n)
    assert fast.partition.index_sets() == ref.partition.index_sets()


def quantized_keys(samples):
    """The off-diagonal pair minima quantized as ``agglomerate`` keys them."""
    d = pair_minima(error_polynomials(samples))
    with np.errstate(over="ignore"):
        keys = np.rint(d / SCORE_QUANTUM)
    return keys[~np.eye(len(samples), dtype=bool)]


def least_pair_order(m, n):
    """The partition of merging the least pair of groups m - n times."""
    return (tuple(range(m - n + 1)), *((i,) for i in range(m - n + 1, m)))


@pytest.mark.parametrize(
    "samples",
    [
        # One abscissa: every pair minimum is near 1e300, so every key is +inf.
        SampleSet([0.0] * 6, [1e300, -1e300, 5e299, -5e299, 0.0, 2e299]),
        # Exactly collinear: every key is 0.
        SampleSet(range(8), [0.5 * x - 1.0 for x in range(8)]),
        SampleSet([0.3, 0.1, 0.4, 0.0, 0.2], [-2.0, 2.0, -4.0, 4.0, 0.0]),
    ],
    ids=["huge-ordinates-one-abscissa", "collinear", "collinear-unsorted"],
)
def test_agglomerate_all_keys_tied_merges_least_pairs_first(samples):
    keys = quantized_keys(samples)
    assert (keys == keys[0]).all()
    m = len(samples)
    for n in range(1, m + 1):
        assert agglomerate(error_polynomials(samples), n).partition.index_sets() == \
            least_pair_order(m, n)
    assert_matches_merging_reference(samples)


@pytest.mark.parametrize(
    "xs, ys",
    [
        (range(6), [1e300, -1e300, 1e300, -1e300, 1e300, -1e300]),
        (range(6), [-1e300, 1e300, -1e300, 1e300, -1e300, 1e300]),
        ([0, 2, 1, 4, 3, 6, 5], [0.0, 1e300, -1e300, 1e300, -1e300, 1e300, -1e300]),
        ([0.0, 0.0, 1.0, 1.0, 2.0, 3.0], [1e300, -1e300, 5e299, 1e300, -5e299, 1e300]),
    ],
    ids=["alternating", "alternating-low-first", "unsorted", "repeated-abscissae"],
)
def test_agglomerate_huge_ordinates_match_merging_reference(xs, ys):
    """Most keys overflow to +inf; the merges still follow the least pair."""
    samples = SampleSet(xs, ys)
    assert np.isinf(quantized_keys(samples)).sum() > len(samples)
    assert_matches_merging_reference(samples)


def test_agglomerate_without_merges():
    single = SampleSet([0.5], [1.0])
    res = agglomerate(error_polynomials(single), 1)
    assert res.partition.index_sets() == ((0,),)
    assert res.delta_star == 0.0
    assert_matches_merging_reference(single)
    samples = random_sampleset(np.random.default_rng(11), 7)
    res = agglomerate(error_polynomials(samples), 7)
    assert res.partition.index_sets() == tuple((i,) for i in range(7))
    assert res == agglomerate_by_merging(sample_polynomials(samples), 7)


@settings(max_examples=30, deadline=None)
@given(tie_heavy_samplesets(), st.data())
def test_merged_minimum_is_max_of_pair_minima(samples, data):
    """A subset's merged minimum is the largest pair minimum over its pairs,
    up to the closed form's bound below the kernel."""
    d = pair_minima(error_polynomials(samples))
    tol = 2 * pair_minima_bound(samples, d)
    polys = sample_polynomials(samples)
    m = len(samples)
    for i in range(m):
        for k in range(m):
            assert below_within(d[i, k], merged_minimum({i, k}, polys).mu, tol[i, k])
    for _ in range(5):
        subset = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        block = np.ix_(subset, subset)
        assert below_within(d[block].max(), merged_minimum(subset, polys).mu, tol[block].max())


def assert_pair_minima_match_kernel(samples):
    """D is never above the full kernel's D and at most twice the bound
    below it, since both lie within the bound of the exact values."""
    polys = error_polynomials(samples)
    d, ref = pair_minima(polys), pair_minima_kernel(polys)
    # every closed-form value is one of the full formula's terms
    assert below_within(d, ref, 2 * pair_minima_bound(samples, ref))


@st.composite
def near_collinear_samplesets(draw, max_size=30):
    """One-decimal abscissae on a line of one-decimal slope, ordinates off
    it by at most one step of 0.1: long collinear and near-collinear runs
    on the lower hull."""
    m = draw(st.integers(1, max_size))
    slope = draw(st.integers(-20, 20)) / 10
    xs = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    offsets = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m))
    return SampleSet([k / 10 for k in xs],
                     [round(slope * k / 10 + d / 10, 1) for k, d in zip(xs, offsets)])


@st.composite
def outlier_first_samplesets(draw, max_size=30):
    """A tie-heavy or near-collinear set of at most max_size samples behind
    a sample 0 far off in x, y or both: seen from sample 0, distinct samples
    round to the same point."""
    rest = draw(st.one_of(tie_heavy_samplesets(max_size), near_collinear_samplesets(max_size)))
    x0, y0 = draw(st.sampled_from([(1e15, 0.0), (-1e15, 1.0), (1e6, -1.0), (0.5, 1e300),
                                   (1.0, -1e300), (-1e6, 1e15), (1e15, -1e300)]))
    return SampleSet((x0, *rest.xs), (y0, *rest.ys))


@st.composite
def uniform_samplesets(draw, max_size=30):
    """Coordinates uniform on the 1e-5 grid of [-10, 10]: distinct
    abscissae lie far more than ZERO_EXPONENT_TOL apart."""
    m = draw(st.integers(1, max_size))
    coords = st.lists(st.integers(-10**6, 10**6).map(lambda k: k / 10**5),
                      min_size=m, max_size=m)
    return SampleSet(draw(coords), draw(coords))


@settings(max_examples=60, deadline=None)
@given(st.one_of(tie_heavy_samplesets(), near_collinear_samplesets(),
                 outlier_first_samplesets()))
def test_pair_minima_equal_the_full_kernel(samples):
    """The one-vertex closed form stays at or just below the full mu
    formula."""
    assert_pair_minima_match_kernel(samples)


@settings(max_examples=60, deadline=None)
@given(st.one_of(tie_heavy_samplesets(8), near_collinear_samplesets(8),
                 outlier_first_samplesets(7), uniform_samplesets(8)))
def test_pair_minima_and_the_kernel_lie_within_the_bound_of_exact(samples):
    """Against the mu formula in exact rationals from the raw coordinates,
    the closed form and the full kernel both err by at most
    ``pair_minima_bound``, and the closed form is never above the kernel."""
    exact = pair_minima_exact(samples)
    bound = pair_minima_bound(samples, np.array(exact, dtype=float))
    polys = error_polynomials(samples)
    d, ref = pair_minima(polys), pair_minima_kernel(polys)
    assert (d <= ref).all()
    for got in (d, ref):
        assert np.isfinite(got).all()
        error = [[float(abs(Fraction(g) - e)) for g, e in zip(*rows)]
                 for rows in zip(got.tolist(), exact)]
        assert (np.array(error) <= bound).all()


@pytest.mark.parametrize("seed", range(10))
def test_pair_minima_equal_the_kernel_in_general_position(seed):
    """Without ties on the hull's supporting lines the one vertex that
    supports each chord gives the full kernel's D bit for bit."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        polys = error_polynomials(random_sampleset(rng, int(rng.integers(1, 40))))
        assert np.array_equal(pair_minima(polys), pair_minima_kernel(polys))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ordinate", [1e6, 1e15, 1e300])
def test_a_sample_far_above_the_hull_leaves_the_other_pair_minima_alone(ordinate, seed):
    """A sample far above the hull, inside the abscissa range, is no hull
    vertex, so the other samples' D is theirs alone, bit for bit."""
    rest = random_sampleset(np.random.default_rng(seed), 20)
    x0 = (rest.xs[9] + rest.xs[10]) / 2
    samples = SampleSet((x0, *rest.xs), (ordinate, *rest.ys))
    d = pair_minima(error_polynomials(samples))
    assert np.array_equal(d[1:, 1:], pair_minima(error_polynomials(rest)))


_UNSORTED = [(7 * k % 13) / 6 for k in range(13)]


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0.5], [1.0]),
        ([0.0, 1.0], [0.0, 2.0]),
        ([1.0, 0.0], [2.0, 0.0]),
        ([1.5] * 6, [0.0, 3.0, -1.0, 2.0, -1.0, 4.0]),
        ([0.1 * k for k in range(15)], [0.3 * k - 1.0 for k in range(15)]),
        ([0.0, 1.0, 1.0, 2.0, 0.0, 2.0, 1.0], [0.0, -1.0, -1.0, 0.0, 0.0, 0.0, 2.0]),
        (_UNSORTED, [(x - 1.0) ** 2 + 0.05 * math.sin(7.0 * x) for x in _UNSORTED]),
        ([1e6 + 0.1 * k for k in (3, 0, 7, 1, 5, 2)], [1.0, 2.0, 1.5, 3.0, 0.0, 2.0]),
        ([1e15 * k for k in (0, 1, 2, 3, 4)], [1e15 * k for k in (2, 0, 1, 3, 0)]),
        ([-3.0, -1.0, 0.0, 2.0, 3.0], [1e300, 0.0, -5.0, 1e300, 2.0]),
        # Seen from sample 0 the two middle ordinates, or the last three
        # abscissae, round to one value; the hull needs the lower one.
        ([-3.0, -1.0, 0.0, 0.0, 2.0, 3.0], [1e300, 0.0, 5.0, -5.0, 1e300, 2.0]),
        ([1e15, 0.0, 0.01, 0.02], [0.0, 0.0, -1.0, 0.0]),
        # Rounding at 1e300 lets sample 2, off the hull by 0.07, attain D[0, 0].
        ([0.5, 0.0, 0.1, 1.5], [1e300, 0.0, 0.0, -1.0]),
        # The turn test at sample 3, far above the hull, overflows in sample
        # 1's row; kept on the chain, sample 3 would be the vertex that
        # supports the edge over sample 1 and miss the term that attains D[1, 1].
        ([1e15, 1.0, -3.0, 2.0], [0.0, 2.0, -1.0, 1e300]),
        # Chords of neighbours run parallel to hull edges, so two vertices
        # tie on the supporting line and may round apart.
        ([0.1 * k for k in range(12)], [(0.1 * k - 0.55) ** 2 for k in range(12)]),
    ],
    ids=["m1", "m2", "m2-unsorted", "one-abscissa", "collinear", "repeated-points",
         "unsorted-noisy", "offset-1e6", "magnitude-1e15", "huge-ordinates",
         "huge-ordinate-first", "far-abscissa-first", "huge-ordinate-off-hull",
         "overflowing-turn", "strictly-convex"],
)
def test_pair_minima_equal_the_full_kernel_on_edge_cases(xs, ys):
    assert_pair_minima_match_kernel(SampleSet(xs, ys))


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
@pytest.mark.parametrize("nudge", [False, True], ids=["collinear", "nearly-collinear"])
def test_lower_chain_decides_every_turn_exactly(scale, nudge):
    """On grid values of p x + t, rounded onto the line or moved off it by
    one unit in the last place, the hull chain is the all-``Fraction``
    chain over the same float differences, from turn products that
    underflow at 1e-300 to ones that overflow at 1e300."""
    rng = random.Random(5)
    for p, t in [(0.5, -1.0), (-3.0, 0.25), (1 / 3, 0.1), (0.0, 7.0), (1e-5, -2.0)]:
        xs = [scale * k / 4 for k in range(-6, 7)]
        rng.shuffle(xs)
        ys = [p * x + t * scale for x in xs]
        if nudge:
            ys = [math.nextafter(y, rng.choice([-math.inf, math.inf])) for y in ys]
        samples = SampleSet(xs, ys)
        chain, _ = _lower_chain(error_polynomials(samples))
        assert chain.tolist() == lower_chain_fractions(samples)


@st.composite
def signed_zero_samplesets(draw):
    """A tie-heavy, near-collinear or outlier-first set with some of its
    zero ordinates turned to -0.0."""
    samples = draw(st.one_of(tie_heavy_samplesets(), near_collinear_samplesets(),
                             outlier_first_samplesets()))
    m = len(samples)
    negative = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return SampleSet(samples.xs, [-0.0 if y == 0 and flip else y
                                  for y, flip in zip(samples.ys, negative)])


def same_float(a, b):
    return a == b and (a is None or np.signbit(a) == np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(signed_zero_samplesets(), st.data())
def test_score_blocks_equal_merged_minima(samples, data):
    """Blocks scored from D and the members' rows have the minimum of
    ``min_poly`` on the merged polynomial, up to the closed form's bound
    below it; with an equal minimum the interval is the same, down to the
    sign of a zero."""
    m = len(samples)
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[i for i in range(m) if labels[i] == b] for b in sorted(set(labels))]
    polys = error_polynomials(samples)
    d = pair_minima(polys)
    tol = 2 * pair_minima_bound(samples, d)
    result = score_blocks(blocks, polys, d)
    objects = sample_polynomials(samples)
    for block, scored in zip(sorted(blocks), result.partition.blocks):
        got, ref = scored.minimum, merged_minimum(block, objects)
        assert scored.indices == frozenset(block)
        slack = tol[np.ix_(block, block)].max()
        assert below_within(got.mu, ref.mu, slack)
        slack = end_slack(polys, block, slack)
        pairs = ((got.lower, ref.lower), (got.upper, ref.upper),
                 (got.representative(), ref.representative()))
        for a, b in pairs:
            assert same_float(a, b) if got.mu == ref.mu else a == b or abs(a - b) <= slack


# --- max/min identities ------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_plus_over_min_distributivity(m, n, data):
    """max_i min_j x_ij equals the min over labeled partitions (empty parts
    allowed) of max_j max_{i in I_j} x_ij, by exhaustive enumeration."""
    grid = [
        [data.draw(st.floats(min_value=-50, max_value=50, allow_nan=False)) for _ in range(n)]
        for _ in range(m)
    ]
    lhs = max(min(row) for row in grid)
    rhs = math.inf
    for labels in assignments(m, n):
        value = -math.inf
        for i, j in enumerate(labels):
            value = max(value, grid[i][j])
        rhs = min(rhs, value)
    assert lhs == rhs


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_min_of_max_separable(n, domain_size, data):
    """Joint minimization of max_j f_j(x_j) splits into per-coordinate
    minimization."""
    tables = [
        [data.draw(st.floats(min_value=-50, max_value=50, allow_nan=False)) for _ in range(domain_size)]
        for _ in range(n)
    ]
    lhs = min(
        max(tables[j][choice[j]] for j in range(n))
        for choice in itertools.product(range(domain_size), repeat=n)
    )
    rhs = max(min(table) for table in tables)
    assert lhs == rhs
