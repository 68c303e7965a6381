"""Polynomial and rational fitting: worked examples, residual consistency,
the exhaustive-partition oracle, and the alternation driver."""

import math

import numpy as np
import pytest

from tropfit import (
    FitConfig,
    SampleSet,
    agglomerate,
    alternating_solve,
    error_polynomials,
    eval_poly,
    eval_rational,
    fit_polynomial,
    fit_rational,
)

from oracles import (
    brute_force_poly_fit,
    chebyshev,
    convex_sampleset,
    matvec,
    merged_minimum,
    monomial_matrix,
    random_sampleset,
    sample_polynomials,
)

THREE_POINTS = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


# --- polynomial fitting ---------------------------------------------------------


def test_fit_polynomial_recovers_line():
    xs = [-1.0, 0.0, 0.5, 2.0]
    samples = SampleSet(xs, [2 * x + 1 for x in xs])
    fit = fit_polynomial(samples, 1)
    assert fit.delta_star == pytest.approx(0.0, abs=1e-12)
    assert fit.poly.monomials == ((pytest.approx(2.0, abs=1e-12), pytest.approx(1.0, abs=1e-12)),)


def test_fit_polynomial_three_points():
    fit = fit_polynomial(THREE_POINTS, 2)
    assert fit.delta_star == pytest.approx(1.0, abs=1e-12)
    assert fit.exponent_result.exponents == pytest.approx((0.0, 0.0), abs=1e-12)
    assert fit.coefficients == pytest.approx((0.5, 0.5), abs=1e-12)
    # duplicate exponents survive in the record but merge in the function
    assert fit.poly.monomials == ((0.0, 0.5),)
    # the fitted constant misses the data by the Chebyshev error 0.5
    assert max(abs(eval_poly(fit.poly, x) - y) for x, y in THREE_POINTS.points) == pytest.approx(0.5)


def test_fit_polynomial_bounds():
    with pytest.raises(ValueError):
        fit_polynomial(THREE_POINTS, 0)
    with pytest.raises(ValueError):
        fit_polynomial(THREE_POINTS, 4)


def test_fit_polynomial_residual_consistency(rng):
    # (fitter, largest M, largest N); the oracle is limited to M <= 8, N <= 3
    for fitter, max_m, max_n in ((fit_polynomial, 9, 9), (brute_force_poly_fit, 8, 3)):
        for _ in range(20):
            m = int(rng.integers(2, max_m + 1))
            n = int(rng.integers(1, min(m, max_n) + 1))
            samples = random_sampleset(rng, m)
            fit = fitter(samples, n)
            result = fit.exponent_result
            assert fit.delta_star == result.delta_star == max(result.subset_minima)
            sets = result.partition.index_sets()
            assert len(sets) == n
            assert sorted(i for s in sets for i in s) == list(range(m))
            assert [s[0] for s in sets] == sorted(s[0] for s in sets)
            x = monomial_matrix(samples.xs, result.exponents)
            achieved = chebyshev(matvec(x, fit.coefficients), samples.ys)
            assert achieved == pytest.approx(fit.delta_star / 2, abs=1e-9)


def test_fit_polynomial_exact_on_generated_data(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, n + 6))
        samples, monomials = convex_sampleset(rng, m, n)
        fit = fit_polynomial(samples, n)
        assert fit.delta_star <= 1e-9
        for x, y in samples.points:
            assert eval_poly(fit.poly, x) == pytest.approx(y, abs=1e-9)


# --- exhaustive oracle ------------------------------------------------------------


def test_brute_force_three_points():
    fit = brute_force_poly_fit(THREE_POINTS, 2)
    assert fit.delta_star == pytest.approx(1.0, abs=1e-12)


def test_brute_force_singletons_and_single_block():
    two = SampleSet([0.0, 1.0], [0.0, 2.0])
    assert brute_force_poly_fit(two, 2).delta_star == pytest.approx(0.0, abs=1e-12)
    full = merged_minimum([0, 1, 2], sample_polynomials(THREE_POINTS))
    assert brute_force_poly_fit(THREE_POINTS, 1).delta_star == pytest.approx(full.mu, abs=1e-12)


def test_brute_force_size_limits():
    big = SampleSet(list(range(9)), [0.0] * 9)
    with pytest.raises(ValueError):
        brute_force_poly_fit(big, 2)
    with pytest.raises(ValueError):
        brute_force_poly_fit(THREE_POINTS, 4)


def test_greedy_never_beats_oracle(rng):
    for _ in range(30):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, min(m, 3) + 1))
        samples = random_sampleset(rng, m)
        greedy = fit_polynomial(samples, n)
        oracle = brute_force_poly_fit(samples, n)
        assert greedy.delta_star >= oracle.delta_star - 1e-9


def test_greedy_matches_oracle_on_convex_data(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 9))
        samples, _ = convex_sampleset(rng, m, n)
        greedy = fit_polynomial(samples, n)
        oracle = brute_force_poly_fit(samples, n)
        assert oracle.delta_star <= 1e-9
        assert greedy.delta_star == pytest.approx(oracle.delta_star, abs=1e-9)


# --- rational fitting ---------------------------------------------------------------


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n=0)
    with pytest.raises(ValueError):
        FitConfig(n=1, l=0)
    with pytest.raises(ValueError):
        FitConfig(n=1, l=1, epsilon=0.0)
    with pytest.raises(ValueError):
        FitConfig(n=1, l=1, iteration_cap=0)
    assert FitConfig(np.int64(2), np.int32(3), iteration_cap=np.int64(6)).l == 3


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: fit_polynomial(THREE_POINTS, 2.5), id="fit_polynomial-float"),
        pytest.param(lambda: fit_polynomial(THREE_POINTS, True), id="fit_polynomial-bool"),
        pytest.param(
            lambda: agglomerate(error_polynomials(THREE_POINTS), 1.5), id="agglomerate-float"
        ),
        pytest.param(lambda: FitConfig(2.5, 2), id="config-n-float"),
        pytest.param(lambda: FitConfig(2, 2.0), id="config-l-float"),
        pytest.param(lambda: FitConfig(2, 2, iteration_cap=6.5), id="config-cap-float"),
        pytest.param(lambda: FitConfig(True, True), id="config-bool"),
        pytest.param(
            lambda: alternating_solve([[0.0]], [[1.0]], max_iter=2.5), id="solve-max-iter-float"
        ),
    ],
)
def test_counts_and_caps_must_be_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_fit_rational_bounds():
    with pytest.raises(ValueError):
        fit_rational(THREE_POINTS, FitConfig(n=4, l=1))
    with pytest.raises(ValueError):
        fit_rational(THREE_POINTS, FitConfig(n=1, l=4))


def test_fit_rational_exact_polynomial_data(rng):
    samples, _ = convex_sampleset(rng, 7, 2)
    fit = fit_rational(samples, FitConfig(n=2, l=1))
    assert fit.delta_star <= 1e-9
    assert fit.stop_reason == "converged-within-epsilon"
    assert fit.trace[0][0] == 1 and fit.trace[0][1] <= 1e-9
    # untouched denominator: the constant identity
    assert fit.rational.denominator.monomials == ((0.0, 0.0),)
    for x, y in samples.points:
        assert eval_rational(fit.rational, x) == pytest.approx(y, abs=1e-9)


def test_fit_rational_nonconvex_beats_polynomial():
    # concave vee: no convex polynomial matches it, but line - vee does
    xs = [-2.0, -1.0, 0.0, 1.0, 2.0]
    samples = SampleSet(xs, [-abs(x) for x in xs])
    poly = fit_polynomial(samples, 2)
    rational = fit_rational(samples, FitConfig(n=1, l=2))
    assert poly.delta_star > 0.1
    assert rational.delta_star <= 1e-9
    for x, y in samples.points:
        assert eval_rational(rational.rational, x) == pytest.approx(y, abs=1e-9)


def test_fit_rational_delta_consistency(rng):
    for _ in range(8):
        m = int(rng.integers(3, 9))
        samples = random_sampleset(rng, m)
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        fit = fit_rational(samples, FitConfig(n=n, l=l, iteration_cap=60))
        x = monomial_matrix(samples.xs, fit.numerator_exponents)
        z = monomial_matrix(samples.xs, fit.denominator_exponents)
        lhs = matvec(x, fit.numerator_coefficients)
        zs = matvec(z, fit.denominator_coefficients)
        rhs = [y + v for y, v in zip(samples.ys, zs)]
        achieved = chebyshev(lhs, rhs)
        assert achieved == pytest.approx(fit.delta_star / 2, abs=1e-9)
        assert fit.delta_star == pytest.approx(min(d for _, d in fit.trace), abs=0.0)
        assert fit.stop_reason in {"converged-within-epsilon", "cycle", "drift-cycle", "iteration-cap"}


# Seeded random fits whose translated cycle ends before the iteration cap:
# (xs, ys, n, l, stop reason, squared error).  A drift test that looked at
# the last two periods only stopped the first at k = 11 with 1.41 and the
# second at k = 168 with 0.0123.  The second ran to the cap at 0.00617
# until the driver jumped to the limit of a converging run; it now
# converges.
ENDING_TRANSLATIONS = [
    (
        [-3.913503392676505, -3.572578921574568, 0.5191131032436157, 0.7709990159353298,
         1.4952393970401257, 3.2947138159730667, 3.4095607760595756],
        [-0.7170766980347327, 3.6386338758687913, -1.0995460057880924, 0.10887072378065987,
         -3.8585663872377207, 0.6355079955223744, 2.66448043801703],
        3, 4, "converged-within-epsilon", 2.811151641915477e-05,
    ),
    (
        [-4.499129711369609, -2.956354217222925, -2.7242264264062777, -2.3668754306049427,
         -2.1089893390846592, 0.19585161673249374, 0.8919972907927927, 1.4587178090179855,
         1.6293454769109323, 1.7874788697726351],
        [-4.606275375023497, -2.2615310809855824, -1.9228953306700691, 3.7872091023414747,
         -4.486763449950683, -1.5286579702456047, -3.0544968275110405, 1.9514049246402596,
         3.112342068012362, -4.425627745157689],
        4, 5, "converged-within-epsilon", 1.2200437305320833e-05,
    ),
]


@pytest.mark.parametrize("xs, ys, n, l, reason, delta", ENDING_TRANSLATIONS)
def test_fit_rational_runs_through_an_ending_translation(xs, ys, n, l, reason, delta):
    fit = fit_rational(SampleSet(xs, ys), FitConfig(n=n, l=l))
    assert fit.stop_reason == reason
    assert fit.delta_star <= delta + 1e-9


def test_fit_rational_trace_is_half_step_indexed(rng):
    samples = random_sampleset(rng, 6)
    fit = fit_rational(samples, FitConfig(n=2, l=2, iteration_cap=40))
    ks = [k for k, _ in fit.trace]
    assert ks == list(range(1, len(ks) + 1))


def test_fit_rational_respects_iteration_cap(rng):
    samples = random_sampleset(rng, 8)
    fit = fit_rational(samples, FitConfig(n=2, l=2, epsilon=1e-15, iteration_cap=6))
    assert len(fit.trace) <= 6
    if len(fit.trace) == 6 and fit.trace[-1][1] > 1e-15:
        assert fit.stop_reason in {"iteration-cap", "cycle"}


def test_maxtimes_fit_via_isomorphism(rng):
    """Fitting exp-transformed data in the log domain reproduces the max-plus
    fit: exponents equal, coefficients exp-mapped."""
    samples, _ = convex_sampleset(rng, 6, 2)
    plus_fit = fit_polynomial(samples, 2)
    # the max-times dataset is the exp image; fitting it means logging first
    times_xs = [math.exp(x) for x in samples.xs]
    times_ys = [math.exp(y) for y in samples.ys]
    logged = SampleSet([math.log(x) for x in times_xs], [math.log(y) for y in times_ys])
    again = fit_polynomial(logged, 2)
    assert again.exponent_result.exponents == pytest.approx(plus_fit.exponent_result.exponents, abs=1e-9)
    mapped = [math.exp(t) for t in plus_fit.coefficients]
    assert [math.exp(t) for t in again.coefficients] == pytest.approx(mapped, rel=1e-9)
