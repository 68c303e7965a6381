"""Polynomial and rational fitting: worked examples, residual consistency,
the exhaustive-partition oracle, and the alternation driver."""

import math

import pytest

from tropfit import (
    FitConfig,
    SampleSet,
    TropVector,
    best_approx_solve,
    brute_force_poly_fit,
    distance,
    eval_poly,
    eval_rational,
    fit_polynomial,
    fit_rational,
    matvec,
    tpow,
    vandermonde,
)

from oracles import convex_sampleset, random_sampleset

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
            x = vandermonde(samples.xs, result.exponents)
            theta = TropVector(list(fit.coefficients))
            achieved = distance(matvec(x, theta), TropVector(samples.ys))
            assert achieved == pytest.approx(tpow(fit.delta_star, 0.5), abs=1e-9)


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
    from tropfit import error_polynomials, merged_minimum

    polys = error_polynomials(THREE_POINTS)
    full = merged_minimum([0, 1, 2], polys)
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
        x = vandermonde(samples.xs, fit.numerator_exponents)
        z = vandermonde(samples.xs, fit.denominator_exponents)
        lhs = matvec(x, TropVector(list(fit.numerator_coefficients)))
        zs = matvec(z, TropVector(list(fit.denominator_coefficients)))
        rhs = TropVector([y + v for y, v in zip(samples.ys, zs)])
        achieved = distance(lhs, rhs)
        assert achieved == pytest.approx(tpow(fit.delta_star, 0.5), abs=1e-9)
        assert fit.delta_star == pytest.approx(min(d for _, d in fit.trace), abs=0.0)
        assert fit.stop_reason in {"converged-within-epsilon", "cycle", "iteration-cap"}


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
