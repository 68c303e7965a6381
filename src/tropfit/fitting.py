"""End-to-end fitting of max-plus polynomials and rational functions.

Polynomial fitting runs the agglomerative exponent search and then recovers
the coefficient vector by residuation:

    theta_j = delta*/2 + min_i (y_i - p*_j x_i),

so the fitted polynomial misses the data by the Chebyshev error delta*/2.

Rational fitting alternates polynomial fits of the numerator and denominator
through ``linalg.alternate``.  With Y = diag(y) the two-sided equation
X(p) theta = Y Z(q) sigma splits into one-sided problems with moving
targets: odd half-steps fit the numerator to b_k = Y Z(q) sigma, even
half-steps fit the denominator to a_k = Y^-1 X(p) theta.  The squared error
sequence is not monotone (the exponent search is a heuristic, and
underparameterized fits oscillate), so the driver returns the best
half-step's parameters, not the last.  It stops when the squared error is
within the configured tolerance, when the parameters of numerator and
denominator repeat, when the run has settled into a translated cycle (the
errors repeat while some samples' numerator and denominator values move by
the same constant each period, and the exponents drift without bound) that
a probe finds still going at the iteration cap, or at the cap.  The
translation need not have settled: once the errors of both parities repeat
to rounding and the step still changes, but by a steady geometric ratio,
the driver extrapolates the step to its limit and probes with that.  A run
whose values close in on a limit by a steady ratio while the errors fall
jumps to that limit when a period run from there lowers the best error, so
a fit that converges only linearly reaches the tolerance in fewer
half-steps.  The half-steps read their targets, arrays the driver made,
without copying or checking them; the error polynomials still reject a
target whose differences leave the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .clustering import (
    ExponentResult,
    SampleSet,
    agglomerate,
    error_polynomials,
    pair_minima,
    score_blocks,
)
from .linalg import alternate, check_count, matvec, residuate
from .linalg import STOP_CAP, STOP_CONVERGED, STOP_CYCLE, STOP_DRIFT  # noqa: F401  (fit API names)
from .puiseux import PuiseuxPoly, PuiseuxRational

#: Brute-force oracle size limits.
BRUTE_FORCE_MAX_SAMPLES = 8
BRUTE_FORCE_MAX_MONOMIALS = 3


@dataclass(frozen=True)
class FitConfig:
    """Monomial counts and stopping controls for rational fitting."""

    n: int
    l: int = 1
    epsilon: float = 1e-4
    iteration_cap: int = 200

    def __post_init__(self):
        for name in ("n", "l", "iteration_cap"):
            check_count(getattr(self, name), name)
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class PolyFit:
    """Fitted polynomial with its squared error and exponent-search record.

    ``coefficients`` aligns with ``exponent_result.exponents`` and preserves
    duplicate exponents as produced.
    """

    delta_star: float
    exponent_result: ExponentResult
    coefficients: tuple[float, ...]

    @property
    def poly(self) -> PuiseuxPoly:
        """The canonicalized function, built when read."""
        return PuiseuxPoly(zip(self.exponent_result.exponents, self.coefficients))


@dataclass(frozen=True)
class RationalFit:
    """Fitted rational function, its squared error, and the iteration record."""

    rational: PuiseuxRational
    delta_star: float
    trace: tuple[tuple[int, float], ...]
    stop_reason: str
    numerator_exponents: tuple[float, ...]
    numerator_coefficients: tuple[float, ...]
    denominator_exponents: tuple[float, ...]
    denominator_coefficients: tuple[float, ...]


def _poly_fit(samples: SampleSet, result: ExponentResult) -> PolyFit:
    """Recover the coefficients for the searched exponents by residuation.

    The search's delta_star is kept rather than the residuation's delta: the
    two agree only to rounding, and a last-bit change in delta_star would
    move the alternation in fit_rational.
    """
    vandermonde = np.multiply.outer(samples.xs, result.exponents)
    _, xhat = residuate(vandermonde, samples.ys)
    return PolyFit(result.delta_star, result, tuple((result.delta_star / 2 + xhat).tolist()))


def fit_polynomial(samples: SampleSet, n: int) -> PolyFit:
    """Fit an n-monomial max-plus polynomial minimizing the Chebyshev error."""
    check_count(n, "monomial count", len(samples))
    return _poly_fit(samples, agglomerate(error_polynomials(samples), n))


def _set_partitions(m: int, n: int) -> Iterator[list[list[int]]]:
    """All partitions of range(m) into exactly n nonempty blocks, in
    restricted-growth order (deterministic)."""

    blocks: list[list[int]] = []

    def extend(i: int):
        if i == m:
            if len(blocks) == n:
                yield [list(b) for b in blocks]
            return
        # prune states that cannot reach n blocks with the items left
        if len(blocks) + (m - i) < n:
            return
        for b in blocks:
            b.append(i)
            yield from extend(i + 1)
            b.pop()
        if len(blocks) < n:
            blocks.append([i])
            yield from extend(i + 1)
            blocks.pop()

    yield from extend(0)


def brute_force_poly_fit(samples: SampleSet, n: int) -> PolyFit:
    """Exhaustive-partition oracle for fit_polynomial on small instances.

    Scores every partition of the sample indices into n groups and returns
    the global optimum; ties go to the first partition in enumeration order.
    """
    m = len(samples)
    if m > BRUTE_FORCE_MAX_SAMPLES or n > BRUTE_FORCE_MAX_MONOMIALS:
        raise ValueError(
            f"oracle limited to M <= {BRUTE_FORCE_MAX_SAMPLES}, "
            f"N <= {BRUTE_FORCE_MAX_MONOMIALS}"
        )
    check_count(n, "monomial count", m)
    polys = error_polynomials(samples)
    minima = pair_minima(polys)
    best: ExponentResult | None = None
    for partition in _set_partitions(m, n):
        result = score_blocks(partition, polys, minima)
        if best is None or result.delta_star < best.delta_star:
            best = result
    return _poly_fit(samples, best)


def fit_rational(samples: SampleSet, config: FitConfig) -> RationalFit:
    """Fit a rational function (ratio of n- and l-monomial polynomials).

    The denominator starts as the constant identity (q_0 = sigma_0 = all
    zeros), so the first target is the raw data.  See the module docstring
    for the stopping behaviour; the returned parameters are the best
    half-step's, whose recomputed squared error equals ``delta_star``.
    """
    check_count(config.n, "n", len(samples))
    check_count(config.l, "l", len(samples))
    xs, ys = samples.xs, samples.ys

    def values(exponents, coefficients) -> np.ndarray:
        return matvec(np.multiply.outer(xs, exponents), coefficients)

    def fit_numerator(target: np.ndarray):
        fit = fit_polynomial(SampleSet._of_arrays(xs, target), config.n)
        p, t = fit.exponent_result.exponents, fit.coefficients
        return fit.delta_star, (p, t), values(p, t) - ys

    def fit_denominator(target: np.ndarray):
        fit = fit_polynomial(SampleSet._of_arrays(xs, target), config.l)
        q, s = fit.exponent_result.exponents, fit.coefficients
        return fit.delta_star, (q, s), ys + values(q, s)

    zeros = (0.0,) * config.l
    delta_star, (num_p, num_t), (den_q, den_s), trace, reason = alternate(
        fit_numerator, fit_denominator, (zeros, zeros), ys + values(zeros, zeros),
        config.epsilon, config.iteration_cap,
    )
    rational = PuiseuxRational(PuiseuxPoly(zip(num_p, num_t)), PuiseuxPoly(zip(den_q, den_s)))
    return RationalFit(rational, delta_star, trace, reason, num_p, num_t, den_q, den_s)
