"""End-to-end fitting of max-plus polynomials and rational functions.

Polynomial fitting runs the agglomerative exponent search and then recovers
the coefficient vector by residuation:

    theta_j = delta*/2 + min_i (y_i - p*_j x_i),

so the fitted polynomial misses the data by the Chebyshev error delta*/2.

Rational fitting alternates polynomial fits of the numerator and denominator.
With Y = diag(y) the two-sided equation X(p) theta = Y Z(q) sigma splits into
one-sided problems with moving targets: odd half-steps fit the numerator to
b_k = Y Z(q) sigma, even half-steps fit the denominator to a_k = Y^-1 X(p)
theta.  The squared error sequence of the alternation is not monotone (the
exponent search is a heuristic, and underparameterized fits oscillate), so
the driver keeps every half-step's parameter snapshot and returns the best
one seen.  It stops early when the squared error falls within the configured
tolerance or when a parameter snapshot repeats (the alternation is then
cycling and cannot produce new candidates); otherwise it runs to the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .clustering import (
    ExponentResult,
    SampleSet,
    agglomerate,
    error_polynomials,
    score_blocks,
)
from .linalg import residuate
from .puiseux import PuiseuxPoly, PuiseuxRational, poly_sum

#: Quantization for the repeated-snapshot test in fit_rational.
SNAPSHOT_QUANTUM = 1e-9

#: Brute-force oracle size limits.
BRUTE_FORCE_MAX_SAMPLES = 8
BRUTE_FORCE_MAX_MONOMIALS = 3

STOP_CONVERGED = "converged-within-epsilon"
STOP_CYCLE = "cycle"
STOP_CAP = "iteration-cap"


@dataclass(frozen=True)
class FitConfig:
    """Monomial counts and stopping controls for rational fitting."""

    n: int
    l: int = 1
    epsilon: float = 1e-4
    iteration_cap: int = 200

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("monomial counts must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.iteration_cap < 1:
            raise ValueError("iteration cap must be at least 1")


@dataclass(frozen=True)
class PolyFit:
    """Fitted polynomial with its squared error and exponent-search record.

    ``coefficients`` aligns with ``exponent_result.exponents`` and preserves
    duplicate exponents as produced; ``poly`` is the canonicalized function.
    """

    poly: PuiseuxPoly
    delta_star: float
    exponent_result: ExponentResult
    coefficients: tuple[float, ...]


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
    _, xhat = residuate(vandermonde, np.array(samples.ys))
    coeffs = tuple((result.delta_star / 2 + xhat).tolist())
    poly = PuiseuxPoly(zip(result.exponents, coeffs))
    return PolyFit(poly, result.delta_star, result, coeffs)


def fit_polynomial(samples: SampleSet, n: int) -> PolyFit:
    """Fit an n-monomial max-plus polynomial minimizing the Chebyshev error."""
    if not 1 <= n <= len(samples):
        raise ValueError(f"monomial count must be in 1..{len(samples)}, got {n}")
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
    if not 1 <= n <= m:
        raise ValueError(f"monomial count must be in 1..{m}, got {n}")
    polys = error_polynomials(samples)
    best: ExponentResult | None = None
    for partition in _set_partitions(m, n):
        result = score_blocks((b, poly_sum(polys[i] for i in b)) for b in partition)
        if best is None or result.delta_star < best.delta_star:
            best = result
    return _poly_fit(samples, best)


def _quantize(vectors: Sequence[Sequence[float]], parity: int) -> tuple:
    return tuple(
        round(v / SNAPSHOT_QUANTUM) for vec in vectors for v in vec
    ) + (parity,)


def fit_rational(samples: SampleSet, config: FitConfig) -> RationalFit:
    """Fit a rational function (ratio of n- and l-monomial polynomials).

    The denominator starts as the constant identity (q_0 = sigma_0 = all
    zeros), so the first target is the raw data.  See the module docstring
    for the stopping behaviour; the returned parameters are the best
    half-step snapshot, whose recomputed squared error equals ``delta_star``.
    """
    m = len(samples)
    if not 1 <= config.n <= m or not 1 <= config.l <= m:
        raise ValueError(f"monomial counts must be in 1..{m}")
    xs, ys = samples.xs, samples.ys

    num_p: tuple[float, ...] = ()
    num_t: tuple[float, ...] = ()
    den_q: tuple[float, ...] = (0.0,) * config.l
    den_s: tuple[float, ...] = (0.0,) * config.l

    trace: list[tuple[int, float]] = []
    best: tuple[float, int, tuple] | None = None
    seen: set[tuple] = set()
    reason = STOP_CAP
    k = 0
    while k < config.iteration_cap:
        k += 1
        if k % 2 == 1:
            target = [
                y + max(q * x + s for q, s in zip(den_q, den_s))
                for x, y in zip(xs, ys)
            ]
            fit = fit_polynomial(SampleSet(xs, target), config.n)
            num_p = fit.exponent_result.exponents
            num_t = fit.coefficients
        else:
            target = [
                -y + max(p * x + t for p, t in zip(num_p, num_t))
                for x, y in zip(xs, ys)
            ]
            fit = fit_polynomial(SampleSet(xs, target), config.l)
            den_q = fit.exponent_result.exponents
            den_s = fit.coefficients
        delta = fit.delta_star
        trace.append((k, delta))
        snapshot = (num_p, num_t, den_q, den_s)
        if best is None or delta < best[0]:
            best = (delta, k, snapshot)
        if delta <= config.epsilon:
            # necessarily the best snapshot: earlier deltas exceeded epsilon
            reason = STOP_CONVERGED
            break
        key = _quantize(snapshot, k % 2)
        if key in seen:
            reason = STOP_CYCLE
            break
        seen.add(key)

    assert best is not None
    delta_star, _, (num_p, num_t, den_q, den_s) = best
    rational = PuiseuxRational(
        PuiseuxPoly(zip(num_p, num_t)), PuiseuxPoly(zip(den_q, den_s))
    )
    return RationalFit(
        rational,
        delta_star,
        tuple(trace),
        reason,
        num_p,
        num_t,
        den_q,
        den_s,
    )
