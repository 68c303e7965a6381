"""Max-plus Puiseux polynomials and rational functions.

A polynomial with monomials (p_j, theta_j) is the convex piecewise-linear
function x -> max_j (p_j * x + theta_j); exponents are arbitrary reals and
coefficients are finite (nonzero) scalars.  A rational function is a tropical
quotient of two polynomials, i.e. a difference of convex piecewise-linear
functions.  ``poly_values`` evaluates a polynomial at many points in one
array pass; the fit, the report's evaluator and ``eval_poly`` all use it.

``min_poly`` evaluates the closed-form minimum over x of a polynomial with
exponents of mixed sign

    mu = max over pairs p_j < 0 < p_k of a convex combination of the two
         coefficients with weights -p_k/(p_j - p_k) and p_j/(p_j - p_k),
         joined with max over theta_j having p_j = 0,

together with the interval of minimizers

    max_{p_j < 0} (mu - theta_j)/p_j  <=  x  <=  min_{p_j > 0} (mu - theta_j)/p_j.

This costs O(N^2).  When every exponent is strictly one-signed the infimum is
-inf and is not attained; that case is reported, not raised.

``mu_term`` is one pair's term of mu and ``sign_masks`` the rule that puts an
exponent on the negative, zero or positive side.  ``min_poly`` and the
exponent search's pair minima (``clustering.pair_minima``) both use them.

``minimum_at`` holds the interval formula.  ``min_poly`` feeds it the mu
above as a single block; the exponent search feeds it all its final blocks
at once, each with a mu it already knows (the largest pair minimum over the
block) and the members' monomials as they are, unsorted and unmerged.  It
reports a zero minimum as 0.0, never -0.0: of tied 0.0 and
-0.0 terms, numpy's max returns one that depends on the array's length and
order, so only a fixed sign gives both callers the same result, down to
the signs of zero interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Exponents within this distance of 0 are classified as zero exponents
#: (``sign_masks``, its one reader).  The exponent polynomials built by the
#: clustering stage always carry an exact 0 exponent; float dust must not
#: disqualify it.
ZERO_EXPONENT_TOL = 1e-12


@dataclass(frozen=True)
class PuiseuxPoly:
    """Canonical max-plus polynomial: monomials sorted by exponent, duplicate
    exponents merged by coefficient max.  Of equal values that differ only
    in the sign of a zero, the first seen is kept."""

    monomials: tuple[tuple[float, float], ...]

    def __init__(self, monomials: Iterable[tuple[float, float]]):
        if not isinstance(monomials, np.ndarray):
            monomials = [*monomials]
        if not len(monomials):
            raise ValueError("a polynomial needs at least one monomial")
        mons = np.asarray(monomials, dtype=float)
        if mons.ndim != 2 or mons.shape[1] != 2:
            raise ValueError(f"monomials must be (exponent, coefficient) pairs, got {mons.shape}")
        finite = np.isfinite(mons)
        if not finite.all():
            bad = mons[~finite][0].item()
            raise ValueError(f"exponents and coefficients must be finite, got {bad!r}")
        # Sort by exponent, then larger coefficient first, then input order
        # (complex numbers sort by real part, then imaginary part).  Each run
        # of equal exponents then starts with its first-seen max coefficient,
        # and its least input index holds its first-seen exponent.
        order = np.argsort(mons[:, 0] - 1j * mons[:, 1], kind="stable")
        p = mons[order, 0]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        exponents = mons[np.minimum.reduceat(order, starts), 0]
        coefficients = mons[order[starts], 1]
        object.__setattr__(self, "monomials", tuple(zip(exponents.tolist(), coefficients.tolist())))

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.monomials)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class PuiseuxRational:
    """Tropical quotient numerator / denominator."""

    numerator: PuiseuxPoly
    denominator: PuiseuxPoly


def poly_values(exponents, coefficients, xs) -> np.ndarray:
    """max_j (p_j * x + theta_j) at each x of ``xs``, as a float array.

    Each value is the first largest of the terms, in the monomials' order;
    ties that differ only in the sign of a zero go to the earlier monomial.
    The monomials may repeat an exponent.  A term that overflows is inf,
    and inf - inf is nan, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.multiply.outer(xs, exponents) + coefficients
    return terms[np.arange(len(terms)), terms.argmax(axis=1)]


def eval_poly(poly: PuiseuxPoly, x: float) -> float:
    """Evaluate max_j (p_j * x + theta_j) at a finite x."""
    if not math.isfinite(x):
        raise ValueError(f"polynomials are evaluated at finite x, got {x!r}")
    return poly_values(poly.exponents, poly.coefficients, [x]).item()


def eval_rational(r: PuiseuxRational, x: float) -> float:
    """Evaluate the quotient: numerator(x) - denominator(x)."""
    return eval_poly(r.numerator, x) - eval_poly(r.denominator, x)


@dataclass(frozen=True)
class PolyMinimum:
    """Minimum value of a polynomial and the closed interval attaining it.

    ``lower``/``upper`` of None mean unbounded on that side.  ``attained`` is
    False only for one-signed exponent sets, where the infimum is -inf and no
    minimizer exists; ``mu`` is then -inf.
    """

    mu: float
    lower: float | None
    upper: float | None
    attained: bool = True

    def representative(self) -> float:
        """One minimizer: the interval midpoint, or the finite endpoint when
        one side is unbounded, or 0 when both are."""
        if not self.attained:
            raise ValueError("unattained minimum has no representative point")
        if self.lower is not None and self.upper is not None:
            return (self.lower + self.upper) / 2
        if self.lower is not None:
            return self.lower
        if self.upper is not None:
            return self.upper
        return 0.0


def sign_masks(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negative, positive): which exponents lie below -ZERO_EXPONENT_TOL and
    which above it.  The rest are zero exponents."""
    return exponents < -ZERO_EXPONENT_TOL, exponents > ZERO_EXPONENT_TOL


def mu_term(neg_p, neg_t, pos_p, pos_t):
    """The mu formula's term of a negative monomial (neg_p, neg_t) and a
    positive one (pos_p, pos_t), elementwise over broadcast arrays."""
    span = neg_p - pos_p
    return neg_t * (-pos_p / span) + pos_t * (neg_p / span)


def pairwise_minimum_value(
    neg_p: np.ndarray,
    neg_t: np.ndarray,
    pos_p: np.ndarray,
    pos_t: np.ndarray,
    zero_t: np.ndarray,
) -> float:
    """The mu formula on sign-split monomial vectors: the largest ``mu_term``
    over every negative-positive pair and every zero-exponent coefficient;
    -inf if all of them are absent (the unattained case)."""
    pairs = mu_term(neg_p[:, None], neg_t[:, None], pos_p, pos_t)
    return max(float(pairs.max(initial=-np.inf)), float(zero_t.max(initial=-np.inf)))


def minimum_at(
    mus: np.ndarray | list[float],
    exponents: np.ndarray,
    coefficients: np.ndarray,
    starts: list[int],
) -> list[PolyMinimum]:
    """The attained minima ``mus`` of several polynomials with their
    intervals of minimizers by the closed form above; a zero mu is reported
    as 0.0.

    ``exponents`` and ``coefficients`` are (R, K) arrays of monomials, and
    polynomial b owns rows starts[b] up to the next start (``starts``
    ascending from 0).  The monomials may come in any order and repeat an
    exponent: float subtraction and division are monotone in theta_j, so a
    repeated exponent's smaller coefficients never set an end of the
    interval, and the ends equal those of the canonical polynomial.
    """
    mus = np.asarray(mus, dtype=float) + 0.0  # -0.0 + 0.0 is 0.0
    bounds = [*starts, len(exponents)]
    sizes = [end - start for start, end in zip(bounds, bounds[1:])]
    neg, pos = sign_masks(exponents)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = (np.repeat(mus, sizes)[:, None] - coefficients) / exponents
    lower = np.maximum.reduceat(np.where(neg, ends, -np.inf).max(axis=1), starts)
    upper = np.minimum.reduceat(np.where(pos, ends, np.inf).min(axis=1), starts)
    # which sides are bounded comes from the masks: an end may overflow to inf
    has_neg = np.logical_or.reduceat(neg.any(axis=1), starts)
    has_pos = np.logical_or.reduceat(pos.any(axis=1), starts)
    return [
        PolyMinimum(mu, lo if some_neg else None, up if some_pos else None)
        for mu, lo, up, some_neg, some_pos in zip(
            mus.tolist(), lower.tolist(), upper.tolist(), has_neg.tolist(), has_pos.tolist()
        )
    ]


def min_poly(poly: PuiseuxPoly) -> PolyMinimum:
    """Minimize a polynomial over the real line by the closed form above."""
    ps = np.array(poly.exponents, dtype=float)
    ts = np.array(poly.coefficients, dtype=float)
    neg, pos = sign_masks(ps)
    mu = pairwise_minimum_value(ps[neg], ts[neg], ps[pos], ts[pos], ts[~(neg | pos)])
    if mu == -math.inf:
        return PolyMinimum(mu, None, None, attained=False)
    return minimum_at([mu], ps[None], ts[None], [0])[0]
