"""Exponent search by agglomerative clustering of sample indices.

Fitting a max-plus polynomial with a free exponent vector reduces, after
residuation, to minimizing

    delta(p) = max_i min_j E_i(p_j)

where E_i is a per-sample error polynomial in the exponent variable with
monomials (x_j - x_i, y_i - y_j) over all samples j.  Distributing max over
min turns this into a search over partitions of the sample indices into N
groups, each group scored by the closed-form minimum of the tropical sum of
its member polynomials.  The search is greedy and agglomerative: starting
from singletons, repeatedly merge the pair of groups whose merged polynomial
has the least minimum, until N groups remain.  The greedy partition is a
heuristic, not a guaranteed optimum; ``fitting.brute_force_poly_fit`` bounds
it on small instances.

All M error polynomials together are one (M, M, 2) float array E with
E[i, j] = (x_j - x_i, y_i - y_j) (``error_polynomials``).  The merged minimum
is a max over monomial pairs, and each pair comes from at most two members,
so a group's score is the largest merged minimum over its pairs of samples.
The search is therefore complete-linkage clustering on the M x M matrix of
pair minima (``pair_minima``).  Each of its M^2/2 entries is a mu kernel over
O(M^2) monomial pairs, so D costs O(M^4); the merges then cost O(M^2 log M)
heap operations on float maxima.  Polynomial objects are built only for the
N final blocks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import check_count
from .puiseux import (
    ZERO_EXPONENT_TOL,
    PolyMinimum,
    PuiseuxPoly,
    min_poly,
    pairwise_minimum_value,
)

#: Merged-minimum scores within this tolerance are tied; ties are broken by
#: the lexicographically smallest (min sample index, max sample index) of the
#: candidate pair, which makes runs reproducible across platforms.
SCORE_QUANTUM = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Sample abscissae and ordinates; all coordinates finite."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __init__(self, xs: Iterable[float], ys: Iterable[float]):
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if not xs:
            raise ValueError("at least one sample required")
        for v in (*xs, *ys):
            if math.isnan(v) or math.isinf(v):
                raise ValueError(f"sample coordinates must be finite, got {v!r}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "SampleSet":
        pts = list(points)
        return cls((x for x, _ in pts), (y for _, y in pts))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs, self.ys))

    def __len__(self) -> int:
        return len(self.xs)


def error_polynomials(samples: SampleSet) -> np.ndarray:
    """All per-sample error polynomials as one (M, M, 2) float array E.

    Row i holds E_i's monomials E[i, j] = (x_j - x_i, y_i - y_j), one per
    sample j and not deduplicated: duplicate abscissae give repeated
    exponents, which only the block polynomials of ``score_blocks`` merge by
    coefficient max.  E[i, i] = (0, 0), so E_i(p) >= 0 for all p.  Raises
    ValueError when a difference overflows the float range.
    """
    xs = np.array(samples.xs)
    ys = np.array(samples.ys)
    with np.errstate(over="ignore"):
        polys = np.stack((xs[None, :] - xs[:, None], ys[:, None] - ys[None, :]), axis=-1)
    if not np.isfinite(polys).all():
        raise ValueError("sample coordinate differences must be finite")
    return polys


@dataclass(frozen=True)
class PartitionBlock:
    """One group of sample indices with its merged polynomial and minimum."""

    indices: frozenset[int]
    poly: PuiseuxPoly
    minimum: PolyMinimum


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering range(M), sorted by least index."""

    blocks: tuple[PartitionBlock, ...]

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(b.indices)) for b in self.blocks)


@dataclass(frozen=True)
class ExponentResult:
    """Greedy exponent search output: one exponent and minimum per block;
    delta_star is the max of the block minima."""

    exponents: tuple[float, ...]
    subset_minima: tuple[float, ...]
    delta_star: float
    partition: Partition


def score_blocks(blocks: Iterable[Iterable[int]], polys: np.ndarray) -> ExponentResult:
    """Score blocks of sample indices and assemble the search output, blocks
    ordered by least index.

    A block's merged polynomial is the tropical sum of its members' rows of
    ``polys``, and ``min_poly`` gives its minimum and exponent.
    """
    scored = []
    for indices in sorted((sorted(block) for block in blocks), key=lambda block: block[0]):
        poly = PuiseuxPoly(polys[indices].reshape(-1, 2).tolist())
        scored.append(PartitionBlock(frozenset(indices), poly, min_poly(poly)))
    minima = tuple(b.minimum.mu for b in scored)
    exponents = tuple(b.minimum.representative() for b in scored)
    return ExponentResult(exponents, minima, max(minima), Partition(tuple(scored)))


#: Elements per temporary of one pair-kernel call: 256 KiB of float64, so the
#: few temporaries alive at once stay near 1 MiB and in cache.
_KERNEL_BLOCK = 1 << 15


def pair_minima(polys: np.ndarray) -> np.ndarray:
    """D[i, k]: the minimum of polys[i] + polys[k], for every pair of rows of
    an (M, K, 2) monomial array.

    The minimum of a tropical sum is the mu formula's max over monomial pairs
    of the sum, so with C[i, k] the max over (negative exponent of polys[i],
    positive exponent of polys[k]) and z_i polys[i]'s largest zero-exponent
    coefficient,

        D[i, k] = max(self_i, self_k, C[i, k], C[k, i]),  self_i = max(C[i, i], z_i),

    and D[i, i] = self_i.  Every positive side keeps all columns that are
    positive in some row, with exponent 1 and coefficient -inf (which adds
    only -inf values) where its own monomial is not positive.  C takes one
    kernel call per row against every positive side at once, split into
    blocks of rows whose temporaries stay near 1 MiB in all.
    """
    m = len(polys)
    exponents, coefficients = polys[..., 0], polys[..., 1]
    neg = exponents < -ZERO_EXPONENT_TOL
    pos = exponents > ZERO_EXPONENT_TOL
    zero = np.where(neg | pos, -np.inf, coefficients).max(axis=1)
    # Contiguous copies: the column selection leaves strided arrays, which
    # slow the kernel.
    cols = pos.any(axis=0)
    pos_p = np.ascontiguousarray(np.where(pos, exponents, 1.0)[:, cols])
    pos_t = np.ascontiguousarray(np.where(pos, coefficients, -np.inf)[:, cols])
    width = pos_p.shape[1]
    cross = np.empty((m, m))
    no_zero = np.empty(0)
    for i in range(m):
        neg_p, neg_t = exponents[i, neg[i]], coefficients[i, neg[i]]
        rows = max(1, _KERNEL_BLOCK // max(1, neg_p.size * width))
        for k in range(0, m, rows):
            cross[i, k : k + rows] = pairwise_minimum_value(
                neg_p, neg_t, pos_p[k : k + rows], pos_t[k : k + rows], no_zero
            )
    own = np.maximum(cross.diagonal(), zero)
    return np.maximum(np.maximum(cross, cross.T), np.maximum.outer(own, own))


def agglomerate(polys: np.ndarray, n: int) -> ExponentResult:
    """Greedy agglomerative minimization of delta(p) down to n groups, over
    the (M, K, 2) array of error polynomials ``error_polynomials`` returns.

    A group's merged minimum is the largest pair minimum ``pair_minima``
    over its pairs of samples, so the search is complete-linkage clustering
    on D and a merge updates scores by the Lance-Williams rule

        score(A + B, C) = max(score(A, B), score(A, C), score(B, C)).

    The cost per call is M^2/2 pair kernels of O(K^2) each for D, O(M^4)
    for K = M, plus O(M^2 log M) heap operations; ``score_blocks`` builds
    polynomials and runs ``min_poly`` only on the n final blocks.  Pair
    scores live in a lazy-deletion heap keyed by the quantized score and the
    deterministic tie-break key; entries whose clusters were already merged
    are skipped on pop.  Each block's exponent is the representative point
    of its minimizing interval.
    """
    m = len(polys)
    check_count(n, "group count", m)

    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    least = list(range(m))
    scores: list[dict[int, float]] = [{} for _ in range(m)]
    heap: list[tuple[int, tuple[int, int], int, int]] = []

    def push(sa: int, sb: int, score: float) -> None:
        if score == -math.inf:
            raise ValueError(
                "merged polynomial has an unattained minimum; every input "
                "needs a zero exponent or exponents of both signs"
            )
        scores[sa][sb] = scores[sb][sa] = score
        la, lb = least[sa], least[sb]
        tie = (la, lb) if la < lb else (lb, la)
        heapq.heappush(heap, (round(score / SCORE_QUANTUM), tie, sa, sb))

    for a, row in enumerate(pair_minima(polys).tolist()):
        for b in range(a + 1, m):
            push(a, b, row[b])

    while len(members) > n:
        while True:
            _, _, sa, sb = heapq.heappop(heap)
            if sa in members and sb in members:
                break
        snew = len(least)
        members[snew] = members.pop(sa) + members.pop(sb)
        least.append(min(least[sa], least[sb]))
        scores.append({})
        row_a, row_b = scores[sa], scores[sb]
        inner = row_a[sb]
        for sid in sorted(members):
            if sid != snew:
                push(sid, snew, max(inner, row_a[sid], row_b[sid]))

    return score_blocks(members.values(), polys)
