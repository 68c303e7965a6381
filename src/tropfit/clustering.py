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

The merged minimum is a max over monomial pairs, and each pair comes from at
most two members, so a group's score is the largest merged minimum over its
pairs of samples.  The search is therefore complete-linkage clustering on the
M x M matrix of pair minima (``pair_minima``): one fit costs M^2/2 pair
kernels plus O(M^2) float maxima, and merged polynomials are built only for
the N final blocks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .puiseux import (
    PolyMinimum,
    PuiseuxPoly,
    _split_by_sign,
    min_poly,
    pairwise_minimum_value,
    poly_sum,
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


def error_polynomials(samples: SampleSet) -> tuple[PuiseuxPoly, ...]:
    """One polynomial per sample: E_i has monomials (x_j - x_i, y_i - y_j).

    Duplicate abscissae produce duplicate exponents which the canonical form
    merges by coefficient max.  Every E_i carries the monomial (0, 0) from
    j = i, so E_i(p) >= 0 for all p.
    """
    xs, ys = samples.xs, samples.ys
    m = len(samples)
    return tuple(
        PuiseuxPoly((xs[j] - xs[i], ys[i] - ys[j]) for j in range(m))
        for i in range(m)
    )


def merged_minimum(subset: Iterable[int], polys: Sequence[PuiseuxPoly]) -> PolyMinimum:
    """Minimum of the tropical sum of the subset's polynomials.

    Always attained: the zero-exponent monomial present in every member keeps
    the merged polynomial mixed-sign (or constant).
    """
    indices = sorted(set(subset))
    if not indices:
        raise ValueError("subset must be nonempty")
    return min_poly(poly_sum(polys[i] for i in indices))


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


def score_blocks(blocks: Iterable[tuple[Iterable[int], PuiseuxPoly]]) -> ExponentResult:
    """Score (indices, merged polynomial) blocks with ``min_poly`` and
    assemble the search output, blocks ordered by least index."""
    scored = [
        PartitionBlock(frozenset(indices), poly, min_poly(poly))
        for indices, poly in sorted(blocks, key=lambda block: min(block[0]))
    ]
    minima = tuple(b.minimum.mu for b in scored)
    exponents = tuple(b.minimum.representative() for b in scored)
    return ExponentResult(exponents, minima, max(minima), Partition(tuple(scored)))


#: Elements per temporary of one pair-kernel call: 256 KiB of float64, so the
#: few temporaries alive at once stay near 1 MiB and in cache.
_KERNEL_BLOCK = 1 << 15


def pair_minima(polys: Sequence[PuiseuxPoly]) -> np.ndarray:
    """D[i, k]: the minimum of polys[i] + polys[k], for every pair of indices.

    The minimum of a tropical sum is the mu formula's max over monomial pairs
    of the sum, so with C[i, k] the max over (negative exponent of polys[i],
    positive exponent of polys[k]) and z_i polys[i]'s zero-exponent
    coefficient,

        D[i, k] = max(self_i, self_k, C[i, k], C[k, i]),  self_i = max(C[i, i], z_i),

    and D[i, i] = self_i.  C takes one kernel call per row against every
    positive side at once (padded with -inf coefficients), split into blocks
    of rows whose temporaries stay near 1 MiB in all.
    """
    m = len(polys)
    splits = [_split_by_sign(np.array(p.exponents), np.array(p.coefficients)) for p in polys]
    width = max(pos_p.size for _, _, pos_p, _, _ in splits)
    pos_p = np.ones((m, width))
    pos_t = np.full((m, width), -np.inf)
    zero = np.full(m, -np.inf)
    for i, (_, _, ps, ts, zs) in enumerate(splits):
        pos_p[i, : ps.size] = ps
        pos_t[i, : ts.size] = ts
        if zs.size:
            zero[i] = zs.max()
    cross = np.empty((m, m))
    no_zero = np.empty(0)
    for i, (neg_p, neg_t, _, _, _) in enumerate(splits):
        rows = max(1, _KERNEL_BLOCK // max(1, neg_p.size * width))
        for k in range(0, m, rows):
            cross[i, k : k + rows] = pairwise_minimum_value(
                neg_p, neg_t, pos_p[k : k + rows], pos_t[k : k + rows], no_zero
            )
    own = np.maximum(cross.diagonal(), zero)
    return np.maximum(np.maximum(cross, cross.T), np.maximum.outer(own, own))


def agglomerate(polys: Sequence[PuiseuxPoly], n: int) -> ExponentResult:
    """Greedy agglomerative minimization of delta(p) down to n groups.

    A group's merged minimum is the largest pair minimum ``pair_minima``
    over its pairs of samples, so the search is complete-linkage clustering
    on D and a merge updates scores by the Lance-Williams rule

        score(A + B, C) = max(score(A, B), score(A, C), score(B, C)).

    The cost per call is M^2/2 pair kernels for D plus O(M^2) float maxima;
    ``poly_sum`` and ``min_poly`` run only on the n final blocks.  Pair
    scores live in a lazy-deletion heap keyed by the quantized score and the
    deterministic tie-break key; entries whose clusters were already merged
    are skipped on pop.  Each block's exponent is the representative point
    of its minimizing interval.
    """
    m = len(polys)
    if not 1 <= n <= m:
        raise ValueError(f"group count must be in 1..{m}, got {n}")

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

    return score_blocks(
        (indices, poly_sum(polys[i] for i in sorted(indices))) for indices in members.values()
    )
