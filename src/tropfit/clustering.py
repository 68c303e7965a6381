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


class _Cluster:
    """Mutable working state: index set, merged polynomial, sign-split arrays."""

    __slots__ = ("indices", "least", "poly", "neg_p", "neg_t", "pos_p", "pos_t", "zer_t")

    def __init__(self, indices: frozenset[int], poly: PuiseuxPoly):
        self.indices = indices
        self.least = min(indices)
        self.poly = poly
        self.neg_p, self.neg_t, self.pos_p, self.pos_t, self.zer_t = _split_by_sign(
            np.array(poly.exponents), np.array(poly.coefficients)
        )


def _pair_score(a: _Cluster, b: _Cluster) -> float:
    # Scoring skips exponent dedup: a duplicated exponent contributes only
    # dominated terms to the pairwise max, so the value is unchanged.
    return pairwise_minimum_value(
        np.concatenate([a.neg_p, b.neg_p]),
        np.concatenate([a.neg_t, b.neg_t]),
        np.concatenate([a.pos_p, b.pos_p]),
        np.concatenate([a.pos_t, b.pos_t]),
        np.concatenate([a.zer_t, b.zer_t]),
    )


def agglomerate(polys: Sequence[PuiseuxPoly], n: int) -> ExponentResult:
    """Greedy agglomerative minimization of delta(p) down to n groups.

    Pair scores live in a lazy-deletion heap keyed by the quantized score and
    the deterministic tie-break key; entries whose clusters were already
    merged are skipped on pop.  After a merge only pairs involving the new
    cluster are scored.  Each block's exponent is the representative point of
    its minimizing interval.
    """
    m = len(polys)
    if not 1 <= n <= m:
        raise ValueError(f"group count must be in 1..{m}, got {n}")

    clusters: dict[int, _Cluster] = {}
    for i, poly in enumerate(polys):
        clusters[i] = _Cluster(frozenset([i]), poly)
    serial = m

    heap: list[tuple[int, tuple[int, int], int, int]] = []

    def push(sa: int, sb: int) -> None:
        ca, cb = clusters[sa], clusters[sb]
        score = _pair_score(ca, cb)
        if score == -math.inf:
            raise ValueError(
                "merged polynomial has an unattained minimum; every input "
                "needs a zero exponent or exponents of both signs"
            )
        tie = (min(ca.least, cb.least), max(ca.least, cb.least))
        heapq.heappush(heap, (round(score / SCORE_QUANTUM), tie, sa, sb))

    ids = sorted(clusters)
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            push(ids[ai], ids[bi])

    while len(clusters) > n:
        while True:
            _, _, sa, sb = heapq.heappop(heap)
            if sa in clusters and sb in clusters:
                break
        ca = clusters.pop(sa)
        cb = clusters.pop(sb)
        merged = _Cluster(ca.indices | cb.indices, poly_sum((ca.poly, cb.poly)))
        snew = serial
        serial += 1
        clusters[snew] = merged
        for sid in sorted(clusters):
            if sid != snew:
                push(sid, snew)

    return score_blocks((c.indices, c.poly) for c in clusters.values())
