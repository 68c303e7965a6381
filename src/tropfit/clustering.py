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
heuristic, not a guaranteed optimum; the test suite bounds it on small
instances by an exhaustive search over partitions.

All M error polynomials together are one (M, M, 2) float array E with
E[i, j] = (x_j - x_i, y_i - y_j) (``error_polynomials``).  The merged minimum
is a max over monomial pairs, and each pair comes from at most two members,
so a group's score is the largest merged minimum over its pairs of samples.
The search is therefore complete-linkage clustering on the M x M matrix of
pair minima (``pair_minima``).  Only the data's lower convex hull attains a
pair minimum, so each entry is one term of the mu formula, at the hull
vertex that supports the pair's chord, rather than the max over all O(M^2)
monomial pairs: D costs O(M^2) array work on any data.  The merges key each
pair by its quantized pair minimum, name each group by its least sample,
and keep one heap entry per group: its least key and partner.  A merge
costs O(M) array work and a few heap operations.  The N final blocks are
scored from D as well, all in one pass: a block's minimum is the largest
entry of D over its pairs, and its interval of minimizers comes from its
members' rows of E.  The search builds no polynomial object.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from .linalg import check_count
from .puiseux import PolyMinimum, minimum_at, mu_term, sign_masks
# perfbench/tracing.py finds min_poly and pairwise_minimum_value here by
# name; its metrics need them bound.
from .puiseux import min_poly, pairwise_minimum_value  # noqa: F401

#: Merged-minimum scores within this tolerance are tied; ties are broken by
#: the lexicographically smallest (min sample index, max sample index) of the
#: candidate pair, which makes runs reproducible across platforms.
SCORE_QUANTUM = 1e-12

#: Key of a pair that is not live in ``agglomerate``, and the cap of a live
#: key, which keeps a quantized score that overflows below the dead key.
_DEAD = np.inf
_LIVE_MAX = np.finfo(float).max


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sample abscissae and ordinates, all finite, as read-only float64
    arrays: the set's own copy of the caller's values, validated once, which
    the fit path reads without copying."""

    xs: np.ndarray
    ys: np.ndarray

    def __init__(self, xs: Iterable[float], ys: Iterable[float]):
        xs, ys = (np.array(v if isinstance(v, np.ndarray) else [*v], dtype=float) for v in (xs, ys))
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be sequences of numbers")
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if not len(xs):
            raise ValueError("at least one sample required")
        both = np.concatenate((xs, ys))
        finite = np.isfinite(both)
        if not finite.all():
            bad = both[finite.argmin()].item()
            raise ValueError(f"sample coordinates must be finite, got {bad!r}")
        for name, values in (("xs", xs), ("ys", ys)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @classmethod
    def _of_arrays(cls, xs: np.ndarray, ys: np.ndarray) -> "SampleSet":
        """A set over float64 arrays the program made and nothing writes,
        such as a half-step's target: no copy and no check.  ``ys`` is made
        read-only; ``error_polynomials`` still rejects a non-finite entry,
        whose differences are not finite."""
        samples = object.__new__(cls)
        ys.flags.writeable = False
        object.__setattr__(samples, "xs", xs)
        object.__setattr__(samples, "ys", ys)
        return samples

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "SampleSet":
        pts = list(points)
        return cls((x for x, _ in pts), (y for _, y in pts))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.tolist(), self.ys.tolist()))

    def __len__(self) -> int:
        return len(self.xs)


def error_polynomials(samples: SampleSet) -> np.ndarray:
    """All per-sample error polynomials as one (M, M, 2) float array E.

    Row i holds E_i's monomials E[i, j] = (x_j - x_i, y_i - y_j), one per
    sample j and not deduplicated: duplicate abscissae give repeated
    exponents, whose smaller coefficients only add dominated terms to the
    closed forms.  E[i, i] = (0, 0), so E_i(p) >= 0 for all p.  Raises
    ValueError when a difference overflows the float range.
    """
    xs, ys = samples.xs, samples.ys
    with np.errstate(over="ignore"):
        polys = np.stack((xs[None, :] - xs[:, None], ys[:, None] - ys[None, :]), axis=-1)
    if not np.isfinite(polys).all():
        raise ValueError("sample coordinate differences must be finite")
    return polys


@dataclass(frozen=True)
class PartitionBlock:
    """One group of sample indices with the minimum of its merged polynomial."""

    indices: frozenset[int]
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


def score_blocks(
    blocks: Iterable[Iterable[int]], polys: np.ndarray, minima: np.ndarray
) -> ExponentResult:
    """Score blocks of sample indices and assemble the search output, blocks
    ordered by least index.

    A block's merged polynomial is the tropical sum of its members' rows of
    ``polys``, and its minimum is the largest of the ``pair_minima`` matrix
    ``minima`` over the block's pairs of samples: one pass masks D to the
    pairs within a block and takes each block's largest entry.
    ``minimum_at`` gives every block's interval of minimizers from its
    members' rows in one pass, and the block's exponent is the interval's
    representative point: the same values as ``min_poly`` on the merged
    polynomial, with no polynomial built.
    """
    blocks = sorted((sorted(block) for block in blocks), key=lambda block: block[0])
    sizes = [len(block) for block in blocks]
    starts = [0, *accumulate(sizes[:-1])]
    order = np.concatenate(blocks)
    label = np.full(len(minima), -1)
    label[order] = np.repeat(np.arange(len(blocks)), sizes)
    row_max = np.where(label[:, None] == label, minima, -np.inf).max(axis=1)
    rows = polys[order]
    found = minimum_at(
        np.maximum.reduceat(row_max[order], starts), rows[..., 0], rows[..., 1], starts
    )
    scored = tuple(PartitionBlock(frozenset(b), minimum) for b, minimum in zip(blocks, found))
    mus = tuple(minimum.mu for minimum in found)
    exponents = tuple(minimum.representative() for minimum in found)
    return ExponentResult(exponents, mus, max(mus), Partition(scored))


def _check_polys(polys: np.ndarray) -> int:
    """M for an (M, M, 2) error-polynomial array with M >= 1 and (0, 0) on
    the diagonal, else ValueError."""
    shape = np.shape(polys)
    if len(shape) != 3 or shape[2] != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise ValueError(f"error polynomials must be an (M, M, 2) array, got shape {shape}")
    if np.diagonal(polys).any():
        raise ValueError("error polynomials must have E[i, i] = (0, 0)")
    return shape[0]


def _lower_chain(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the samples behind an
    error-polynomial array, sample indices by increasing abscissa, and every
    sample's abscissa rank (the number of samples with a smaller abscissa).

    Each decision reads exact differences of the samples, never differences
    of differences: a float difference has the sign of the exact one, so
    the order and the lowest point per abscissa are exact.  Each turn test
    takes both vectors from its first point's own row and decides the sign
    of their cross product exactly.  The two float products are each within
    2^-53 of their size of the exact ones (2^-1075 below the normal range),
    and their float difference has the sign of theirs, so a difference
    beyond 2^-50 of the products' sizes plus 2^-1000 has the exact sign;
    any other turn, an overflowing one included, is decided by exact
    integer products of the four floats' integer ratios.  Only strictly
    convex turns stay, so no collinear point and no point above the hull is
    a vertex, however far off the other samples lie.
    """
    x_rank = (polys[..., 0] < 0).sum(axis=1)
    y_rank = (polys[..., 1] > 0).sum(axis=1)
    entry = polys.item

    def convex(a: int, b: int, c: int) -> bool:
        # b lies strictly below the line from a to c
        bx, by, cx, cy = entry(a, b, 0), entry(a, b, 1), entry(a, c, 0), entry(a, c, 1)
        u, v = by * cx, bx * cy
        if abs(u - v) > 2.0**-50 * (abs(u) + abs(v)) + 2.0**-1000:  # False on inf or nan
            return u > v
        # each float is n / d with d > 0, so by cx > bx cy in integers
        (n1, d1), (n2, d2), (n3, d3), (n4, d4) = map(float.as_integer_ratio, (by, cx, bx, cy))
        return n1 * n2 * d3 * d4 > n3 * n4 * d1 * d2

    order = np.lexsort((y_rank, x_rank))
    lowest = np.ones(len(order), dtype=bool)
    lowest[1:] = x_rank[order[1:]] != x_rank[order[:-1]]
    chain: list[int] = []
    for j in order[lowest].tolist():
        while len(chain) >= 2 and not convex(chain[-2], chain[-1], j):
            chain.pop()
        chain.append(j)
    return np.array(chain), x_rank


def pair_minima(polys: np.ndarray) -> np.ndarray:
    """D[i, k]: the minimum of polys[i] + polys[k] for every pair of rows of
    the (M, M, 2) array ``error_polynomials`` returns.  Other arrays of that
    shape give undefined results: the hull is read from their entries as if
    E[i, j] = (x_j - x_i, y_i - y_j).

    The minimum of a tropical sum is the mu formula's max over monomial pairs
    of the sum.  Row i is E_i(p) = h(p) - (p x_i - y_i) with
    h(p) = max_j (p x_j - y_j), and only the vertices of the data's lower
    convex hull (``_lower_chain``) attain h, so one mu term per entry
    attains it.  With T(n, p) = ``puiseux.mu_term`` of a negative monomial n
    and a positive one p, and z_i row i's largest zero-exponent coefficient:

    * self_i, the minimum of E_i, is z_i when x_i is a vertex's abscissa,
      and else max(z_i, T(row i at v', row i at v)) for the hull edge from
      v' to v over x_i;
    * for x_i < x_k the pair's minimum is self_i, self_k, or
      E_i(p*) = E_k(p*) at the chord slope p* = (y_k - y_i)/(x_k - x_i),
      which is C[i, k] = T(row k at v, row i at v) for the vertex v whose
      edges' slopes enclose p*, taken when ``puiseux.sign_masks`` finds
      x_v - x_k negative and x_v - x_i positive, and -inf otherwise;
    * D = max(C, C^T, outer max of self), so D[i, i] = self_i, and pairs of
      equal abscissae take the larger self.

    Every value is a term of the full mu formula, from the same entries of
    ``polys`` and the same ``mu_term`` as ``puiseux.pairwise_minimum_value``
    (``min_poly``), so D is never above the full formula and equals it
    unless several vertices tie on a supporting line and rounding favours
    another.  The cost is O(M^2) array work plus the hull's O(M) turn tests,
    on any data.
    """
    _check_polys(polys)
    return _pair_minima(polys)


def _pair_minima(polys: np.ndarray) -> np.ndarray:
    """``pair_minima`` of an array that ``_check_polys`` has accepted."""
    m = len(polys)
    exponents, coefficients = polys[..., 0], polys[..., 1]
    zero = np.where(np.logical_or(*sign_masks(exponents)), -np.inf, coefficients).max(axis=1)

    def term(neg: tuple, pos: tuple) -> np.ndarray:
        # T(polys[neg], polys[pos]), -inf where either monomial is off its
        # sign; testing the gathered exponents beats gathering whole masks
        p_n, p_p = exponents[neg], exponents[pos]
        value = mu_term(p_n, coefficients[neg], p_p, coefficients[pos])
        return np.where(sign_masks(p_n)[0] & sign_masks(p_p)[1], value, -np.inf)

    chain, x_rank = _lower_chain(polys)
    rows = np.arange(m)
    at = np.searchsorted(x_rank[chain], x_rank)  # first vertex at or right of x_i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        own = np.maximum(zero, term((rows, chain[np.maximum(at - 1, 0)]), (rows, chain[at])))
        slopes = -coefficients[chain[:-1], chain[1:]] / exponents[chain[:-1], chain[1:]]
        support = chain[np.searchsorted(slopes, -coefficients / exponents)]
        cross = term((rows[None, :], support), (rows[:, None], support))
    return np.maximum(np.maximum(cross, cross.T), np.maximum.outer(own, own))


def agglomerate(polys: np.ndarray, n: int) -> ExponentResult:
    """Greedy agglomerative minimization of delta(p) down to n groups, over
    the (M, M, 2) array of error polynomials ``error_polynomials`` returns.
    Arrays of another shape, or without (0, 0) on the diagonal, raise
    ValueError; other arrays give undefined results (see ``pair_minima``).

    A group's merged minimum is the largest pair minimum ``pair_minima``
    over its pairs of samples, so the search is complete-linkage clustering
    on D and a merge updates scores by the Lance-Williams rule

        score(A + B, C) = max(score(A, B), score(A, C), score(B, C)).

    Each merge takes the pair with the least score quantized to
    SCORE_QUANTUM, ties going to the least (least sample of one group,
    least sample of the other).  The quantized scores are the keys, capped
    at the largest float: a score whose quantization overflows (D above
    about 1.8e296) keys at the cap, so all of them tie, and the cap keeps
    them below _DEAD.  The keys live in the upper triangle of an M x M
    float matrix; every other entry is _DEAD (+inf).  A group is named by
    its least sample, so the tie-break is the row-major order of the upper
    triangle.  The heap holds one entry per row, (least key, row,
    partner), the partner being the first column holding that key; an
    entry whose row has since changed its partner or its key there is
    skipped on pop.  Merging a < b writes the rule's row into row and
    column a, kills row and column b, and re-pushes, in ascending order,
    row a and every row whose partner was a or b, which an index from each
    partner to the rows naming it finds without a scan: keys only grow, so
    no other row's entry changes.  The rule needs no max with score(A, B):
    that is the least live key, so no live score(A, C) or score(B, C) is
    below it.

    The cost per call is D, O(M^2) array work, plus O(M) array work and a
    few heap operations per merge.  ``score_blocks`` then reads the n final
    blocks' minima from the same D and their minimizing intervals from their
    rows of ``polys``; each block's exponent is its interval's
    representative point.
    """
    m = _check_polys(polys)
    check_count(n, "group count", m)

    with np.errstate(over="ignore"):
        minima = _pair_minima(polys)
        keys = np.minimum(np.rint(minima / SCORE_QUANTUM), _LIVE_MAX)
    keys[np.arange(m)[:, None] >= np.arange(m)] = _DEAD

    members = {i: [i] for i in range(m)}
    partner: list[int | None] = [None] * m
    named: list[set[int]] = [set() for _ in range(m)]  # rows whose entry names a column
    heap: list[tuple[float, int, int]] = []

    def push(rows: list[int]) -> None:
        cols = keys[rows].argmin(axis=1)
        for entry in zip(keys[rows, cols].tolist(), rows, cols.tolist()):
            key, row, col = entry
            if key == _DEAD:
                partner[row] = None
            else:
                partner[row] = col
                named[col].add(row)
                heapq.heappush(heap, entry)

    push(list(range(m)))
    while len(members) > n:
        inner, a, b = heapq.heappop(heap)
        while partner[a] != b or keys[a, b] != inner:
            inner, a, b = heapq.heappop(heap)
        members[a] += members.pop(b)
        # key(a, c) and key(b, c) for every c, from whichever triangle holds them
        row = np.maximum(np.minimum(keys[a], keys[:, a]), np.minimum(keys[b], keys[:, b]))
        keys[a, a + 1 :] = row[a + 1 :]
        keys[:a, a] = row[:a]
        keys[b] = keys[:, b] = _DEAD
        if partner[b] is not None:
            named[partner[b]].discard(b)
            partner[b] = None
        stale = sorted(named[a] | named[b])  # a among them: its entry named b
        named[a].clear()
        named[b].clear()
        push(stale)

    return score_blocks(members.values(), polys, minima)
