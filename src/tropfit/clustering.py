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
pair minima (``pair_minima``).  Only the data's lower convex hull attains a
pair minimum, so each entry takes the mu kernel over a few hull monomials
rather than all O(M^2) monomial pairs, and none when those leave one side of
the formula empty: D costs O(M^2) kernel terms unless the hull has long
collinear runs, or a far outlier makes the kernel's rounding error wider
than the hull's turns.  The merges rank the quantized pair minima once into
an integer key matrix, name each group by its least sample, and keep one
heap entry per group: its least key and partner.  A merge costs O(M) array
work and a few heap operations.  The N final blocks are scored from D as
well: a block's minimum is the largest entry of D over its pairs, and its
interval of minimizers comes from its members' rows of E.  The search
builds no polynomial object.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .linalg import check_count
from .puiseux import ZERO_EXPONENT_TOL, PolyMinimum, minimum_at, pairwise_minimum_value
# perfbench/tracing.py finds min_poly here by name; its metrics need it bound.
from .puiseux import min_poly  # noqa: F401

#: Merged-minimum scores within this tolerance are tied; ties are broken by
#: the lexicographically smallest (min sample index, max sample index) of the
#: candidate pair, which makes runs reproducible across platforms.
SCORE_QUANTUM = 1e-12

#: Key of a pair that is not live in ``agglomerate``: above every rank.
_DEAD = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SampleSet:
    """Sample abscissae and ordinates; all coordinates finite."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

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
        object.__setattr__(self, "xs", tuple(xs.tolist()))
        object.__setattr__(self, "ys", tuple(ys.tolist()))

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
    exponents, whose smaller coefficients only add dominated terms to the
    closed forms.  E[i, i] = (0, 0), so E_i(p) >= 0 for all p.  Raises
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
    ``minima`` over the block's pairs of samples.  ``minimum_at`` gives the
    interval of minimizers from the members' rows, and the block's exponent
    is the interval's representative point: the same values as ``min_poly``
    on the merged polynomial, with no polynomial built.
    """
    scored = []
    for indices in sorted((sorted(block) for block in blocks), key=lambda block: block[0]):
        mu = float(minima[np.ix_(indices, indices)].max())
        rows = polys[indices]
        minimum = minimum_at(mu, rows[..., 0], rows[..., 1])
        scored.append(PartitionBlock(frozenset(indices), minimum))
    mus = tuple(b.minimum.mu for b in scored)
    exponents = tuple(b.minimum.representative() for b in scored)
    return ExponentResult(exponents, mus, max(mus), Partition(tuple(scored)))


#: Elements per temporary of one pair-kernel call: 256 KiB of float64, so the
#: few temporaries alive at once stay near 1 MiB and in cache.
_KERNEL_BLOCK = 1 << 15

#: A turn of the lower hull chain is strictly convex, or strictly concave,
#: only when its two cross-product terms differ by more than this share of
#: their magnitudes, and its middle point is off the line by more than this
#: share of the largest ordinate difference; turns in between keep the point
#: on the chain.
_TURN_TOL = 1e-12


def _check_polys(polys: np.ndarray) -> int:
    """M for an (M, M, 2) error-polynomial array with M >= 1 and (0, 0) on
    the diagonal, else ValueError."""
    shape = np.shape(polys)
    if len(shape) != 3 or shape[2] != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise ValueError(f"error polynomials must be an (M, M, 2) array, got shape {shape}")
    if np.diagonal(polys).any():
        raise ValueError("error polynomials must have E[i, i] = (0, 0)")
    return shape[0]


def _lower_chain(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower convex hull chain of the samples behind an error-polynomial
    array: sample indices by increasing abscissa, the lowest point per
    abscissa, which of them are strict vertices, and every sample's abscissa
    rank (the number of samples with a smaller abscissa).

    Each decision reads exact differences of the samples, never differences
    of differences: a float difference has the sign of the exact one, so
    the order and the lowest point per abscissa are exact, and each turn
    test takes both vectors from its first point's own row.  Only clearly
    concave turns drop a point, so collinear and near-collinear points stay
    on the chain; a strict vertex is an end or a clearly convex turn.  A
    turn test that overflows is decided in exact rational arithmetic, since
    a point kept for it could lie far off the hull and make its neighbours'
    turns look strict.  A turn is clear when its two
    cross-product terms differ by more than _TURN_TOL of their magnitudes
    and the middle point is off the line through its neighbours by more
    than _TURN_TOL of the largest ordinate difference: the kernel's rounding
    error grows with the coefficients, so with a far outlier every point
    within that band of the hull can attain a pair minimum.
    """
    x_rank = (polys[..., 0] < 0).sum(axis=1)
    y_rank = (polys[..., 1] > 0).sum(axis=1)
    band = _TURN_TOL * np.abs(polys[..., 1]).max()
    entry = polys.item

    def turn(a: int, b: int, c: int) -> int:
        # u - v is b's height above the line from a to c, times x_c - x_a
        bx, by, cx, cy = entry(a, b, 0), entry(a, b, 1), entry(a, c, 0), entry(a, c, 1)
        u, v = bx * cy, by * cx
        terms = abs(u - v), _TURN_TOL * (abs(u) + abs(v)), band * cx
        if not all(map(math.isfinite, terms)):
            # An overflow decides nothing; exact rationals do.
            bx, by, cx, cy, tol, width = map(Fraction, (bx, by, cx, cy, _TURN_TOL, band))
            u, v = bx * cy, by * cx
            terms = abs(u - v), tol * (abs(u) + abs(v)), width * cx
        diff, scale, height = terms
        if not diff > max(scale, height):
            return 0
        return 1 if u < v else -1

    order = np.lexsort((y_rank, x_rank))
    lowest = np.ones(len(order), dtype=bool)
    lowest[1:] = x_rank[order[1:]] != x_rank[order[:-1]]
    chain: list[int] = []
    for j in order[lowest].tolist():
        while len(chain) >= 2 and turn(chain[-2], chain[-1], j) < 0:
            chain.pop()
        chain.append(j)
    inner = [turn(*abc) > 0 for abc in zip(chain, chain[1:], chain[2:])]
    strict = np.array([True, *inner, True][: len(chain)])
    return np.array(chain), strict, x_rank


def _kernel_widths(
    width: np.ndarray, neg_count: np.ndarray, pos_count: np.ndarray, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel widths of the negative and positive sides of candidate
    windows.  A window at most 8 wide goes whole to both sides, which keeps
    ordinary data to a few kernel shapes.  A wider one gives each side only
    its own count (at least 1), rounded up to the next 2^k or 3 * 2^k, so
    that a long collinear hull run costs about a quarter of its square in
    few shapes."""
    if width.max() <= 8:
        return width, width
    b = max(top, 8).bit_length()
    sizes = np.array(sorted({*range(1, 9), *(2**k for k in range(3, b + 1)),
                             *(3 * 2**k for k in range(2, b))}))
    narrow = width <= 8

    def side(count: np.ndarray) -> np.ndarray:
        return np.where(narrow, width, sizes[np.searchsorted(sizes, np.maximum(count, 1))])

    return side(neg_count), side(pos_count)


def pair_minima(polys: np.ndarray) -> np.ndarray:
    """D[i, k]: the minimum of polys[i] + polys[k] for every pair of rows of
    the (M, M, 2) array ``error_polynomials`` returns.  Other arrays of that
    shape give undefined results: the hull is read from their entries as if
    E[i, j] = (x_j - x_i, y_i - y_j).

    The minimum of a tropical sum is the mu formula's max over monomial pairs
    of the sum, so with C[i, k] the max over (negative exponent of polys[i],
    positive exponent of polys[k]) and z_i polys[i]'s largest zero-exponent
    coefficient,

        D[i, k] = max(self_i, self_k, C[i, k], C[k, i]),  self_i = max(C[i, i], z_i),

    and D[i, i] = self_i.  Row i is E_i(p) = h(p) - (p x_i - y_i) with
    h(p) = max_j (p x_j - y_j), and only the points of the data's lower
    convex hull attain h.  So the mu terms that attain D come from few hull
    points: for x_i < x_k and p* = (y_k - y_i)/(x_k - x_i), D[i, k] is
    self_i, self_k, or E_i(p*) = E_k(p*), reached by the hull points on the
    supporting line of slope p*.  C[i, k] is therefore taken over the hull
    chain (``_lower_chain``) from the strict vertex before the chain slope
    that p* falls at to the one after it; C[i, i], and C[i, k] for equal
    abscissae, over the chain from the strict vertex before x_i to the one
    after.  Of that window, row i's negative side is the part left of x_i
    and row k's positive side the part right of x_k; when either is empty,
    C[i, k] = -inf with no kernel call (about half the ordered pairs on
    smooth data).  z_i takes the whole row.

    Every candidate term is one the full mu formula computes, from the same
    entries of ``polys`` by the same kernel, so D is never above the full
    formula and equals it whenever the attaining pair is a candidate.  The
    kernel runs on pairs grouped by the two sides' candidate counts
    (``_kernel_widths``), in blocks whose temporaries stay near 1 MiB, with
    -inf coefficients (and an exponent of the side's sign) where a candidate
    is not on its side.  The cost is O(M^2) kernel terms for data without
    long collinear runs on the hull; on a collinear hull, or beside a far
    outlier, every window is the whole chain, about M^4 / 4 terms before
    padding.
    """
    m = _check_polys(polys)
    exponents, coefficients = polys[..., 0], polys[..., 1]
    neg = exponents < -ZERO_EXPONENT_TOL
    pos = exponents > ZERO_EXPONENT_TOL
    zero = np.where(neg | pos, -np.inf, coefficients).max(axis=1)

    chain, strict, x_rank = _lower_chain(polys)
    h = len(chain)
    steps = np.arange(h)
    prev_strict = np.maximum.accumulate(np.where(strict, steps, 0))
    next_strict = np.minimum.accumulate(np.where(strict, steps, h - 1)[::-1])[::-1]

    def window(before: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return prev_strict[np.clip(before, 0, h - 1)], next_strict[np.clip(after, 0, h - 1)]

    # Chain positions of each abscissa: the first at or right of it, the first right of it.
    at = np.searchsorted(x_rank[chain], x_rank)
    past = np.searchsorted(x_rank[chain], x_rank, side="right")
    self_lo, self_hi = window(at - 1, at)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes = -coefficients[chain[:-1], chain[1:]] / exponents[chain[:-1], chain[1:]]
        cut = np.searchsorted(slopes, -coefficients / exponents)
    lo, hi = window(cut - 1, cut + 1)
    same = ~(neg | pos)
    lo = np.where(same, np.minimum.outer(self_lo, self_lo), lo)
    hi = np.where(same, np.maximum.outer(self_hi, self_hi), hi)
    # Row i's negative side lies left of x_i, row k's positive side right of x_k.
    neg_hi = np.minimum(hi, at[:, None] - 1).ravel()
    pos_lo = np.maximum(lo, past[None, :]).ravel()
    lo, hi = lo.ravel(), hi.ravel()
    neg_w, pos_w = _kernel_widths(hi - lo + 1, neg_hi - lo + 1, hi - pos_lo + 1, h)

    # The two sides over the chain's columns, padded where off their sign.
    neg_c, pos_c = neg[:, chain], pos[:, chain]
    exp_c, coef_c = exponents[:, chain], coefficients[:, chain]
    neg_p, neg_t = np.where(neg_c, exp_c, -1.0), np.where(neg_c, coef_c, -np.inf)
    pos_p, pos_t = np.where(pos_c, exp_c, 1.0), np.where(pos_c, coef_c, -np.inf)

    # A pair with no candidate on one side has no candidate term: C = -inf.
    live = np.flatnonzero((neg_hi >= lo) & (pos_lo <= hi))
    cross = np.full(m * m, -np.inf)
    no_zero = np.empty(0)
    shape = neg_w * (int(pos_w.max()) + 1) + pos_w
    order = live[np.argsort(shape[live], kind="stable")]
    groups = np.split(order, np.flatnonzero(np.diff(shape[order])) + 1) if order.size else []
    for group in groups:
        wn, wp = int(neg_w[group[0]]), int(pos_w[group[0]])
        block = max(1, _KERNEL_BLOCK // (wn * wp))
        for start in range(0, len(group), block):
            pairs = group[start : start + block]
            i, k = np.divmod(pairs, m)
            i, k = i[:, None], k[:, None]
            # Columns beyond a side's window are still its terms, or padding.
            ncols = np.maximum(neg_hi[pairs, None] - wn + 1 + np.arange(wn), 0)
            pcols = np.minimum(pos_lo[pairs, None] + np.arange(wp), h - 1)
            cross[pairs] = pairwise_minimum_value(
                neg_p[i, ncols], neg_t[i, ncols], pos_p[k, pcols], pos_t[k, pcols], no_zero
            )
    cross = cross.reshape(m, m)
    own = np.maximum(cross.diagonal(), zero)
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
    SCORE_QUANTUM (+inf beyond the float range), ties going to the least
    (least sample of one group, least sample of the other).  The quantized
    scores are ranked once, which keeps their order and ties, and the ranks
    live in the upper triangle of an M x M integer key matrix; every other
    entry is _DEAD, above every rank.  A group is named by its least sample,
    so the tie-break is the row-major order of the upper triangle.  The
    heap holds one entry per row, (least key, row, partner), the partner
    being the first column holding that key; an entry whose row has since
    changed its partner or its key there is skipped on pop.  Merging a < b
    writes the rule's row into row and column a, kills row and column b,
    and re-pushes row a and every row whose partner was a or b: keys only
    grow, so no other row's entry changes.

    The cost per call is D, O(M^2) kernel terms on data without long
    collinear runs on its lower hull, plus O(M) array work and a few heap
    operations per merge.  ``score_blocks`` then reads the n final blocks'
    minima from the same D and their minimizing intervals from their rows
    of ``polys``; each block's exponent is its interval's representative
    point.
    """
    m = _check_polys(polys)
    check_count(n, "group count", m)

    with np.errstate(over="ignore"):
        minima = pair_minima(polys)
        quantized = np.rint(minima / SCORE_QUANTUM)
    # The inverse's shape differs between numpy versions.
    rank = np.unique(quantized, return_inverse=True)[1].reshape(m, m)
    upper = np.arange(m)[:, None] < np.arange(m)
    keys = np.full((m, m), _DEAD, dtype=np.int64)
    keys[upper] = rank[upper]

    members = {i: [i] for i in range(m)}
    partner = np.full(m, -1)
    heap: list[tuple[int, int, int]] = []

    def push(rows: np.ndarray) -> None:
        cols = keys[rows].argmin(axis=1)
        least = keys[rows, cols]
        partner[rows] = np.where(least == _DEAD, -1, cols)
        for entry in zip(least.tolist(), rows.tolist(), cols.tolist()):
            if entry[0] != _DEAD:
                heapq.heappush(heap, entry)

    push(np.arange(m))
    while len(members) > n:
        inner, a, b = heapq.heappop(heap)
        while partner[a] != b or keys[a, b] != inner:
            inner, a, b = heapq.heappop(heap)
        members[a] += members.pop(b)
        # key(a, c) and key(b, c) for every c, from whichever triangle holds them
        row = np.maximum(np.minimum(keys[a], keys[:, a]), np.minimum(keys[b], keys[:, b]))
        np.maximum(row, inner, out=row)
        keys[a, a + 1 :] = row[a + 1 :]
        keys[:a, a] = row[:a]
        keys[b] = keys[:, b] = _DEAD
        partner[b] = -1
        stale = (partner == a) | (partner == b)
        stale[a] = True
        push(stale.nonzero()[0])

    return score_blocks(members.values(), polys, minima)
