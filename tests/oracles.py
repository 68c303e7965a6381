"""Independent oracles and random-instance generators used across the suite.

These deliberately avoid the library's solver code paths: grid searches and
exhaustive enumerations check the closed forms, and pure-Python loops over
floats (``matvec``, ``chebyshev``, ``monomial_matrix``, ``poly_value``)
check the numpy kernels.  Vectors and matrices are float arrays or nested lists with -inf as
the tropical zero, as in the library.  The exponent search's references work
on ``PuiseuxPoly`` objects where the library works on one float array: one
polynomial per sample (``sample_polynomials``), tropical sums by
concatenation (``poly_sum``) and subset minima by ``min_poly`` of the sum
(``merged_minimum``).  ``agglomerate_by_merging`` is the exponent search
written from its definition: it shares the mu formula
(``pairwise_minimum_value``), the quantized scores and the tie-break with
``agglomerate`` but keeps a heap of every live pair and rebuilds and
rescores merged polynomials after every merge, so the complete-linkage
updates on ranked pair minima must make its partitions.
``pair_minima_kernel`` builds the pair minima with a ``mu_term`` for every
monomial pair: the closed form of ``clustering.pair_minima`` takes one of
those terms per entry, so it is never above it.  These float references
split signs with the library's ``sign_masks``.  ``pair_minima_exact`` is
the same formula in exact rationals from the raw coordinates, and
``lower_hull_exact`` the exact hull whose coefficients scale the rounding
bound that the closed form and the kernel are held to.
``lower_chain_fractions`` is the hull chain over the library's float
differences with every turn in ``Fraction``s.
``canonical_monomials`` is the dict merge that ``PuiseuxPoly`` replaced
with array operations.  ``brute_force_poly_fit`` scores every partition of
the samples into n blocks, the exhaustive bound on the greedy search.
"""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from tropfit import PuiseuxPoly, SampleSet, error_polynomials, min_poly
from tropfit.clustering import (
    SCORE_QUANTUM,
    ExponentResult,
    Partition,
    PartitionBlock,
    pair_minima,
    score_blocks,
)
from tropfit.fitting import _poly_fit
from tropfit.linalg import check_count
from tropfit.puiseux import ZERO_EXPONENT_TOL, mu_term, pairwise_minimum_value, sign_masks


def grid_min(monomials, lo=-20.0, hi=20.0, step=1e-3):
    """Brute-force minimum of max_j(p_j x + t_j) on a uniform grid.

    Returns (min value, argmin).
    """
    grid = np.arange(lo, hi + step / 2, step)
    envelope = np.max([p * grid + t for p, t in monomials], axis=0)
    i = int(envelope.argmin())
    return float(envelope[i]), float(grid[i])


def poly_value(monomials, x):
    """max_j (p_j * x + theta_j) by a loop over floats: the first largest
    term, in the monomials' order."""
    return max(p * x + t for p, t in monomials)


def chebyshev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def matvec(a, x):
    """Max-plus product max_j (a_ij + x_j) by a double loop over floats."""
    x = np.asarray(x, dtype=float).tolist()
    out = []
    for row in np.asarray(a, dtype=float).tolist():
        acc = -math.inf
        for aij, xj in zip(row, x):
            acc = max(acc, aij + xj)
        out.append(acc)
    return out


def monomial_matrix(xs, exponents):
    """Monomial-value matrix with entries p_j * x_i."""
    return [[p * x for p in exponents] for x in xs]


def assignments(m, n):
    """All maps {0..m-1} -> {0..n-1}; the labeled partitions (empty parts
    allowed) over which the max/min distributivity identity ranges."""
    return itertools.product(range(n), repeat=m)


def random_finite_vector(rng, n, low=-10.0, high=10.0):
    return rng.uniform(low, high, size=n)


def random_finite_matrix(rng, m, n, low=-10.0, high=10.0):
    return rng.uniform(low, high, size=(m, n))


def random_regular_matrix(rng, m, n, low=-10.0, high=10.0, zero_frac=0.4):
    """Matrix with about ``zero_frac`` of its entries -inf (the tropical
    zero), redrawn until no row or column is all -inf."""
    while True:
        values = rng.uniform(low, high, size=(m, n))
        a = np.where(rng.random((m, n)) < zero_frac, -math.inf, values)
        finite = a > -math.inf
        if finite.any(axis=1).all() and finite.any(axis=0).all():
            return a


def random_sampleset(rng, m, spread=5.0):
    xs = np.sort(rng.uniform(-spread, spread, size=m))
    # keep abscissae separated so exponent differences are well-scaled
    xs = xs + np.arange(m) * 0.05
    ys = rng.uniform(-spread, spread, size=m)
    return SampleSet(xs.tolist(), ys.tolist())


def convex_sampleset(rng, m, n):
    """Samples lying exactly on an n-monomial max-plus polynomial, with every
    monomial strictly active somewhere.

    Built from tangents of a strictly convex parabola: the tangent at t_j has
    slope 2 t_j and is the unique maximizer at x = t_j.
    """
    ts = np.sort(rng.uniform(-3.0, 3.0, size=n))
    while np.min(np.diff(ts)) < 0.3 if n > 1 else False:
        ts = np.sort(rng.uniform(-3.0, 3.0, size=n))
    slopes = 2.0 * ts
    intercepts = ts * ts - slopes * ts  # tangent of x^2 at t_j

    xs = list(ts)  # one point of strict activity per monomial
    extra = rng.uniform(ts.min() - 1.0, ts.max() + 1.0, size=max(0, m - n))
    xs.extend(extra.tolist())
    xs = sorted(xs)

    def envelope(x):
        return max(p * x + t for p, t in zip(slopes, intercepts))

    ys = [envelope(x) for x in xs]
    monomials = list(zip(slopes.tolist(), intercepts.tolist()))
    return SampleSet(xs, ys), monomials


def sample_polynomials(samples):
    """One ``PuiseuxPoly`` per sample: E_i has monomials (x_j - x_i, y_i - y_j)."""
    xs, ys = samples.xs, samples.ys
    return tuple(
        PuiseuxPoly((xj - xi, yi - yj) for xj, yj in zip(xs, ys))
        for xi, yi in zip(xs, ys)
    )


def poly_sum(polys):
    """Tropical sum (pointwise max) of polynomials: concatenate and merge."""
    return PuiseuxPoly([mon for poly in polys for mon in poly.monomials])


def canonical_monomials(monomials):
    """``PuiseuxPoly``'s canonical form built with a dict: the first-seen
    exponent of each value (0.0 or -0.0), its first-seen max coefficient,
    sorted by exponent."""
    merged = {}
    for p, t in monomials:
        p, t = float(p), float(t)
        if p not in merged or t > merged[p]:
            merged[p] = t
    return tuple(sorted(merged.items()))


def merged_minimum(subset, polys):
    """``min_poly`` of the tropical sum of the subset's polynomials."""
    indices = sorted(set(subset))
    if not indices:
        raise ValueError("subset must be nonempty")
    return min_poly(poly_sum(polys[i] for i in indices))


def pair_minima_kernel(polys):
    """Reference for ``clustering.pair_minima``: the same formula
    D[i, k] = max(self_i, self_k, C[i, k], C[k, i]) with C[i, k] the largest
    ``mu_term`` over every negative monomial of row i and positive monomial
    of row k, O(M^4) in all.  Row i's monomials meet every row's in one
    broadcast ``mu_term``, and the pairs that are not negative-positive are
    masked to -inf."""
    m = len(polys)
    exponents, coefficients = polys[..., 0], polys[..., 1]
    negative, positive = sign_masks(exponents)
    zero = np.where(negative | positive, -np.inf, coefficients).max(axis=1)
    cross = np.empty((m, m))
    for i in range(m):
        # axes (k, monomial of row i, monomial of row k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = mu_term(exponents[i, :, None], coefficients[i, :, None],
                            exponents[:, None, :], coefficients[:, None, :])
        paired = negative[i, :, None] & positive[:, None, :]
        cross[i] = np.where(paired, terms, -np.inf).max(axis=(1, 2))
    own = np.maximum(cross.diagonal(), zero)
    return np.maximum(np.maximum(cross, cross.T), np.maximum.outer(own, own))


def pair_minima_exact(samples):
    """Reference for ``clustering.pair_minima`` in exact rationals: D[i][k]
    as a ``Fraction``, the mu formula over every monomial pair of E_i + E_k
    built from the raw coordinates.  Exponents within ZERO_EXPONENT_TOL of
    0 are the zero side, as in the library.  O(M^4) rational operations, so
    M <= 8."""
    m = len(samples)
    if m > 8:
        raise ValueError(f"exact pair minima are for M <= 8, got {m}")
    points = [(Fraction(x), Fraction(y)) for x, y in samples.points]
    rows = [[(xj - xi, yi - yj) for xj, yj in points] for xi, yi in points]
    tol = Fraction(ZERO_EXPONENT_TOL)
    d = [[None] * m for _ in range(m)]
    for i, k in itertools.combinations_with_replacement(range(m), 2):
        monomials = rows[i] + rows[k]
        neg = [(p, t) for p, t in monomials if p < -tol]
        pos = [(p, t) for p, t in monomials if p > tol]
        terms = [t for p, t in monomials if abs(p) <= tol]
        terms += [tn * (-pp / (pn - pp)) + tp * (pn / (pn - pp))
                  for pn, tn in neg for pp, tp in pos]
        d[i][k] = d[k][i] = max(terms)
    return d


def lower_hull_exact(samples):
    """Indices of the vertices of the samples' lower convex hull, by
    increasing abscissa: a monotone chain in exact rationals that keeps
    only strictly convex turns."""
    points = [(Fraction(x), Fraction(y)) for x, y in samples.points]
    chain = []
    for j in sorted(range(len(points)), key=points.__getitem__):
        xj, yj = points[j]
        if chain and points[chain[-1]][0] == xj:
            continue  # the lowest point of an abscissa comes first
        while len(chain) >= 2:
            (xa, ya), (xb, yb) = points[chain[-2]], points[chain[-1]]
            if (xb - xa) * (yj - ya) > (yb - ya) * (xj - xa):
                break
            chain.pop()
        chain.append(j)
    return chain


def lower_chain_fractions(samples):
    """Reference for ``clustering._lower_chain``'s vertices: the same
    monotone chain over the float differences it reads, x_b - x_a and
    y_a - y_b from the first point a of each turn, with every turn decided
    in ``Fraction``s."""
    xs, ys = samples.xs.tolist(), samples.ys.tolist()
    chain = []
    for j in sorted(range(len(xs)), key=lambda i: (xs[i], ys[i])):
        if chain and xs[chain[-1]] == xs[j]:
            continue  # the lowest point of an abscissa comes first
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            bx, by, cx, cy = xs[b] - xs[a], ys[a] - ys[b], xs[j] - xs[a], ys[a] - ys[j]
            if Fraction(by) * Fraction(cx) > Fraction(bx) * Fraction(cy):
                break
            chain.pop()
        chain.append(j)
    return chain


class _Cluster:
    """Mutable working state: index set, merged polynomial, sign-split arrays."""

    __slots__ = ("indices", "least", "poly", "neg_p", "neg_t", "pos_p", "pos_t", "zer_t")

    def __init__(self, indices, poly):
        self.indices = indices
        self.least = min(indices)
        self.poly = poly
        p, t = np.array(poly.exponents), np.array(poly.coefficients)
        neg, pos = sign_masks(p)
        self.neg_p, self.neg_t, self.pos_p, self.pos_t = p[neg], t[neg], p[pos], t[pos]
        self.zer_t = t[~(neg | pos)]


def _pair_score(a, b):
    # Scoring skips exponent dedup: a duplicated exponent contributes only
    # dominated terms to the pairwise max, so the value is unchanged.
    return pairwise_minimum_value(
        np.concatenate([a.neg_p, b.neg_p]),
        np.concatenate([a.neg_t, b.neg_t]),
        np.concatenate([a.pos_p, b.pos_p]),
        np.concatenate([a.pos_t, b.pos_t]),
        np.concatenate([a.zer_t, b.zer_t]),
    )


def agglomerate_by_merging(polys, n):
    """Reference greedy search over ``sample_polynomials``: every candidate
    pair is scored by the mu formula on the concatenation of the two
    clusters' merged polynomials, and a merge builds the merged polynomial
    with ``poly_sum``.  Same quantized scores and tie-break as
    ``clustering.agglomerate``, on a lazy-deletion heap of pairs; each final
    block is scored by ``min_poly`` of its merged polynomial."""
    m = len(polys)
    if not 1 <= n <= m:
        raise ValueError(f"group count must be in 1..{m}, got {n}")
    clusters = {i: _Cluster(frozenset([i]), poly) for i, poly in enumerate(polys)}
    serial = m
    heap = []

    def push(sa, sb):
        ca, cb = clusters[sa], clusters[sb]
        score = _pair_score(ca, cb)
        if score == -math.inf:
            raise ValueError("merged polynomial has an unattained minimum")
        tie = (min(ca.least, cb.least), max(ca.least, cb.least))
        # A quantized score beyond the float range stays +inf, as in the library.
        key = score / SCORE_QUANTUM
        heapq.heappush(heap, (round(key) if math.isfinite(key) else key, tie, sa, sb))

    for a in range(m):
        for b in range(a + 1, m):
            push(a, b)
    while len(clusters) > n:
        while True:
            _, _, sa, sb = heapq.heappop(heap)
            if sa in clusters and sb in clusters:
                break
        ca = clusters.pop(sa)
        cb = clusters.pop(sb)
        clusters[serial] = _Cluster(ca.indices | cb.indices, poly_sum((ca.poly, cb.poly)))
        for sid in sorted(clusters):
            if sid != serial:
                push(sid, serial)
        serial += 1
    blocks = [
        PartitionBlock(c.indices, min_poly(c.poly))
        for c in sorted(clusters.values(), key=lambda c: c.least)
    ]
    minima = tuple(b.minimum.mu for b in blocks)
    exponents = tuple(b.minimum.representative() for b in blocks)
    return ExponentResult(exponents, minima, max(minima), Partition(tuple(blocks)))


#: Brute-force oracle size limits.
BRUTE_FORCE_MAX_SAMPLES = 8
BRUTE_FORCE_MAX_MONOMIALS = 3


def _set_partitions(m, n):
    """All partitions of range(m) into exactly n nonempty blocks, in
    restricted-growth order (deterministic)."""

    blocks = []

    def extend(i):
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


def brute_force_poly_fit(samples, n):
    """Exhaustive-partition oracle for ``fit_polynomial`` on small instances.

    Scores every partition of the sample indices into n groups and returns
    the global optimum, its coefficients recovered as the library does;
    ties go to the first partition in enumeration order.
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
    best = None
    for partition in _set_partitions(m, n):
        result = score_blocks(partition, polys, minima)
        if best is None or result.delta_star < best.delta_star:
            best = result
    return _poly_fit(samples, best)
