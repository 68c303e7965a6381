"""Independent oracles and random-instance generators used across the suite.

These deliberately avoid the library's solver code paths: grid searches and
exhaustive enumerations check the closed forms, and plain float/numpy
arithmetic checks the tropical wrappers.
"""

import itertools
import math

import numpy as np

from tropfit import ZERO, SampleSet, TropMatrix, TropVector


def grid_min(monomials, lo=-20.0, hi=20.0, step=1e-3):
    """Brute-force minimum of max_j(p_j x + t_j) on a uniform grid.

    Returns (min value, argmin).
    """
    grid = np.arange(lo, hi + step / 2, step)
    envelope = np.max([p * grid + t for p, t in monomials], axis=0)
    i = int(envelope.argmin())
    return float(envelope[i]), float(grid[i])


def chebyshev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def assignments(m, n):
    """All maps {0..m-1} -> {0..n-1}; the labeled partitions (empty parts
    allowed) over which the max/min distributivity identity ranges."""
    return itertools.product(range(n), repeat=m)


def random_finite_vector(rng, n, low=-10.0, high=10.0):
    return TropVector(rng.uniform(low, high, size=n).tolist())


def random_finite_matrix(rng, m, n, low=-10.0, high=10.0):
    return TropMatrix(rng.uniform(low, high, size=(m, n)).tolist())


def random_regular_matrix(rng, m, n, low=-10.0, high=10.0, zero_frac=0.4):
    """Matrix with about ``zero_frac`` of its entries ZERO, redrawn until no
    row or column is all ZERO."""
    while True:
        values = rng.uniform(low, high, size=(m, n)).tolist()
        zeros = (rng.random((m, n)) < zero_frac).tolist()
        a = TropMatrix(
            [[ZERO if z else v for v, z in zip(row, zrow)] for row, zrow in zip(values, zeros)]
        )
        if a.is_regular():
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
