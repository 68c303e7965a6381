"""Max-plus matrix-vector algebra on float64 arrays, the Chebyshev-type
distance, and best-approximate solvers for one- and two-sided linear
equations.

Vectors and matrices are numpy float64 arrays.  The tropical zero ``ZERO``
is IEEE -inf and the unit ``ONE`` is 0, so max-plus addition is ``max`` and
multiplication is ``+``: -inf absorbs under ``+`` as long as no +inf or NaN
enters, which the solvers' input checks rule out.

The one-sided solver rests on residuation: for regular A and b the vector
(b- A)- is the greatest x with A x <= b, the scalar

    delta = (A (b- A)-)- b

is the squared best-approximation error of A x = b, and sqrt(delta) (b- A)-
attains it.  ``residuate`` computes both for fitting and for the solvers.
The two-sided equation A x = B y is handled by alternating one-sided solves
until the error hits ONE or an iterate repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tropical zero (additive identity), multiplicative unit, and the distance
#: between vectors of different supports, which orders above every scalar.
ZERO = -math.inf
ONE = 0.0
INFINITE = math.inf

#: Quantization step for the iterate-repetition test in alternating_solve.
#: Exact float equality would be defeated by accumulated rounding drift.
CYCLE_QUANTUM = 1e-12

#: Tolerance below which a squared error counts as exactly ONE.
EXACT_TOL = 1e-9


def matvec(a, x) -> np.ndarray:
    """Max-plus matrix-vector product: result_i = max_j (a_ij + x_j)."""
    return np.max(np.add(a, x), axis=1)


def distance(x, y) -> float:
    """Tropical distance (y- x) oplus (x- y).

    Equals the Chebyshev metric max_i |x_i - y_i| on co-supported vectors,
    ONE when both vectors are all-ZERO, and INFINITE when the supports
    differ.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    support = x > ZERO
    if (support != (y > ZERO)).any():
        return INFINITE
    if not support.any():
        return ONE
    return float(np.max(np.abs(x[support] - y[support])))


def _matrix(a, name: str) -> np.ndarray:
    """``a`` as a regular float64 matrix: 2-D, nonempty, real or ZERO
    entries, and no row or column that is all ZERO."""
    try:
        a = np.array(a, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} must be a rectangular matrix of numbers") from exc
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix")
    if np.isnan(a).any() or (a == math.inf).any():
        raise ValueError(f"{name} entries must be real or ZERO (-inf)")
    support = a > ZERO
    if not (support.any(axis=1).all() and support.any(axis=0).all()):
        raise ValueError(f"{name} must be regular (no all-ZERO row or column)")
    return a


def _vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a finite float64 vector of length n."""
    v = np.array(v, dtype=float)
    if v.shape != (n,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a finite vector of length {n}")
    return v


@dataclass(frozen=True)
class ApproxSolution:
    """Best approximate solution of A x = b with squared error delta."""

    delta: float
    solution: np.ndarray
    exact: bool


def residuate(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Residuation of A x = b for regular A and finite b.

    Returns the squared error delta = max_i (b_i - max_j (a_ij + xhat_j)) and
    xhat = (b- A)-, the greatest x with A x <= b, whose entries are
    xhat_j = -max_i (a_ij - b_i).  The best approximate solution is
    delta/2 + xhat.
    """
    xhat = -np.max(a - b[:, None], axis=0)
    delta = float(np.max(b - matvec(a, xhat)))
    return delta, xhat


def best_approx_solve(a, b) -> ApproxSolution:
    """Solve A x = b in the best-approximation sense.

    Returns the squared error delta = (A (b- A)-)- b and the minimizer
    sqrt(delta) (b- A)-; the achieved distance is sqrt(delta) and no finite
    x does better.  When delta == ONE the equation is consistent and the
    returned vector is its greatest exact solution.
    """
    a = _matrix(a, "A")
    delta, xhat = residuate(a, _vector(b, a.shape[0], "b"))
    return ApproxSolution(delta, delta / 2 + xhat, exact=abs(delta) <= EXACT_TOL)


@dataclass(frozen=True)
class TwoSidedSolution:
    """Output of alternating_solve: squared error, both vectors, stop reason."""

    delta: float
    x: np.ndarray
    y: np.ndarray
    reason: str  # "exact" | "cycle" | "iteration-cap"


def _quantize(v: np.ndarray) -> tuple[int, ...]:
    return tuple(round(e / CYCLE_QUANTUM) for e in v.tolist())


def alternating_solve(a, b, x0=None, max_iter: int = 10_000) -> TwoSidedSolution:
    """Best approximate solution of the two-sided equation A x = B y.

    Alternates one-sided solves: fix x and solve B y = A x for y, then fix y
    and solve A x = B y for x, tracking the squared error delta at each half
    step.  Terminates when delta reaches ONE (exact solution) or when a newly
    produced vector repeats an earlier one of the same side, which the error
    sequence cannot escape.  Vectors are compared after quantization to
    CYCLE_QUANTUM so rounding drift cannot defeat the repetition test.  The
    iteration cap guards against non-termination under float noise and is
    reported as its own outcome.  The start x0 defaults to the all-ONE
    vector.
    """
    a, b = _matrix(a, "A"), _matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    n = a.shape[1]
    x = np.full(n, ONE) if x0 is None else _vector(x0, n, "x0")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    seen = {(1, _quantize(x))}
    reason = "iteration-cap"
    for k in range(2 * max_iter):
        if k % 2 == 0:
            delta, yhat = residuate(b, matvec(a, x))
            y = new = delta / 2 + yhat
        else:
            delta, xhat = residuate(a, matvec(b, y))
            x = new = delta / 2 + xhat
        if abs(delta) <= EXACT_TOL:
            reason = "exact"
            break
        key = (k % 2, _quantize(new))
        if key in seen:
            reason = "cycle"
            break
        seen.add(key)
    return TwoSidedSolution(delta, x, y, reason)
