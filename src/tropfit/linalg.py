"""Max-plus matrix-vector algebra on float64 arrays, the Chebyshev-type
distance, best-approximate solvers for one- and two-sided linear equations,
and the alternation driver behind two-sided solving and rational fitting.

Vectors and matrices are numpy float64 arrays.  The tropical zero ``ZERO``
is IEEE -inf and the unit ``ONE`` is 0, so max-plus addition is ``max`` and
multiplication is ``+``: -inf absorbs under ``+`` as long as no +inf or NaN
enters, which the solvers' input checks rule out.

The one-sided solver rests on residuation: for regular A and b the vector
(b- A)- is the greatest x with A x <= b, the scalar

    delta = (A (b- A)-)- b

is the squared best-approximation error of A x = b, and sqrt(delta) (b- A)-
attains it.  ``residuate`` computes both for fitting and for the solvers.
Two-sided equations are handled by ``alternate``, which fixes one side,
fits the other to it and repeats: ``alternating_solve`` runs it on fixed
matrices and ``fitting.fit_rational`` with an exponent search per half-step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

#: Tropical zero (additive identity), multiplicative unit, and the distance
#: between vectors of different supports, which orders above every scalar.
ZERO = -math.inf
ONE = 0.0
INFINITE = math.inf

#: Why an alternation stopped.
STOP_CONVERGED = "converged-within-epsilon"
STOP_CYCLE = "cycle"
STOP_CAP = "iteration-cap"

#: Quantization step for the repeated-parameters test in ``alternate``.
#: Exact float equality would be defeated by accumulated rounding drift.
CYCLE_QUANTUM = 1e-9

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


def check_count(value, what: str, most: float = math.inf) -> None:
    """ValueError unless ``value`` is an integer in 1..most; numpy integers
    count, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= most:
        raise ValueError(f"{what} must be in 1..{most}, got {value}")


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


def alternate(
    fit_left: Callable, fit_right: Callable, right, target: np.ndarray, tol: float, cap: int
) -> tuple:
    """Alternate half-steps until the error is within ``tol``, the parameters
    repeat, or ``cap`` half-steps have run.

    Each ``fit_*`` maps a target vector to (squared error, parameters of its
    side, values of its side), and those values are the next target.  Odd
    half-steps k = 1, 3, ... fit the left side, even ones the right side;
    ``right`` is the right side's start and ``target`` its values.  Returns
    the best half-step's squared error and parameters of both sides (strict
    ``<``: the earliest wins ties), the trace of (k, squared error) and the
    stop reason: STOP_CONVERGED once an error is at most ``tol``, STOP_CYCLE
    when the parameters of both sides, flattened and quantized to
    CYCLE_QUANTUM, repeat at the same parity, else STOP_CAP.  A half-step
    whose quantized parameters leave the float range takes no part in the
    repetition test.
    """
    trace: list[tuple[int, float]] = []
    best = None
    seen: set[tuple] = set()
    reason = STOP_CAP
    for k in range(1, cap + 1):
        if k % 2:
            delta, left, target = fit_left(target)
        else:
            delta, right, target = fit_right(target)
        trace.append((k, delta))
        if best is None or delta < best[0]:
            best = (delta, left, right)
        if delta <= tol:
            # necessarily the best half-step: earlier errors exceeded tol
            reason = STOP_CONVERGED
            break
        with np.errstate(over="ignore"):
            quantized = np.rint(np.concatenate((np.ravel(left), np.ravel(right))) / CYCLE_QUANTUM)
        if not np.isfinite(quantized).all():
            continue  # a key beyond the float range would match unequal parameters
        key = (*quantized.tolist(), k % 2)
        if key in seen:
            reason = STOP_CYCLE
            break
        seen.add(key)
    return (*best, tuple(trace), reason)


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
    reason: str  # STOP_CONVERGED | STOP_CYCLE | STOP_CAP


def _solve_side(m: np.ndarray, target: np.ndarray) -> tuple:
    """Half-step of alternating_solve: delta, v and M v for M v = target."""
    delta, vhat = residuate(m, target)
    v = delta / 2 + vhat
    return delta, v, matvec(m, v)


def alternating_solve(a, b, x0=None, max_iter: int = 10_000) -> TwoSidedSolution:
    """Best approximate solution of the two-sided equation A x = B y.

    Alternates one-sided solves through ``alternate``: fix x and solve
    B y = A x for y, then fix y and solve A x = B y for x.  Returns the best
    half-step's vectors and squared error.  It stops as converged when the
    squared error is within EXACT_TOL of ONE (an exact solution), as a cycle
    when x and y repeat, which the error sequence cannot escape, or after
    ``max_iter`` rounds of two half-steps.  The start x0 defaults to the
    all-ONE vector.
    """
    a, b = _matrix(a, "A"), _matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    n = a.shape[1]
    x = np.full(n, ONE) if x0 is None else _vector(x0, n, "x0")
    check_count(max_iter, "max_iter")

    solve_y, solve_x = partial(_solve_side, b), partial(_solve_side, a)
    delta, y, x, _, reason = alternate(solve_y, solve_x, x, matvec(a, x), EXACT_TOL, 2 * max_iter)
    return TwoSidedSolution(delta, x, y, reason)
