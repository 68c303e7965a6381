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
Besides exact repetition it detects translated cycles, in which the errors
repeat while the values of both sides move by the same step each period
and the parameters drift without bound.  Such a cycle can end, so
``alternate`` stops on one only after a probe period far ahead, at the
iteration cap, shows the same errors and the same step, to the step's
uncertainty times the periods jumped.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
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
STOP_DRIFT = "drift-cycle"
STOP_CAP = "iteration-cap"

#: The one tolerance of the solvers and the alternation: squared errors and
#: values agree to AGREE_TOL * max(1, their size) (``_agree``, the
#: translated-cycle test), a squared error within AGREE_TOL of ONE is exact,
#: and the repeated-parameters test in ``alternate`` quantizes to AGREE_TOL.
#: Exact float equality would be defeated by accumulated rounding drift.
AGREE_TOL = 1e-9


def matvec(a, x) -> np.ndarray:
    """Max-plus matrix-vector product: result_i = max_j (a_ij + x_j)."""
    return np.max(np.add(a, x), axis=1)


def distance(x, y) -> float:
    """Tropical distance (y- x) oplus (x- y).

    Equals the Chebyshev metric max_i |x_i - y_i| on co-supported vectors,
    ONE when both vectors are all-ZERO, and INFINITE when the supports
    differ.  Both must be 1-D with real or ZERO entries.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for name, v in (("x", x), ("y", y)):
        if v.ndim != 1:
            raise ValueError(f"{name} must be a 1-D vector")
        _check_entries(v, name)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    support = x > ZERO
    if (support != (y > ZERO)).any():
        return INFINITE
    if not support.any():
        return ONE
    return float(np.max(np.abs(x[support] - y[support])))


def _check_entries(a: np.ndarray, name: str) -> None:
    """ValueError unless every entry of ``a`` is real or ZERO."""
    if np.isnan(a).any() or (a == math.inf).any():
        raise ValueError(f"{name} entries must be real or ZERO (-inf)")


def _matrix(a, name: str) -> np.ndarray:
    """``a`` as a regular float64 matrix: 2-D, nonempty, real or ZERO
    entries, and no row or column that is all ZERO."""
    try:
        a = np.array(a, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} must be a rectangular matrix of numbers") from exc
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix")
    _check_entries(a, name)
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


def _agree(a: float, b: float, slack: float = 0.0) -> bool:
    """Whether two squared errors agree to AGREE_TOL * max(1, |a|) + slack,
    a tolerance that an offset of the data does not move."""
    return abs(a - b) <= AGREE_TOL * max(1.0, abs(a)) + slack


def _translation(history):
    """The step of the translated period-two cycle that the last six
    half-steps end in, or None.

    ``history`` holds (values, squared error) of half-steps k-5 .. k, oldest
    first.  With v_k the values of both sides after half-step k (those of
    half-steps k-1 and k) and s = v_k - v_{k-2}, that is: s equals
    v_{k-2} - v_{k-4} and is not zero (a zero step is an exact repetition),
    both to tau = AGREE_TOL * max(1, |v_k|), and the errors at k, k-2
    and k-4 agree (``_agree``).  Non-finite values never match.
    """
    (t5, _), (t4, d4), (t3, _), (t2, d2), (t1, _), (t0, d0) = history
    v4, v2, v0 = np.concatenate((t5, t4)), np.concatenate((t3, t2)), np.concatenate((t1, t0))
    with np.errstate(over="ignore", invalid="ignore"):
        tau = AGREE_TOL * max(1.0, float(np.max(np.abs(v0))))
        step = v0 - v2
        translated = np.max(np.abs(step - (v2 - v4))) <= tau and np.max(np.abs(step)) > tau
    return step if translated and _agree(d0, d2) and _agree(d0, d4) else None


def _in_range(values) -> bool:
    """Whether ``values`` and their differences are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.ptp(values)))


def _persists(history, step, fit_next, fit_same, periods: int) -> bool:
    """Whether the translated cycle that ``history`` ends in still holds
    ``periods`` periods on.

    Jumps the latest values ``periods`` steps ahead, runs one period of
    half-steps from there, and checks that it lands one more step on with
    the errors of the latest period.  A jump beyond the float range
    confirms nothing.

    The landing may miss by (periods + 1) * tau, with tau = AGREE_TOL *
    max(1, |values|).  ``_translation`` accepts a step once two consecutive
    steps agree to tau, so the step is known to about tau per period, and
    the jump and the period after it multiply that by periods + 1.  A
    translation that ends before then, say when a drifting value falls
    below the others, misses by about a whole step, which is of the order
    of the values' spread and far above this.

    The errors get no such allowance: they must agree as in
    ``_translation``, plus a slack of 64 eps * max|values| for rounding.
    A half-step's error is a difference of values of that size, reached
    through a chain of roundings whose length depends on the fit, so the
    slack is measured rather than derived.  On the bundled fixture at
    ordinates + 1e6 (N, L in 2..7), the probes that landed but whose
    errors missed AGREE_TOL differed from the run's by at most 49
    eps * max|values|, or by 808 and more where the errors were still
    settling; 64 is the smallest power of two between.  At values near 1
    the slack is about 1e-14, so errors that still move by 1e-9 over the
    jump fail the probe.
    """
    (t1, d1), (t0, d0) = history[-2], history[-1]
    start = t0 + periods * step[len(t1):]
    if not _in_range(start):
        return False
    e1, _, u1 = fit_next(start)
    if not _in_range(u1):
        return False
    e0, _, u0 = fit_same(u1)
    landed = np.concatenate((u1, u0))
    if not _in_range(landed):
        return False
    size = float(np.max(np.abs(landed)))
    with np.errstate(over="ignore", invalid="ignore"):
        missed = np.max(np.abs(landed - (np.concatenate((t1, t0)) + (periods + 1) * step)))
    tau = AGREE_TOL * max(1.0, size)
    slack = 64 * np.finfo(float).eps * size
    return bool(missed <= (periods + 1) * tau) and _agree(d1, e1, slack) and _agree(d0, e0, slack)


def alternate(
    fit_left: Callable, fit_right: Callable, right, target: np.ndarray, tol: float, cap: int
) -> tuple:
    """Alternate half-steps until the error is within ``tol``, the run
    repeats itself, or ``cap`` half-steps have run.

    Each ``fit_*`` maps a target vector to (squared error, parameters of its
    side, values of its side), and those values are the next target.  Odd
    half-steps k = 1, 3, ... fit the left side, even ones the right side;
    ``right`` is the right side's start and ``target`` its values.  Returns
    the best half-step's squared error and parameters of both sides (strict
    ``<``: the earliest wins ties), the trace of (k, squared error) and the
    stop reason:

    - STOP_CONVERGED once an error is at most ``tol``;
    - STOP_CYCLE when the parameters of both sides, flattened and quantized
      to AGREE_TOL, repeat at the same parity.  A half-step whose
      quantized parameters leave the float range takes no part in this test;
    - STOP_DRIFT from k = 5 on, when the values of both sides have moved by
      the same nonzero step in each of the last two periods at repeating
      errors (``_translation``), and a probe confirms that the translation
      still holds at the cap (``_persists``): the run would then only
      repeat its errors.  The probe lands within (periods + 1) * tau of the
      translated values, because the step is known only to tau a period,
      and its errors agree to AGREE_TOL plus a rounding slack of 64 eps
      times the values' size.  The probe's two half-steps are not part of
      the run or its trace.  After a failed probe at half-step k the next one
      waits until half-step 2k, so probes cost at most two half-steps each
      time the run doubles;
    - STOP_CAP otherwise.
    """
    trace: list[tuple[int, float]] = []
    best = None
    seen: set[tuple] = set()
    history: deque = deque([(target, None)], maxlen=6)
    probe_from = 5
    reason = STOP_CAP
    for k in range(1, cap + 1):
        if k % 2:
            delta, left, target = fit_left(target)
            fit_next, fit_same = fit_right, fit_left
        else:
            delta, right, target = fit_right(target)
            fit_next, fit_same = fit_left, fit_right
        trace.append((k, delta))
        if best is None or delta < best[0]:
            best = (delta, left, right)
        if delta <= tol:
            # necessarily the best half-step: earlier errors exceeded tol
            reason = STOP_CONVERGED
            break
        history.append((target, delta))
        step = _translation(history) if k >= probe_from else None
        if step is not None:
            if _persists(history, step, fit_next, fit_same, max(1, (cap - k) // 2)):
                reason = STOP_DRIFT
                break
            probe_from = 2 * k
        with np.errstate(over="ignore"):
            quantized = np.rint(np.concatenate((np.ravel(left), np.ravel(right))) / AGREE_TOL)
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
    return ApproxSolution(delta, delta / 2 + xhat, exact=_agree(ONE, delta))


@dataclass(frozen=True)
class TwoSidedSolution:
    """Output of alternating_solve: squared error, both vectors, stop reason."""

    delta: float
    x: np.ndarray
    y: np.ndarray
    reason: str  # STOP_CONVERGED | STOP_CYCLE | STOP_DRIFT | STOP_CAP


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
    squared error is within AGREE_TOL of ONE (an exact solution), as a cycle
    when x and y repeat, which the error sequence cannot escape, as a drift
    cycle when some entries of A x and B y move by the same step each round
    at repeating errors and a probe finds them still doing so at the cap,
    or after ``max_iter`` rounds of two half-steps.  The start x0 defaults
    to the all-ONE vector.
    """
    a, b = _matrix(a, "A"), _matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    n = a.shape[1]
    x = np.full(n, ONE) if x0 is None else _vector(x0, n, "x0")
    check_count(max_iter, "max_iter")

    solve_y, solve_x = partial(_solve_side, b), partial(_solve_side, a)
    delta, y, x, _, reason = alternate(solve_y, solve_x, x, matvec(a, x), AGREE_TOL, 2 * max_iter)
    return TwoSidedSolution(delta, x, y, reason)
