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
Besides exact repetition it stops on translated cycles, in which the
errors repeat while the values of both sides move by the same step each
period and the parameters drift without bound, once a probe period at the
iteration cap confirms them; and it jumps a run that closes in on a fixed
point to its limit.  Both rest on one Aitken delta-squared extrapolation of
the values, ``_extrapolate``, whose docstring states the rule.
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
STOP_DRIFT = "drift-cycle"
STOP_CAP = "iteration-cap"

#: The one tolerance of the solvers and the alternation: squared errors and
#: values agree to AGREE_TOL * max(1, their size) (``_agree``, the
#: translated-cycle test), a squared error within AGREE_TOL of ONE is exact,
#: and the repeated-parameters test in ``alternate`` quantizes to AGREE_TOL.
#: Exact float equality would be defeated by accumulated rounding drift.
AGREE_TOL = 1e-9

#: The translated-cycle test's rounding slack, a multiple of eps times the
#: size of the values (see ``_persists`` for how 64 was measured); the
#: largest relative change between consecutive ratios that ``_gain`` calls
#: steady; and the multiple of its remaining transient that a converging
#: probe's landing may miss by (``_extrapolate``).  On the fixture's 7x7
#: sweep and 300 seeded small fits, converging probes whose errors held
#: missed by at most 0.8 transients, or by 6 and more.
ROUNDING = 64 * np.finfo(float).eps
RATIO_STEADY = 0.1
TRANSIENT = 4


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
        bound = "at least 1" if most == math.inf else f"in 1..{most}"
        raise ValueError(f"{what} must be {bound}, got {value}")


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


def _extrapolate(history):
    """Aitken's delta-squared extrapolation of the run that ``history`` ends
    in, tagged by kind, or None: ("exact", step, 0.0) or ("converging",
    step, allowance) for a translated period-two cycle, and ("jump",
    values, 0.0) for a run that closes in on a fixed point.

    ``history`` holds (v_j, d_j) of the latest five to eight half-steps j up
    to k, oldest first: v_j, the values of both sides after half-step j
    (those of half-steps j-1 and j, concatenated), and d_j, its squared
    error.  With the step s_j = v_j - v_{j-2}, its change c_k = |s_k -
    s_{k-2}| and tau = AGREE_TOL * max(1, |v_k|), the kinds, tried in this
    order, are:

    * exact, from five half-steps on: d_k, d_{k-2} and d_{k-4} agree
      (``_agree``), the step has settled, c_k <= tau, and is not zero to tau
      (a zero step is an exact repetition).  The step is s_k;
    * converging, from eight half-steps on: c_k > tau, the errors of each
      parity over the last three periods agree to the rounding slack
      ROUNDING * max(1, |v_k|), and c_j shrinks by a steady ratio rho < 1 at
      both parities (``_gain``).  The step then tends to s_k + (s_k -
      s_{k-2}) g with g = rho / (1 - rho), and that limit, which must not be
      zero to tau, is the step.  The run has still about c_k g to travel
      before it settles, so the allowance of its probe is TRANSIENT times
      that;
    * jump, from eight half-steps on: both parities' errors fell strictly
      over their last four entries, and |s_j| shrinks by a steady ratio
      rho < 1, the same over the last three half-steps (``_gain``).  The
      values then tend to v_k + s_k g; the latest side's half is returned.
      A step that has not been seen to shrink, c_k <= AGREE_TOL * max(1,
      spread of either side's values in v_k), is a translation, not a
      convergence: its rho is 1 to rounding, and g would carry the values
      far from the data.  Each side's spread is free of an ordinate offset;
      the values' size is not.

    Norms are maxima of absolute values.  Non-finite values never match.
    """
    values, errors = zip(*history)
    v0, d0 = history[-1]
    full = len(history) == 8
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        size = float(np.max(np.abs(v0)))
        if not math.isfinite(size):
            return None
        tau = AGREE_TOL * max(1.0, size)
        exact = _agree(d0, errors[-3]) and _agree(d0, errors[-5])
        settled = full and all(
            max(parity) - min(parity) <= ROUNDING * max(1.0, size)
            for parity in (errors[-1:-6:-2], errors[-2:-7:-2])
        )
        falling = full and all(a > b for a, b in zip(errors, errors[2:]))
        if not (exact or settled or falling):
            return None
        values = np.array(values)
        steps = values[2:] - values[:-2]
        step = steps[-1]
        delta = step - steps[-3]
        change = np.max(np.abs(delta))
        if change <= tau:
            if exact and np.max(np.abs(step)) > tau:
                return "exact", step, 0.0
        elif settled:
            gain = _gain(np.max(np.abs(steps[2:] - steps[:-2]), axis=1), 2)
            if gain is not None and np.max(np.abs(step + delta * gain)) > tau:
                return "converging", step + delta * gain, float(TRANSIENT * change * gain)
        if not falling or change <= AGREE_TOL * max(1.0, np.max(np.ptp(v0.reshape(2, -1), axis=1))):
            return None
        gain = _gain(np.max(np.abs(steps), axis=1), 3)
        half = len(v0) // 2
        return None if gain is None else ("jump", v0[half:] + step[half:] * gain, 0.0)


def _gain(sizes, count: int):
    """Aitken's factor rho / (1 - rho) of differences whose sizes shrink
    by a steady ratio each period, or None.

    ``sizes`` holds the differences' sizes at consecutive half-steps, the
    latest last.  rho = sizes[-1] / sizes[-3] is the latest period's ratio;
    it must be below 1, and each of the ``count`` - 1 ratios before it
    (sizes[-2] / sizes[-4], and so on one half-step back each) within
    RATIO_STEADY * rho of it.  Differences that keep shrinking by rho a
    period sum to rho / (1 - rho) times the latest one.
    """
    ratios = [sizes[-1 - j] / sizes[-3 - j] for j in range(count)]
    rho = ratios[0]
    if not (rho < 1 and all(abs(r - rho) <= RATIO_STEADY * rho for r in ratios[1:])):
        return None
    return rho / (1 - rho)


def _in_range(values) -> bool:
    """Whether ``values`` and their differences are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.ptp(values)))


def _period(start, fit_next, fit_same):
    """The two half-steps, each (squared error, parameters, values), of the
    period run from the values ``start``; None when ``start``, the first
    half-step's values or the two half-steps' values together leave the
    float range."""
    if not _in_range(start):
        return None
    first = fit_next(start)
    if not _in_range(first[2]):
        return None
    second = fit_same(first[2])
    return (first, second) if _in_range(np.concatenate((first[2], second[2]))) else None


def _persists(history, step, allowance, fit_next, fit_same, periods: int) -> bool:
    """Whether the translated cycle that ``history`` ends in still holds
    ``periods`` periods on.

    Jumps the latest values ``periods`` steps ahead, runs one period of
    half-steps from there, and checks that it lands one more step on with
    the errors of the latest period.  A jump beyond the float range
    confirms nothing.

    The landing may miss by (periods + 1) * tau, with tau = AGREE_TOL *
    max(1, |values|), plus ``allowance``.  ``_extrapolate`` accepts an
    exact step once two consecutive steps agree to tau, so the step is
    known to about tau per period, and the jump and the period after it
    multiply that by periods + 1.  A converging step is its extrapolated
    limit, and the run from the jumped values still carries the transient
    that the allowance covers.  A translation that ends before then, say
    when a drifting value falls below the others, misses by about a whole
    step, which is of the order of the values' spread and far above this.

    The errors get no such allowance: they must agree as in the exact
    test, plus a slack of ROUNDING * max|values| for rounding.  A
    half-step's error is a difference of values of that size, reached
    through a chain of roundings whose length depends on the fit, so the
    slack is measured rather than derived.  On the bundled fixture at
    ordinates + 1e6 (N, L in 2..7), the probes that landed but whose
    errors missed AGREE_TOL differed from the run's by at most 49
    eps * max|values|, or by 808 and more where the errors were still
    settling; 64 is the smallest power of two between.  At values near 1
    the slack is about 1e-14, so errors that still move by 1e-9 over the
    jump fail the probe.
    """
    (v0, d0), d1 = history[-1], history[-2][1]
    half = len(v0) // 2
    period = _period(v0[half:] + periods * step[half:], fit_next, fit_same)
    if period is None:
        return False
    (e1, _, u1), (e0, _, u0) = period
    landed = np.concatenate((u1, u0))
    size = float(np.max(np.abs(landed)))
    with np.errstate(over="ignore", invalid="ignore"):
        missed = np.max(np.abs(landed - (v0 + (periods + 1) * step)))
    tau = AGREE_TOL * max(1.0, size)
    slack = ROUNDING * size
    return (
        bool(missed <= (periods + 1) * tau + allowance)
        and _agree(d1, e1, slack)
        and _agree(d0, e0, slack)
    )


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
    stop reason, tested in this order:

    - STOP_CONVERGED once an error is at most ``tol``;
    - STOP_CYCLE when the parameters of both sides, flattened and quantized
      to AGREE_TOL, repeat at the same parity.  A half-step whose
      quantized parameters leave the float range takes no part in this test;
    - STOP_DRIFT when ``_extrapolate`` finds an exact or converging
      translated cycle, in which the values of both sides move by a nonzero
      step each period at repeating errors, and a probe confirms that it
      still holds at the cap (``_persists``): the run would then only
      repeat its errors.  The probe's two half-steps are not part of the
      run or its trace;
    - STOP_CAP otherwise.

    When ``_extrapolate`` finds a run closing in on a fixed point, the
    latest side's values jump to their limit and one period runs from them
    (``_period``).  The period is kept when its landing, the second
    half-step, has an error below the best so far and no higher than the
    first half-step's; its half-steps then become k + 1 and k + 2 of the
    run, and the history restarts from the jumped values.  The first
    half-step fits the extrapolated values, which no parameters of the
    other side produce, so it is never the best and never converged; the
    condition on its error keeps the best error the trace's least.  A
    discarded period is not part of the trace, and a jump is made only
    within the cap.

    Each kind keeps its own schedule, from k = 5 for an exact translation
    and k = 8 for the others: after a failed probe or jump at half-step k
    the next of that kind waits until half-step 2k, so probes cost at most
    four half-steps each time the run doubles; after a jump that failed
    only on its first half-step's error, it may come one period on.
    """
    trace: list[tuple[int, float]] = []
    best = None
    seen: set[tuple] = set()
    history: list = []
    due = {"exact": 5, "converging": 8, "jump": 8}
    landing: tuple = ()  # the adopted period's half-steps not yet taken
    reason = STOP_CAP
    for k in range(1, cap + 1):
        previous = target
        fit_same, fit_next = (fit_left, fit_right) if k % 2 else (fit_right, fit_left)
        jumped = len(landing) == 2  # fitted to extrapolated values
        if landing:
            (delta, params, target), *landing = landing
        else:
            delta, params, target = fit_same(target)
        if k % 2:
            left = params
        else:
            right = params
        trace.append((k, delta))
        if not jumped and (best is None or delta < best[0]):
            best = (delta, left, right)
        if not jumped and delta <= tol:
            # necessarily the best half-step: earlier errors exceeded tol
            reason = STOP_CONVERGED
            break
        with np.errstate(over="ignore"):
            quantized = np.rint(np.concatenate((np.ravel(left), np.ravel(right))) / AGREE_TOL)
        # a key beyond the float range would match unequal parameters
        if np.isfinite(quantized).all():
            key = (*quantized.tolist(), k % 2)
            if key in seen:
                reason = STOP_CYCLE
                break
            seen.add(key)
        history.append((np.concatenate((previous, target)), delta))
        del history[:-8]
        found = None
        if len(history) >= 5 and k >= min(due.values()):
            found = _extrapolate(history)
        if found is None or k < due[found[0]]:
            continue
        kind, vector, allowance = found
        if kind != "jump":
            if _persists(history, vector, allowance, fit_next, fit_same, max(1, (cap - k) // 2)):
                reason = STOP_DRIFT
                break
            due[kind] = 2 * k
        elif k + 2 <= cap:
            period = _period(vector, fit_next, fit_same)
            if period is None or not period[1][0] < best[0]:
                due[kind] = 2 * k
            elif period[1][0] > period[0][0]:
                due[kind] = k + 2
            else:
                landing, target = period, vector
                history.clear()
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
