"""Tropical linear algebra on float arrays: the product, the distance
function, the solvers' input checks, the one- and two-sided
best-approximation solvers against the loop references in ``oracles``, and
the alternation driver on stub half-steps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropfit import (
    INFINITE,
    ONE,
    ZERO,
    alternating_solve,
    best_approx_solve,
    distance,
    matvec,
)
from tropfit.linalg import (
    STOP_CAP,
    STOP_CONVERGED,
    STOP_CYCLE,
    STOP_DRIFT,
    _extrapolate,
    alternate,
)

import oracles
from oracles import (
    chebyshev,
    random_finite_matrix,
    random_finite_vector,
    random_regular_matrix,
)

#: Matrix generators: all entries finite, and about 40 % ZERO entries, which
#: reach the solvers' -inf path.
MATRICES = (random_finite_matrix, random_regular_matrix)

#: The max-plus identity matrix.
EYE = [[ONE, ZERO], [ZERO, ONE]]

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


# --- products and input checks ---------------------------------------------------


def test_matvec_identity():
    assert matvec(EYE, [3.0, 5.0]).tolist() == [3.0, 5.0]


def test_matvec_row_max():
    a = [[0.0, 0.0], [0.0, 0.0]]
    assert matvec(a, [1.0, 2.0]).tolist() == [2.0, 2.0]


def test_matvec_zero_absorption():
    a = [[1.0, ZERO], [ZERO, 2.0]]
    assert matvec(a, [ZERO, 3.0]).tolist() == [ZERO, 5.0]


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        matvec(EYE, [1.0, 2.0, 3.0])


def test_matvec_matches_loop_reference(rng):
    for make_matrix in MATRICES:
        for _ in range(20):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            a = make_matrix(rng, m, n)
            x = random_finite_vector(rng, n)
            assert matvec(a, x).tolist() == oracles.matvec(a, x)


@pytest.mark.parametrize(
    "solve, args",
    [
        pytest.param(best_approx_solve, ([], [1.0]), id="empty"),
        pytest.param(best_approx_solve, ([[]], [1.0]), id="empty-row"),
        pytest.param(best_approx_solve, ([[1.0], [2.0, 3.0]], [1.0, 1.0]), id="ragged"),
        pytest.param(best_approx_solve, ([1.0, 2.0], [1.0, 1.0]), id="1-d"),
        pytest.param(best_approx_solve, ([[[1.0]]], [1.0]), id="3-d"),
        pytest.param(best_approx_solve, ([[math.nan]], [1.0]), id="nan-entry"),
        pytest.param(best_approx_solve, ([[math.inf, 0.0]], [1.0]), id="plus-inf-entry"),
        pytest.param(best_approx_solve, (EYE, [1.0, ZERO]), id="b-zero"),
        pytest.param(best_approx_solve, (EYE, [1.0, math.nan]), id="b-nan"),
        pytest.param(best_approx_solve, (EYE, [1.0, 2.0, 3.0]), id="b-length"),
        pytest.param(alternating_solve, (EYE, [[0.0, 1.0]]), id="row-count"),
        pytest.param(alternating_solve, (EYE, [[0.0], [math.nan]]), id="B-nan"),
        pytest.param(alternating_solve, (EYE, EYE, [0.0, math.inf]), id="x0-inf"),
        pytest.param(alternating_solve, (EYE, EYE, [0.0]), id="x0-length"),
    ],
)
def test_solvers_reject_malformed_input(solve, args):
    with pytest.raises(ValueError):
        solve(*args)


# --- distance ----------------------------------------------------------------


def test_distance_examples():
    assert distance([1.0, 2.0], [1.0, 2.0]) == ONE
    assert distance([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert distance([ZERO, 1.0], [1.0, 1.0]) == INFINITE


def test_distance_all_zero_vectors():
    z = [ZERO, ZERO]
    assert distance(z, z) == ONE


@pytest.mark.parametrize(
    "x, y, message",
    [
        pytest.param([math.nan, 1.0], [math.nan, 3.0], "x entries", id="nan-both"),
        pytest.param([math.nan], [math.nan], "x entries", id="nan-only"),
        pytest.param([1.0], [math.nan], "y entries", id="nan-in-y"),
        pytest.param([math.inf], [1.0], "x entries", id="plus-inf"),
        pytest.param([math.inf], [math.inf], "x entries", id="plus-inf-both"),
        pytest.param([[1.0, 2.0]], [[1.0, 5.0]], "x must be a 1-D vector", id="2-d"),
        pytest.param(1.0, 2.0, "x must be a 1-D vector", id="scalar"),
        pytest.param([1.0], [[1.0]], "y must be a 1-D vector", id="2-d-y"),
    ],
)
def test_distance_rejects_entries_other_than_reals_or_zero_and_non_vectors(x, y, message):
    """NaN is not the tropical zero and +inf is not a real value: both are
    rejected, in the solvers' wording, as is input that is not 1-D."""
    with pytest.raises(ValueError, match=message):
        distance(x, y)


def test_infinite_orders_above_every_scalar():
    assert INFINITE > 1e300 and INFINITE > ZERO
    assert not INFINITE < 1e300
    assert 1e300 < INFINITE
    assert INFINITE >= INFINITE and not INFINITE > INFINITE


@given(st.lists(finite, min_size=1, max_size=8), st.data())
def test_distance_is_chebyshev_on_finite_vectors(xs, data):
    ys = [data.draw(finite) for _ in xs]
    assert distance(xs, ys) == pytest.approx(chebyshev(xs, ys), abs=1e-12)
    assert distance(xs, ys) == distance(ys, xs)
    assert distance(xs, xs) == ONE


# --- one-sided solver ---------------------------------------------------------


def test_best_approx_identity_case():
    sol = best_approx_solve(EYE, [3.0, 5.0])
    assert sol.delta == ONE
    assert sol.exact
    assert sol.solution.tolist() == [3.0, 5.0]


def test_best_approx_constant_column():
    # one-column matrix of ONEs fits a constant; grid search is the oracle
    a = [[0.0], [0.0]]
    b = [0.0, 2.0]
    sol = best_approx_solve(a, b)
    assert sol.delta == pytest.approx(2.0, abs=1e-12)
    assert sol.solution.tolist() == [1.0]
    achieved = chebyshev(oracles.matvec(a, sol.solution), b)
    assert achieved == pytest.approx(1.0, abs=1e-12)

    grid = np.arange(-5.0, 5.0, 1e-3)
    oracle = np.maximum(np.abs(grid - 0.0), np.abs(grid - 2.0)).min()
    assert achieved == pytest.approx(oracle, abs=2e-3)


def test_best_approx_requires_regularity():
    with pytest.raises(ValueError):
        best_approx_solve([[ZERO, 1.0], [ZERO, 2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        best_approx_solve([[ZERO, ZERO], [1.0, 2.0]], [1.0, 1.0])


def test_best_approx_optimality_sampling(rng):
    for make_matrix in MATRICES:
        for _ in range(20):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            a = make_matrix(rng, m, n)
            b = random_finite_vector(rng, m)
            sol = best_approx_solve(a, b)
            target = chebyshev(oracles.matvec(a, sol.solution), b)
            assert target == pytest.approx(sol.delta / 2, abs=1e-9)
            for _ in range(200):
                x = random_finite_vector(rng, n)
                assert chebyshev(oracles.matvec(a, x), b) >= target - 1e-9


def test_best_approx_exactness(rng):
    for make_matrix in MATRICES:
        for _ in range(50):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            a = make_matrix(rng, m, n)
            x_true = random_finite_vector(rng, n)
            b = oracles.matvec(a, x_true)
            sol = best_approx_solve(a, b)
            assert abs(sol.delta) <= 1e-9
            assert sol.exact
            assert chebyshev(oracles.matvec(a, sol.solution), b) <= 1e-9
            # maximal solution dominates any exact one
            assert all(s >= t - 1e-12 for s, t in zip(sol.solution, x_true))


# --- two-sided solver ---------------------------------------------------------


def test_alternating_identity_case():
    res = alternating_solve(EYE, EYE, [0.0, 0.0])
    assert res.delta == ONE
    assert res.reason == "converged-within-epsilon"
    assert res.x.tolist() == [0.0, 0.0]
    assert res.y.tolist() == [0.0, 0.0]


def test_alternating_against_grid_oracle():
    a = [[0.0], [0.0]]
    b = [[0.0], [1.0]]
    res = alternating_solve(a, b, [0.0])
    achieved = chebyshev(oracles.matvec(a, res.x), oracles.matvec(b, res.y))
    assert res.delta == pytest.approx(2 * achieved, abs=1e-9)

    xs = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    oracle = math.inf
    for xv in xs:
        d = np.maximum(np.abs(xv - xs), np.abs(xv - (1.0 + xs))).min()
        oracle = min(oracle, d)
    assert achieved == pytest.approx(oracle, abs=2e-3)


def test_alternating_rejects_a_zero_iteration_cap():
    with pytest.raises(ValueError, match=r"^max_iter must be at least 1, got 0$"):
        alternating_solve(EYE, EYE, [0.0, 0.0], max_iter=0)


def test_alternating_requires_regularity():
    a = [[0.0, 1.0], [1.0, 0.0]]
    b = [[0.0, ZERO], [1.0, ZERO]]  # all-ZERO column
    with pytest.raises(ValueError):
        alternating_solve(a, b, [0.0, 0.0])
    with pytest.raises(ValueError):
        alternating_solve(a, EYE, [ZERO, 0.0])


def test_alternating_terminates_and_is_consistent(rng):
    for make_matrix in MATRICES:
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 6))
            a = make_matrix(rng, m, n)
            b = make_matrix(rng, m, l)
            res = alternating_solve(a, b)
            assert res.reason in {"converged-within-epsilon", "cycle", "drift-cycle", "iteration-cap"}
            achieved = chebyshev(oracles.matvec(a, res.x), oracles.matvec(b, res.y))
            assert res.delta == pytest.approx(2 * achieved, abs=1e-9)


def test_alternating_runs_through_a_partial_translation():
    # from half-step 2 on, some entries of A x and B y move by the same step
    # each round at a repeating error, a translated cycle at k = 6; it ends,
    # and the run goes on to an exact solution at k = 15, so the probe must
    # not confirm it
    a = [[0, 4, 5, 7, -3], [3, -2, -5, -8, 6], [7, 1, 1, -1, 0], [6, 0, -9, -8, -3]]
    b = [[6, 2, -8, -1], [8, 1, 7, 9], [-7, 10, -2, -4], [0, 8, -6, 2]]
    res = alternating_solve(a, b)
    assert res.reason == STOP_CONVERGED
    assert res.delta == ONE
    assert oracles.matvec(a, res.x) == oracles.matvec(b, res.y)


def test_alternating_default_start_is_unit_vector():
    a = [[0.0], [0.0]]
    b = [[0.0], [1.0]]
    explicit = alternating_solve(a, b, [ONE])
    default = alternating_solve(a, b)
    assert (default.delta, default.reason) == (explicit.delta, explicit.reason)
    assert default.x.tolist() == explicit.x.tolist()
    assert default.y.tolist() == explicit.y.tolist()


# --- alternation driver -----------------------------------------------------------


def scripted(deltas):
    """Half-step stub: returns the next scripted error, the target as its
    parameters and 2 target + 1 as its values, so parameters never repeat
    and values never move by a constant step."""
    errors = iter(deltas)
    return lambda target: (next(errors), target, 2 * target + 1)


def test_alternate_stops_on_period_two_cycle():
    # left always fits 0 and right always fits 1, from a right start of 5:
    # keys (0, 5, odd), (0, 1, even), (0, 1, odd), then (0, 1, even) again
    left = lambda target: (2.0, np.zeros(1), np.ones(1))
    right = lambda target: (1.0, np.ones(1), np.zeros(1))
    delta, best_left, best_right, trace, reason = alternate(
        left, right, np.full(1, 5.0), np.zeros(1), 0.0, 100
    )
    assert reason == STOP_CYCLE
    assert trace == ((1, 2.0), (2, 1.0), (3, 2.0), (4, 1.0))
    assert (delta, best_left.tolist(), best_right.tolist()) == (1.0, [0.0], [1.0])


def test_alternate_keeps_earliest_best_half_step():
    half = scripted([3.0, 1.0, 2.0, 1.0, 5.0])
    start = np.full(1, -1.0)
    delta, left, right, trace, reason = alternate(half, half, start, np.zeros(1), 0.0, 5)
    # parameters at half-step k are 2^(k-1) - 1; the tie at k = 4 would give (3, 7)
    assert (delta, left.tolist(), right.tolist()) == (1.0, [0.0], [1.0])
    assert [d for _, d in trace] == [3.0, 1.0, 2.0, 1.0, 5.0]
    assert reason == STOP_CAP


def test_alternate_stops_when_within_tolerance():
    half = scripted([3.0, 2.0, 1e-10, 0.5])
    start = np.full(1, -1.0)
    delta, left, right, trace, reason = alternate(half, half, start, np.zeros(1), 1e-9, 10)
    assert reason == STOP_CONVERGED
    assert trace == ((1, 3.0), (2, 2.0), (3, 1e-10))
    assert (delta, left.tolist(), right.tolist()) == (1e-10, [3.0], [1.0])


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_alternate_runs_to_the_cap(cap):
    half = scripted([1.0] * 10)
    _, _, _, trace, reason = alternate(half, half, np.full(1, -1.0), np.zeros(1), 0.0, cap)
    assert reason == STOP_CAP
    assert [k for k, _ in trace] == list(range(1, cap + 1))


def test_alternate_parameters_beyond_the_key_range_are_no_cycle():
    # parameters 1e300, 2e300, 4e300, ... quantize past the float range; they
    # differ at every half-step, so they must neither raise nor match as a cycle
    half = lambda target: (1.0, target, 2 * target)
    start = np.full(1, 1e300)
    _, _, _, trace, reason = alternate(half, half, start, start, 0.0, 6)
    assert reason == STOP_CAP
    assert len(trace) == 6


def translating(error, floor=-math.inf):
    """Half-step stub: error, the target as parameters and target - 1 as
    values while the target is above ``floor``, so each side's values fall
    by 2 every two half-steps and no parameters repeat; at or below the
    floor, error / 2 and the target itself."""
    return lambda target: (error, target, target - 1) if target[0] > floor else (error / 2, target, target)


def test_alternate_stops_on_translated_cycle():
    delta, left, right, trace, reason = alternate(
        translating(2.0), translating(1.0), np.zeros(2), np.zeros(2), 0.0, 20
    )
    assert reason == STOP_DRIFT
    assert trace == ((1, 2.0), (2, 1.0), (3, 2.0), (4, 1.0), (5, 2.0))
    # the earliest best half-step, k = 2: left fitted at k = 1, right at k = 2
    assert (delta, left.tolist(), right.tolist()) == (1.0, [0.0, 0.0], [-1.0, -1.0])


@pytest.mark.parametrize(
    "floor, cap, reason, steps, best",
    [
        # the values reach the floor at k = 8, within the cap: the probe at
        # k = 5 sees the smaller error there, so the run goes on to it and
        # stops when the parameters repeat
        (-8.0, 40, STOP_CYCLE, 12, 0.5),
        # the floor lies beyond the cap, so the translation holds to the end
        (-100.0, 40, STOP_DRIFT, 5, 1.0),
    ],
)
def test_alternate_translation_that_ends_before_the_cap_runs_on(floor, cap, reason, steps, best):
    half = translating(1.0, floor)
    delta, _, _, trace, stop = alternate(half, half, np.zeros(1), np.zeros(1), 0.0, cap)
    assert (stop, len(trace), delta) == (reason, steps, best)


def counted(half, calls):
    """``half``, appending each target it is called with to ``calls``."""

    def call(target):
        calls.append(target)
        return half(target)

    return call


def test_alternate_translation_whose_step_still_settles_stops_at_its_first_probe():
    # values near 1 fall by 1e-3 a half-step plus a residue that shrinks by
    # 0.8 a half-step, about 1e-9 a period at k = 5: the step changes by
    # about 6e-10 a period there, within tau = 1e-9, but the 17-period probe
    # carries the residue and lands about 5e-9 off, more than tau and within
    # (17 + 1) tau
    half = lambda target: (1.0, target, target - 1e-3 - 1e-9 * math.exp(223 * (target[0] - 1)))
    calls = []
    step = counted(half, calls)
    _, _, _, trace, reason = alternate(step, step, np.ones(1), np.ones(1), 0.0, 40)
    assert reason == STOP_DRIFT
    assert len(trace) == 5
    assert len(calls) == 7  # one probe


def test_alternate_translation_whose_errors_fall_over_the_jump_runs_on():
    # values near 1 translate by 2e-3 a period while the error, near 50, falls
    # by 1e-8 a period: within AGREE_TOL * 50 over the last two periods, so
    # the translation is found, but not over the probes' 27, 25, 20 and 10
    # periods, and the rounding slack at values near 1 is about 1e-14
    half = lambda target: (50.0 + 5e-6 * (target[0] - 1), target, target - 1e-3)
    calls = []
    step = counted(half, calls)
    _, _, _, trace, reason = alternate(step, step, np.ones(1), np.ones(1), 0.0, 60)
    assert reason == STOP_CAP
    assert len(trace) == 60
    assert len(calls) == 60 + 2 * 4  # probes at k = 5, 10, 20 and 40


def test_alternate_translation_whose_step_converges_stops_at_its_first_converging_probe():
    # values fall by 0.1 a half-step plus a residue that shrinks by about
    # 0.45 a half-step: the step is still 1.5e-4 from its limit at k = 9,
    # and only settles to tau at k = 26, where the exact test alone stops
    half = lambda target: (1.0, target, target - 0.1 - 0.05 * math.exp(8 * (target[0] - 1)))
    calls = []
    step = counted(half, calls)
    _, _, _, trace, reason = alternate(step, step, np.ones(1), np.ones(1), 0.0, 200)
    assert reason == STOP_DRIFT
    assert len(trace) == 9
    assert len(calls) == 9 + 2  # one probe


def test_alternate_probe_that_lands_beyond_the_float_range_confirms_nothing():
    # the left side's values leave the float range below a target of -19.5,
    # which the run never reaches (its last left target is -18) but every
    # probe's landing does
    left = lambda target: (1.0, target, target - 1 if target[0] > -19.5 else np.full(1, math.inf))
    right = lambda target: (2.0, target, target - 1)
    _, _, _, trace, reason = alternate(left, right, np.zeros(1), np.zeros(1), 0.0, 20)
    assert reason == STOP_CAP
    assert len(trace) == 20


def test_alternate_zero_step_is_a_cycle_not_a_drift():
    # constant values, so every step is zero; the left parameters settle only
    # at k = 3, so the parameters first repeat at k = 5, where the drift test
    # also runs for the first time
    params = iter([np.zeros(1), np.ones(1), np.ones(1)])
    left = lambda target: (2.0, next(params), np.full(1, 3.0))
    right = lambda target: (1.0, np.ones(1), np.full(1, 4.0))
    _, _, _, trace, reason = alternate(left, right, np.zeros(1), np.full(1, 4.0), 0.0, 100)
    assert reason == STOP_CYCLE
    assert len(trace) == 5


def test_alternate_translation_with_changing_error_does_not_stop():
    # the values fall by 1 per half-step and the error halves with them
    half = lambda target: (2.0 ** target[0], target, target - 1)
    _, _, _, trace, reason = alternate(half, half, np.zeros(1), np.zeros(1), 0.0, 8)
    assert reason == STOP_CAP
    assert len(trace) == 8


def test_alternate_translated_cycle_step_tolerance_is_relative():
    # at values near 1e12, tau is about 1e3: steps of 1e4 that differ by 0.5
    # once (the half-step from the target 1e12 - 1e4) are equal within tau,
    # though not within 1e-9 absolute
    top = 1e12
    half = lambda target: (1.0, target, target - 5e3 + 0.5 * (target[0] == top - 1e4))
    _, _, _, trace, reason = alternate(half, half, np.zeros(1), np.full(1, top), 0.0, 20)
    assert reason == STOP_DRIFT
    assert len(trace) == 5


def test_alternate_error_tolerance_ignores_an_offset_of_the_values():
    # values near 1e6 that translate while the error falls by 2e-7 a period:
    # a tolerance of 1e-9 times the values (1e-3) would call that a repeat
    half = lambda target: (1.0 + 1e-7 * (target[0] - 1e6), target, target - 1)
    _, _, _, trace, reason = alternate(half, half, np.zeros(1), np.full(1, 1e6), 0.0, 30)
    assert reason == STOP_CAP
    assert len(trace) == 30


# --- jumps to the limit of a converging run -----------------------------------------


def halving(error):
    """Half-step stub: error(target), the target as parameters and half the
    target as values, so the run closes in on 0 by a ratio of 1/4 a period."""
    return lambda target: (error(target), target, target / 2)


def size(target):
    return float(np.max(np.abs(target)))


def test_alternate_jumps_to_the_limit_of_a_geometric_run():
    # without the jump the error, the target's size 2^(1 - k), reaches 1e-6
    # at k = 21; at k = 8 the values extrapolate to 0, where one period
    # lands with error 0, so the run stops at k = 10 without a discarded
    # period
    calls = []
    half = counted(halving(size), calls)
    delta, left, right, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 1e-6, 100)
    assert reason == STOP_CONVERGED
    assert [k for k, _ in trace] == list(range(1, 11))
    assert len(calls) == 10
    assert [d for _, d in trace[-3:]] == [2.0**-7, 0.0, 0.0]
    # the best is the landing, k = 10; its left parameters come from k = 9
    assert (delta, left.tolist(), right.tolist()) == (0.0, [0.0], [0.0])


def test_alternate_jump_is_taken_only_within_the_cap():
    # the same run capped at 9 half-steps: a jump at k = 8 would need k = 10
    calls = []
    half = counted(halving(size), calls)
    _, _, _, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 1e-6, 9)
    assert reason == STOP_CAP
    assert len(trace) == len(calls) == 9


def test_alternate_makes_no_jump_at_an_unsteady_ratio():
    # every third half-step shrinks the values by 0.2 instead of 0.5, so the
    # ratios of consecutive periods differ by far more than RATIO_STEADY
    calls = []
    half = counted(lambda t: (size(t), t, t * (0.5 if len(calls) % 3 else 0.2)), calls)
    _, _, _, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 0.0, 20)
    assert reason == STOP_CAP
    assert len(trace) == len(calls) == 20


@pytest.mark.parametrize(
    "error",
    [
        lambda t: 1.0,  # constant errors
        lambda t: 1.0 if t[0] < 2.0**-4 else size(t),  # they stop falling from k = 5
    ],
)
def test_alternate_makes_no_jump_while_errors_do_not_fall(error):
    calls = []
    half = counted(halving(error), calls)
    _, _, _, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 0.0, 20)
    assert reason == STOP_CAP
    assert len(trace) == len(calls) == 20


def test_alternate_discards_a_worse_landing_and_waits_until_twice_the_half_step():
    # the error jumps to 5 near the limit 0: the periods run from there at
    # k = 8 and k = 16 land worse than the best, so neither enters the trace
    calls = []
    half = counted(halving(lambda t: size(t) + 5.0 * (size(t) < 1e-9)), calls)
    _, _, _, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 0.0, 20)
    assert reason == STOP_CAP
    assert trace == tuple((k, 2.0 ** (1 - k)) for k in range(1, 21))
    probes = [i for i, target in enumerate(calls) if size(target) < 1e-9]
    assert probes == [8, 9, 18, 19]  # after half-steps 8 and 16
    assert len(calls) == 24


def test_alternate_jump_whose_first_half_step_is_better_waits_one_period():
    # the period from the limit lands at 0.5, below the best, but its first
    # half-step fits the extrapolated values to 0.25: taking the period
    # would leave a trace entry below the best, so the run goes on and
    # tries again one period later
    calls = []
    jumps = iter([0.25, 0.5, 0.25, 0.5])
    error = lambda t: next(jumps) if size(t) < 1e-9 else 1.0 + size(t)
    half = counted(halving(error), calls)
    _, _, _, trace, reason = alternate(half, half, np.ones(1), np.ones(1), 0.0, 12)
    assert reason == STOP_CAP
    assert [k for k, _ in trace] == list(range(1, 13))
    assert min(d for _, d in trace) > 1.0
    assert [i for i, target in enumerate(calls) if size(target) < 1e-9] == [8, 9, 12, 13]


# --- extrapolation on synthetic histories -----------------------------------------


def history_of(sides, errors):
    """``_extrapolate``'s history from the values of each half-step's side,
    the start first: entry j concatenates the sides of half-steps j-1 and j
    and carries errors[j-1]."""
    return [(np.concatenate((a, b)), d) for a, b, d in zip(sides, sides[1:], errors)]


def settling_sides(rates, half_steps=8):
    """Two values per side that fall by 0.1 a half-step plus a residue
    starting at (0.05, 0.1) and scaled by rates[j] after half-step j."""
    residue, sides = 0.05, []
    for j in range(half_steps + 1):
        sides.append(np.array([1.0, -2.0]) - 0.1 * j + residue * np.array([1.0, 2.0]))
        residue *= rates[j]
    return sides


#: Repeating errors, one value per parity.
REPEATING = [1.0 if j % 2 else 0.5 for j in range(1, 9)]

#: Errors that fall strictly at both parities.
FALLING = [2.0 - 0.1 * j for j in range(1, 9)]


def test_translation_extrapolates_a_geometric_step_to_its_limit():
    # the residue shrinks by 0.6 a half-step, so the step's change shrinks by
    # rho = 0.36 a period at either parity, and the step tends to -0.2
    history = history_of(settling_sides([0.6] * 9), REPEATING)
    kind, step, allowance = _extrapolate(history)
    assert kind == "converging"
    np.testing.assert_allclose(step, -0.2, rtol=0, atol=1e-14)
    (v0, _), (v2, _), (v4, _) = history[-1], history[-3], history[-5]
    change = np.max(np.abs(v0 - 2 * v2 + v4))
    assert change > 1e-3  # far from the exact test's tau
    assert allowance == pytest.approx(4 * change * 0.36 / 0.64, rel=1e-12)


def test_translation_with_an_unsteady_ratio_is_none():
    # the residue's rate drops from 0.6 to 0.3 after half-step 6: the latest
    # ratio is 0.30 against 0.36 at the other parity, more than 10 % apart
    assert _extrapolate(history_of(settling_sides([0.6] * 6 + [0.3] * 3), REPEATING)) is None


def test_translation_whose_errors_of_one_parity_still_fall_is_none():
    # the odd errors fall by 1e-10 a period, within AGREE_TOL but far above
    # the rounding slack at values near 1; the even ones do not fall, so
    # there is no jump either
    errors = [1.0 - 1e-10 * (j // 2) if j % 2 else 0.5 for j in range(1, 9)]
    assert _extrapolate(history_of(settling_sides([0.6] * 9), errors)) is None
    assert _extrapolate(history_of(settling_sides([0.6] * 9), REPEATING))[0] == "converging"


@pytest.mark.parametrize("half_steps", [5, 6, 7, 8])
def test_translation_of_an_exact_step_is_the_latest_step(half_steps):
    # a constant step is found from five half-steps on as it always was: the
    # latest step itself, bit for bit, with no allowance, and the other
    # parity's errors play no part
    sides = [np.array([1.0, -2.0]) - 0.1 * j for j in range(half_steps + 1)]
    errors = [1.0 - 1e-6 * j if (half_steps - j) % 2 else 0.5 for j in range(1, half_steps + 1)]
    history = history_of(sides, errors)
    kind, step, allowance = _extrapolate(history)
    assert kind == "exact"
    assert np.array_equal(step, history[-1][0] - history[-3][0])
    assert allowance == 0.0


def shrinking_sides(rho, first_step, offset=0.0):
    """Two values per side, from (1, -2), that fall by a step shrinking by
    the square root of ``rho`` a half-step, so by ``rho`` a period, from
    ``first_step`` / 2; ``offset`` is added to the odd half-steps' side.
    The even side's values tend to (1, -2) - first_step / 2 / (1 - sqrt(rho))."""
    rate, step, value, sides = math.sqrt(rho), first_step / 2, np.array([1.0, -2.0]), []
    for j in range(9):
        sides.append(value + offset * (j % 2))
        value, step = value - step, step * rate
    return sides


@pytest.mark.parametrize("rho, first_step", [(0.5, 0.2), (0.9, 2e-4)])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_extrapolation_jumps_to_the_limit_of_a_geometric_run(rho, first_step, offset):
    # a geometric run extrapolates to its limit; steps near 1e-4 that shrink
    # by 0.9 a period change by about 2e-6, far above AGREE_TOL times the
    # sides' spread but below AGREE_TOL times values near 1e6, so the jump
    # must not be refused at an offset.  The offset side's steps carry its
    # rounding into the ratio, hence the looser tolerance there
    history = history_of(shrinking_sides(rho, first_step, offset), FALLING)
    kind, values, _ = _extrapolate(history)
    assert kind == "jump"
    limit = np.array([1.0, -2.0]) - first_step / 2 / (1 - math.sqrt(rho))
    np.testing.assert_allclose(values, limit, rtol=0, atol=1e-12 + 1e-13 * offset)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_extrapolation_makes_no_jump_along_a_step_that_has_not_shrunk(offset):
    # the step shrinks by rho = 1 - 1e-10 a period, so its change, about
    # 2e-11, is within AGREE_TOL of the sides' spread: a translation, whose
    # gain rho / (1 - rho) = 1e10 would carry the values about 2e9 away.  An
    # offset of one side moves the values' size, but not the refusal
    history = history_of(shrinking_sides(1 - 1e-10, 0.2, offset), FALLING)
    assert _extrapolate(history) is None
