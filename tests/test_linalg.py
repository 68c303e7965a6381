"""Tropical linear algebra: products, conjugation, the distance function,
and the one- and two-sided best-approximation solvers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropfit import (
    INFINITE,
    ONE,
    ZERO,
    TropMatrix,
    TropVector,
    alternating_solve,
    best_approx_solve,
    conjugate,
    distance,
    matvec,
    tpow,
)

from oracles import (
    chebyshev,
    random_finite_matrix,
    random_finite_vector,
    random_regular_matrix,
)

#: Matrix generators: all entries finite, and about 40 % ZERO entries, which
#: reach the solvers' -inf path.
MATRICES = (random_finite_matrix, random_regular_matrix)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


# --- vectors, matrices, products -------------------------------------------


def test_vector_basics():
    v = TropVector([ZERO, 1.0, 2.0])
    assert len(v) == 3
    assert v.support() == (1, 2)
    assert not v.is_regular()
    assert TropVector([0.0, -1.0]).is_regular()
    with pytest.raises(ValueError):
        TropVector([])


def test_matrix_regularity():
    a = TropMatrix([[1.0, ZERO], [ZERO, 2.0]])
    assert a.is_regular()
    assert not TropMatrix([[ZERO, ZERO], [1.0, 2.0]]).is_row_regular()
    assert not TropMatrix([[ZERO, 1.0], [ZERO, 2.0]]).is_column_regular()
    with pytest.raises(ValueError):
        TropMatrix([[1.0], [2.0, 3.0]])


def test_matvec_identity():
    assert matvec(TropMatrix.identity(2), TropVector([3.0, 5.0])) == TropVector([3.0, 5.0])


def test_matvec_row_max():
    a = TropMatrix([[0.0, 0.0], [0.0, 0.0]])
    assert matvec(a, TropVector([1.0, 2.0])) == TropVector([2.0, 2.0])


def test_matvec_zero_absorption():
    a = TropMatrix([[1.0, ZERO], [ZERO, 2.0]])
    out = matvec(a, TropVector([ZERO, 3.0]))
    assert out[0] is ZERO
    assert out[1] == 5.0


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        matvec(TropMatrix.identity(2), TropVector([1.0, 2.0, 3.0]))


def test_conjugate_examples():
    assert conjugate(TropVector([3.0, 5.0])) == TropVector([-3.0, -5.0])
    out = conjugate(TropVector([ZERO, 1.0]))
    assert out[0] is ZERO and out[1] == -1.0
    assert conjugate(TropVector([0.0, 0.0])) == TropVector([0.0, 0.0])


# --- distance ----------------------------------------------------------------


def test_distance_examples():
    assert distance(TropVector([1.0, 2.0]), TropVector([1.0, 2.0])) == ONE
    assert distance(TropVector([0.0, 0.0]), TropVector([1.0, -1.0])) == 1.0
    assert distance(TropVector([ZERO, 1.0]), TropVector([1.0, 1.0])) is INFINITE


def test_distance_all_zero_vectors():
    z = TropVector([ZERO, ZERO])
    assert distance(z, z) == ONE


def test_infinite_orders_above_every_scalar():
    assert INFINITE > 1e300 and INFINITE > ZERO
    assert not INFINITE < 1e300
    assert 1e300 < INFINITE
    assert INFINITE >= INFINITE and not INFINITE > INFINITE


@given(st.lists(finite, min_size=1, max_size=8), st.data())
def test_distance_is_chebyshev_on_finite_vectors(xs, data):
    ys = [data.draw(finite) for _ in xs]
    x, y = TropVector(xs), TropVector(ys)
    assert distance(x, y) == pytest.approx(chebyshev(xs, ys), abs=1e-12)
    assert distance(x, y) == distance(y, x)
    assert distance(x, x) == ONE


# --- one-sided solver ---------------------------------------------------------


def test_best_approx_identity_case():
    sol = best_approx_solve(TropMatrix.identity(2), TropVector([3.0, 5.0]))
    assert sol.delta == ONE
    assert sol.exact
    assert sol.solution == TropVector([3.0, 5.0])


def test_best_approx_constant_column():
    # one-column matrix of ONEs fits a constant; grid search is the oracle
    a = TropMatrix([[0.0], [0.0]])
    b = TropVector([0.0, 2.0])
    sol = best_approx_solve(a, b)
    assert sol.delta == pytest.approx(2.0, abs=1e-12)
    assert sol.solution == TropVector([1.0])
    achieved = distance(matvec(a, sol.solution), b)
    assert achieved == pytest.approx(1.0, abs=1e-12)

    grid = np.arange(-5.0, 5.0, 1e-3)
    oracle = np.maximum(np.abs(grid - 0.0), np.abs(grid - 2.0)).min()
    assert achieved == pytest.approx(oracle, abs=2e-3)


def test_best_approx_requires_regularity():
    a = TropMatrix([[0.0, ZERO], [ZERO, 0.0]])
    with pytest.raises(ValueError):
        best_approx_solve(a, TropVector([1.0, ZERO]))
    with pytest.raises(ValueError):
        best_approx_solve(TropMatrix([[ZERO, 1.0], [ZERO, 2.0]]), TropVector([1.0, 1.0]))


def test_best_approx_optimality_sampling(rng):
    for make_matrix in MATRICES:
        for _ in range(20):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            a = make_matrix(rng, m, n)
            b = random_finite_vector(rng, m)
            sol = best_approx_solve(a, b)
            target = distance(matvec(a, sol.solution), b)
            assert target == pytest.approx(tpow(sol.delta, 0.5), abs=1e-9)
            for _ in range(200):
                x = random_finite_vector(rng, n)
                assert distance(matvec(a, x), b) >= target - 1e-9


def test_best_approx_exactness(rng):
    for make_matrix in MATRICES:
        for _ in range(50):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            a = make_matrix(rng, m, n)
            x_true = random_finite_vector(rng, n)
            b = matvec(a, x_true)
            sol = best_approx_solve(a, b)
            assert abs(sol.delta) <= 1e-9
            assert sol.exact
            assert distance(matvec(a, sol.solution), b) <= 1e-9
            # maximal solution dominates any exact one
            assert all(s >= t - 1e-12 for s, t in zip(sol.solution, x_true))


# --- two-sided solver ---------------------------------------------------------


def test_alternating_identity_case():
    eye = TropMatrix.identity(2)
    res = alternating_solve(eye, eye, TropVector([0.0, 0.0]))
    assert res.delta == ONE
    assert res.reason == "exact"
    assert res.x == TropVector([0.0, 0.0])
    assert res.y == TropVector([0.0, 0.0])


def test_alternating_against_grid_oracle():
    a = TropMatrix([[0.0], [0.0]])
    b = TropMatrix([[0.0], [1.0]])
    res = alternating_solve(a, b, TropVector([0.0]))
    achieved = distance(matvec(a, res.x), matvec(b, res.y))
    assert res.delta == pytest.approx(tpow(achieved, 2.0), abs=1e-9)

    xs = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    oracle = math.inf
    for xv in xs:
        d = np.maximum(np.abs(xv - xs), np.abs(xv - (1.0 + xs))).min()
        oracle = min(oracle, d)
    assert achieved == pytest.approx(oracle, abs=2e-3)


def test_alternating_requires_regularity():
    a = TropMatrix([[0.0, 1.0], [1.0, 0.0]])
    b = TropMatrix([[0.0, ZERO], [1.0, ZERO]])  # all-ZERO column
    with pytest.raises(ValueError):
        alternating_solve(a, b, TropVector([0.0, 0.0]))
    with pytest.raises(ValueError):
        alternating_solve(a, TropMatrix.identity(2), TropVector([ZERO, 0.0]))


def test_alternating_terminates_and_is_consistent(rng):
    for make_matrix in MATRICES:
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 6))
            a = make_matrix(rng, m, n)
            b = make_matrix(rng, m, l)
            res = alternating_solve(a, b)
            assert res.reason in {"exact", "cycle", "iteration-cap"}
            achieved = distance(matvec(a, res.x), matvec(b, res.y))
            assert res.delta == pytest.approx(tpow(achieved, 2.0), abs=1e-9)


def test_alternating_default_start_is_unit_vector():
    a = TropMatrix([[0.0], [0.0]])
    b = TropMatrix([[0.0], [1.0]])
    explicit = alternating_solve(a, b, TropVector([ONE]))
    default = alternating_solve(a, b)
    assert default == explicit
