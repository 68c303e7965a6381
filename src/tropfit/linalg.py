"""Dense max-plus vectors and matrices, the Chebyshev-type distance, and
best-approximate solvers for one- and two-sided linear equations.

The one-sided solver rests on residuation: for regular A and b the vector
(b- A)- is the greatest x with A x <= b, the scalar

    delta = (A (b- A)-)- b

is the squared best-approximation error of A x = b, and sqrt(delta) (b- A)-
attains it.  ``residuate`` computes both for fitting and for the solvers.
The two-sided equation A x = B y is handled by alternating one-sided solves
until the error hits ONE or an iterate repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .maxplus import (
    ZERO,
    ONE,
    MaxPlusScalar,
    ensure_scalar,
    oplus,
    otimes,
    to_float,
)

#: Quantization step for the iterate-repetition test in alternating_solve.
#: Exact float equality would be defeated by accumulated rounding drift.
CYCLE_QUANTUM = 1e-12

#: Tolerance below which a squared error counts as exactly ONE.
EXACT_TOL = 1e-9


class _Infinite:
    """Distance value for vectors with different supports; ordered above
    every scalar (ZERO included)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self


INFINITE = _Infinite()


class TropVector:
    """Immutable vector of max-plus scalars."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[MaxPlusScalar]):
        self._entries = tuple(ensure_scalar(e) for e in entries)
        if not self._entries:
            raise ValueError("empty vector")

    @property
    def entries(self) -> tuple[MaxPlusScalar, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> MaxPlusScalar:
        return self._entries[i]

    def __iter__(self) -> Iterator[MaxPlusScalar]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"TropVector({list(self._entries)!r})"

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self._entries) if e is not ZERO)

    def is_regular(self) -> bool:
        """True when every entry is nonzero (finite)."""
        return all(e is not ZERO for e in self._entries)


class TropMatrix:
    """Immutable row-major matrix of max-plus scalars."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[MaxPlusScalar]]):
        self._rows = tuple(tuple(ensure_scalar(e) for e in row) for row in rows)
        if not self._rows or not self._rows[0]:
            raise ValueError("empty matrix")
        width = len(self._rows[0])
        if any(len(row) != width for row in self._rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[MaxPlusScalar, ...], ...]:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), len(self._rows[0]))

    def __getitem__(self, ij: tuple[int, int]) -> MaxPlusScalar:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"TropMatrix({[list(r) for r in self._rows]!r})"

    def column(self, j: int) -> tuple[MaxPlusScalar, ...]:
        return tuple(row[j] for row in self._rows)

    def is_row_regular(self) -> bool:
        return all(any(e is not ZERO for e in row) for row in self._rows)

    def is_column_regular(self) -> bool:
        m, n = self.shape
        return all(any(row[j] is not ZERO for row in self._rows) for j in range(n))

    def is_regular(self) -> bool:
        return self.is_row_regular() and self.is_column_regular()


def matvec(a: TropMatrix, x: TropVector) -> TropVector:
    """Max-plus matrix-vector product: result_i = max_j (a_ij + x_j)."""
    m, n = a.shape
    if len(x) != n:
        raise ValueError(f"shape mismatch: {a.shape} times {len(x)}")
    out = []
    for row in a.rows:
        acc: MaxPlusScalar = ZERO
        for aij, xj in zip(row, x):
            acc = oplus(acc, otimes(aij, xj))
        out.append(acc)
    return TropVector(out)


def conjugate(x: TropVector) -> TropVector:
    """Multiplicative conjugate transpose: entrywise negation, ZERO preserved."""
    return TropVector(ZERO if e is ZERO else -e for e in x)


def distance(x: TropVector, y: TropVector) -> MaxPlusScalar | _Infinite:
    """Tropical distance (y- x) oplus (x- y).

    Equals the Chebyshev metric max_i |x_i - y_i| on co-supported finite
    vectors, ONE when both vectors are all-ZERO, and INFINITE when the
    supports differ.
    """
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    d: MaxPlusScalar = ZERO
    empty = True
    for xi, yi in zip(x, y):
        if (xi is ZERO) != (yi is ZERO):
            return INFINITE
        if xi is ZERO:
            continue
        empty = False
        gap = xi - yi if xi >= yi else yi - xi
        if d is ZERO or gap > d:
            d = gap
    if empty:
        return ONE
    return d


@dataclass(frozen=True)
class ApproxSolution:
    """Best approximate solution of A x = b with squared error delta."""

    delta: MaxPlusScalar
    solution: TropVector
    exact: bool


def residuate(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Residuation of A x = b for regular A (ZERO entries as -inf) and finite b.

    Returns the squared error delta = max_i (b_i - max_j (a_ij + xhat_j)) and
    xhat = (b- A)-, the greatest x with A x <= b, whose entries are
    xhat_j = -max_i (a_ij - b_i).  The best approximate solution is
    delta/2 + xhat.
    """
    xhat = -np.max(a - b[:, None], axis=0)
    delta = float(np.max(b - np.max(a + xhat, axis=1)))
    return delta, xhat


def _dense(a: TropMatrix) -> np.ndarray:
    return np.array([[to_float(e) for e in row] for row in a.rows])


def best_approx_solve(a: TropMatrix, b: TropVector) -> ApproxSolution:
    """Solve A x = b in the best-approximation sense.

    Returns the squared error delta = (A (b- A)-)- b and the minimizer
    sqrt(delta) (b- A)-; the achieved distance is sqrt(delta) and no regular
    x does better.  When delta == ONE the equation is consistent and the
    returned vector is its greatest exact solution.
    """
    if len(b) != a.shape[0]:
        raise ValueError("dimension mismatch")
    if not a.is_regular():
        raise ValueError("matrix must be regular (no zero row or column)")
    if not b.is_regular():
        raise ValueError("right-hand side must be regular")
    delta, xhat = residuate(_dense(a), np.array(b.entries))
    solution = TropVector((delta / 2 + xhat).tolist())
    return ApproxSolution(delta, solution, exact=abs(delta) <= EXACT_TOL)


@dataclass(frozen=True)
class TwoSidedSolution:
    """Output of alternating_solve: squared error, both vectors, stop reason."""

    delta: MaxPlusScalar
    x: TropVector
    y: TropVector
    reason: str  # "exact" | "cycle" | "iteration-cap"


def _quantize(v: np.ndarray) -> tuple[int, ...]:
    return tuple(round(e / CYCLE_QUANTUM) for e in v.tolist())


def alternating_solve(
    a: TropMatrix,
    b: TropMatrix,
    x0: TropVector | None = None,
    max_iter: int = 10_000,
) -> TwoSidedSolution:
    """Best approximate solution of the two-sided equation A x = B y.

    Alternates one-sided solves: fix x and solve B y = A x for y, then fix y
    and solve A x = B y for x, tracking the squared error delta at each half
    step.  Terminates when delta reaches ONE (exact solution) or when a newly
    produced vector repeats an earlier one of the same side, which the error
    sequence cannot escape.  Vectors are compared after quantization to
    CYCLE_QUANTUM so rounding drift cannot defeat the repetition test.  The
    iteration cap guards against non-termination under float noise and is
    reported as its own outcome.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    if not a.is_regular() or not b.is_regular():
        raise ValueError("A and B must be regular")
    if x0 is None:
        x0 = TropVector([ONE] * a.shape[1])
    if len(x0) != a.shape[1] or not x0.is_regular():
        raise ValueError("x0 must be a regular vector conforming to A")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    am, bm = _dense(a), _dense(b)
    x = np.array(x0.entries)
    seen = {(1, _quantize(x))}
    reason = "iteration-cap"
    for k in range(2 * max_iter):
        if k % 2 == 0:
            delta, yhat = residuate(bm, np.max(am + x, axis=1))
            y = new = delta / 2 + yhat
        else:
            delta, xhat = residuate(am, np.max(bm + y, axis=1))
            x = new = delta / 2 + xhat
        if abs(delta) <= EXACT_TOL:
            reason = "exact"
            break
        key = (k % 2, _quantize(new))
        if key in seen:
            reason = "cycle"
            break
        seen.add(key)
    return TwoSidedSolution(delta, TropVector(x.tolist()), TropVector(y.tolist()), reason)
