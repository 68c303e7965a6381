"""Machine-readable fit reports and dataset ingestion.

Reports serialize to JSON and CSV with floats at full round-trip precision,
so a report evaluates to exactly the fitted function; rounding for
presentation is a display concern of consumers, not of the report.
Datasets are two-column CSV files, comma separated with a decimal point, and
an optional single header line detected by a non-numeric first row; a
leading UTF-8 byte-order mark is ignored.

Fits in max-times mode are performed on log-transformed data; the report
then carries exp-mapped coefficients and errors so every reported quantity
lives in the semifield named by ``mode``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .clustering import SampleSet
from .fitting import PolyFit, RationalFit
from .puiseux import PuiseuxPoly, poly_values

MODE_MAXPLUS = "maxplus"
MODE_MAXTIMES = "maxtimes"

POLY_STOP = "completed"


def load_samples(path: str | Path) -> SampleSet:
    """Read a two-column numeric CSV, skipping one optional header line and
    a leading UTF-8 byte-order mark."""
    rows: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                pair = (float(row[0]), float(row[1]))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: non-numeric cell") from None
            if any(math.isnan(v) or math.isinf(v) for v in pair):
                raise ValueError(f"{path}: line {lineno}: values must be finite")
            rows.append(pair)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return SampleSet.from_points(rows)


def to_maxplus_samples(samples: SampleSet, mode: str) -> SampleSet:
    """Log-transform max-times data; max-plus data passes through."""
    if mode == MODE_MAXPLUS:
        return samples
    if mode == MODE_MAXTIMES:
        for v in (*samples.xs.tolist(), *samples.ys.tolist()):
            if v <= 0:
                raise ValueError(f"max-times samples must be positive, got {v!r}")
        return SampleSet(
            (math.log(x) for x in samples.xs), (math.log(y) for y in samples.ys)
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class FitReport:
    """Everything needed to reproduce, evaluate and audit a fit."""

    mode: str
    n: int
    delta_star: float
    chebyshev_error: float
    trace: tuple[tuple[int, float], ...]
    stop_reason: str
    numerator_exponents: tuple[float, ...]
    numerator_coefficients: tuple[float, ...]
    l: int | None = None
    denominator_exponents: tuple[float, ...] | None = None
    denominator_coefficients: tuple[float, ...] | None = None

    @property
    def is_rational(self) -> bool:
        return self.denominator_exponents is not None

    def to_dict(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "n": self.n,
        }
        if self.l is not None:
            out["l"] = self.l
        out["numerator"] = {
            "exponents": [float(v) for v in self.numerator_exponents],
            "coefficients": [float(v) for v in self.numerator_coefficients],
        }
        if self.is_rational:
            out["denominator"] = {
                "exponents": [float(v) for v in self.denominator_exponents],
                "coefficients": [float(v) for v in self.denominator_coefficients],
            }
        out["delta_star"] = float(self.delta_star)
        out["chebyshev_error"] = float(self.chebyshev_error)
        out["trace"] = [[k, float(d)] for k, d in self.trace]
        out["stop_reason"] = self.stop_reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Flat key/value rendering of ``to_dict`` for spreadsheets; JSON is
        the round-trip format consumed by eval/sample."""
        rows = [("field", "value")]
        for key, value in self.to_dict().items():
            if key in ("numerator", "denominator"):
                pairs = zip(value["exponents"], value["coefficients"])
                for j, (p, t) in enumerate(pairs, start=1):
                    rows += [(f"{key}_exponent_{j}", p), (f"{key}_coefficient_{j}", t)]
            elif key == "trace":
                rows += [(f"delta_{k}", d) for k, d in value]
            else:
                rows.append((key, value))
        return "".join(f"{key},{value}\n" for key, value in rows)

    @classmethod
    def from_dict(cls, data: dict) -> "FitReport":
        """Parse a report object; a missing field, a value of the wrong JSON
        type, an unknown mode, malformed monomial lists, 'l' without
        'denominator' or the reverse, an 'n' or 'l' other than its part's
        monomial count, a max-times coefficient that is not positive, or a
        trace entry that is not a [step, error] pair raise ValueError."""
        _expect(data, dict, "a report")
        mode = _field(data, "mode")
        if mode not in (MODE_MAXPLUS, MODE_MAXTIMES):
            raise ValueError(f"unknown mode {mode!r}")
        num_p, num_t = _monomial_lists(data, "numerator")
        if ("l" in data) != ("denominator" in data):
            raise ValueError(
                "a rational report has both 'l' and 'denominator', a polynomial one neither"
            )
        n = _monomial_count(data, "n", num_p, "numerator")
        l = den_p = den_t = None
        if "denominator" in data:
            den_p, den_t = _monomial_lists(data, "denominator")
            l = _monomial_count(data, "l", den_p, "denominator")
        if mode == MODE_MAXTIMES and min(num_t + (den_t or ())) <= 0:
            raise ValueError("max-times coefficients must be positive")
        trace = []
        for entry in _expect(_field(data, "trace"), list, "trace"):
            if len(_numbers(entry, "a trace entry")) != 2:
                raise ValueError("a trace entry must be a [step, error] pair")
            trace.append((_expect(entry[0], int, "a trace step"), float(entry[1])))
        return cls(
            mode=mode,
            n=n,
            l=l,
            numerator_exponents=num_p,
            numerator_coefficients=num_t,
            denominator_exponents=den_p,
            denominator_coefficients=den_t,
            delta_star=float(_expect(_field(data, "delta_star"), _NUMBER, "delta_star")),
            chebyshev_error=float(
                _expect(_field(data, "chebyshev_error"), _NUMBER, "chebyshev_error")
            ),
            trace=tuple(trace),
            stop_reason=_expect(_field(data, "stop_reason"), str, "stop_reason"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


_NUMBER = (int, float)
_JSON_KINDS = {
    dict: "an object", list: "a list", int: "an integer", _NUMBER: "a number", str: "a string"
}


def _field(data: dict, key: str, where: str = "the report"):
    """``data[key]``, else ValueError naming the missing field."""
    if key not in data:
        raise ValueError(f"{where} has no {key!r} field")
    return data[key]


def _expect(value, kind, what: str):
    """``value`` if it has the JSON type ``kind``, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}")
    return value


def _numbers(value, what: str) -> tuple:
    """A JSON list of numbers as a tuple, else ValueError."""
    for v in _expect(value, list, what):
        _expect(v, _NUMBER, f"every entry of {what}")
    return tuple(value)


def _monomial_lists(data: dict, part: str) -> tuple[tuple, tuple]:
    lists = _expect(_field(data, part), dict, part)
    exponents = _numbers(_field(lists, "exponents", part), f"{part} exponents")
    coefficients = _numbers(_field(lists, "coefficients", part), f"{part} coefficients")
    if not exponents or len(exponents) != len(coefficients):
        raise ValueError(
            f"{part}: exponents and coefficients must be nonempty and of equal length"
        )
    return exponents, coefficients


def _monomial_count(data: dict, key: str, exponents: tuple, part: str) -> int:
    """``data[key]`` if it counts ``part``'s monomials, else ValueError."""
    count = _expect(_field(data, key), int, key)
    if count != len(exponents):
        raise ValueError(f"{key} is {count}, but the {part} has {len(exponents)} monomials")
    return count


def _map_mode(value: float, mode: str) -> float:
    if mode != MODE_MAXTIMES:
        return value
    try:
        return math.exp(value)
    except OverflowError:
        raise ValueError(
            f"max-times value exp({value!r}) overflows the float range"
        ) from None


def _map_coefficients(coefficients: tuple[float, ...], mode: str) -> tuple[float, ...]:
    """``_map_mode`` of each coefficient; a max-times coefficient that
    underflows to 0.0 raises ValueError, as no report can carry its log."""
    mapped = tuple(_map_mode(t, mode) for t in coefficients)
    if mode == MODE_MAXTIMES and 0.0 in mapped:
        t = coefficients[mapped.index(0.0)]
        raise ValueError(f"max-times coefficient exp({t!r}) underflows the float range")
    return mapped


def report_from_poly_fit(fit: PolyFit, mode: str) -> FitReport:
    return FitReport(
        mode=mode,
        n=len(fit.exponent_result.exponents),
        numerator_exponents=fit.exponent_result.exponents,
        numerator_coefficients=_map_coefficients(fit.coefficients, mode),
        delta_star=_map_mode(fit.delta_star, mode),
        chebyshev_error=_map_mode(fit.delta_star / 2, mode),
        trace=((1, _map_mode(fit.delta_star, mode)),),
        stop_reason=POLY_STOP,
    )


def report_from_rational_fit(fit: RationalFit, mode: str) -> FitReport:
    return FitReport(
        mode=mode,
        n=len(fit.numerator_exponents),
        l=len(fit.denominator_exponents),
        numerator_exponents=fit.numerator_exponents,
        numerator_coefficients=_map_coefficients(fit.numerator_coefficients, mode),
        denominator_exponents=fit.denominator_exponents,
        denominator_coefficients=_map_coefficients(fit.denominator_coefficients, mode),
        delta_star=_map_mode(fit.delta_star, mode),
        chebyshev_error=_map_mode(fit.delta_star / 2, mode),
        trace=tuple((k, _map_mode(d, mode)) for k, d in fit.trace),
        stop_reason=fit.stop_reason,
    )


def evaluator(report: FitReport) -> Callable[[Sequence[float]], list[float]]:
    """Turn a report into the fitted function on its native domain, which
    maps a sequence of points to their values in one pass.

    Max-times reports are evaluated in the log domain: coefficients and the
    arguments are logged, and the max-plus values are mapped back with exp,
    one point at a time.  Each polynomial value is ``poly_values`` over the
    canonical monomials, as in ``eval_poly``.  A max-times point that is not
    positive, a point whose argument is not finite, and a value that
    overflows the float range raise ValueError; of several, the first
    point's raises, with the message a point-by-point evaluation would give.
    """
    maxtimes = report.mode == MODE_MAXTIMES

    def monomials(exponents, coefficients) -> tuple[np.ndarray, np.ndarray]:
        if maxtimes:
            coefficients = map(math.log, coefficients)
        poly = PuiseuxPoly(zip(exponents, coefficients))
        return np.array(poly.exponents), np.array(poly.coefficients)

    num = monomials(report.numerator_exponents, report.numerator_coefficients)
    den = None
    if report.is_rational:
        den = monomials(report.denominator_exponents, report.denominator_coefficients)

    def apply(points: Sequence[float]) -> list[float]:
        ts: list[float] = []
        problem = None  # the first point that cannot be evaluated stops the pass
        for x in points:
            if maxtimes and x <= 0:
                problem = "max-times arguments must be positive"
                break
            t = math.log(x) if maxtimes else x
            if not math.isfinite(t):
                problem = f"polynomials are evaluated at finite x, got {t!r}"
                break
            ts.append(t)
        value = poly_values(*num, ts)
        if den is not None:
            with np.errstate(invalid="ignore"):
                value = value - poly_values(*den, ts)
        out = []
        for x, v in zip(points, value.tolist()):
            if not math.isfinite(v):
                raise ValueError(f"the fitted value at {x!r} overflows the float range")
            out.append(_map_mode(v, report.mode))
        if problem is not None:
            raise ValueError(problem)
        return out

    return apply
