"""Machine-readable fit reports and dataset ingestion.

Reports serialize to JSON with floats rounded to 12 significant digits;
4-decimal presentation is a display concern of consumers, not of the
report.  Datasets are two-column CSV files, comma separated with a decimal
point, and an optional single header line detected by a non-numeric first
row.

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
from typing import Callable

from .clustering import SampleSet
from .fitting import PolyFit, RationalFit
from .puiseux import PuiseuxPoly, eval_poly

MODE_MAXPLUS = "maxplus"
MODE_MAXTIMES = "maxtimes"

POLY_STOP = "completed"


def _sig12(v: float) -> float:
    return float(f"{v:.12g}")


def load_samples(path: str | Path) -> SampleSet:
    """Read a two-column numeric CSV, skipping one optional header line."""
    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
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
        for v in (*samples.xs, *samples.ys):
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
            "exponents": [_sig12(v) for v in self.numerator_exponents],
            "coefficients": [_sig12(v) for v in self.numerator_coefficients],
        }
        if self.is_rational:
            out["denominator"] = {
                "exponents": [_sig12(v) for v in self.denominator_exponents],
                "coefficients": [_sig12(v) for v in self.denominator_coefficients],
            }
        out["delta_star"] = _sig12(self.delta_star)
        out["chebyshev_error"] = _sig12(self.chebyshev_error)
        out["trace"] = [[k, _sig12(d)] for k, d in self.trace]
        out["stop_reason"] = self.stop_reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Flat key/value rendering for spreadsheets; JSON is the round-trip
        format consumed by eval/sample."""
        lines = [("field", "value")]
        lines.append(("mode", self.mode))
        lines.append(("n", str(self.n)))
        if self.l is not None:
            lines.append(("l", str(self.l)))
        for j, (p, t) in enumerate(
            zip(self.numerator_exponents, self.numerator_coefficients), start=1
        ):
            lines.append((f"numerator_exponent_{j}", repr(_sig12(p))))
            lines.append((f"numerator_coefficient_{j}", repr(_sig12(t))))
        if self.is_rational:
            for j, (p, t) in enumerate(
                zip(self.denominator_exponents, self.denominator_coefficients), start=1
            ):
                lines.append((f"denominator_exponent_{j}", repr(_sig12(p))))
                lines.append((f"denominator_coefficient_{j}", repr(_sig12(t))))
        lines.append(("delta_star", repr(_sig12(self.delta_star))))
        lines.append(("chebyshev_error", repr(_sig12(self.chebyshev_error))))
        for k, d in self.trace:
            lines.append((f"delta_{k}", repr(_sig12(d))))
        lines.append(("stop_reason", self.stop_reason))
        return "\n".join(f"{k},{v}" for k, v in lines) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FitReport":
        if data["mode"] not in (MODE_MAXPLUS, MODE_MAXTIMES):
            raise ValueError(f"unknown mode {data['mode']!r}")
        num_p, num_t = _monomial_lists(data, "numerator")
        den_p = den_t = None
        if data.get("denominator"):
            den_p, den_t = _monomial_lists(data, "denominator")
        return cls(
            mode=data["mode"],
            n=int(data["n"]),
            l=int(data["l"]) if "l" in data else None,
            numerator_exponents=num_p,
            numerator_coefficients=num_t,
            denominator_exponents=den_p,
            denominator_coefficients=den_t,
            delta_star=float(data["delta_star"]),
            chebyshev_error=float(data["chebyshev_error"]),
            trace=tuple((int(k), float(d)) for k, d in data["trace"]),
            stop_reason=data["stop_reason"],
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


def _monomial_lists(data: dict, part: str) -> tuple[tuple, tuple]:
    exponents = tuple(data[part]["exponents"])
    coefficients = tuple(data[part]["coefficients"])
    if not exponents or len(exponents) != len(coefficients):
        raise ValueError(
            f"{part}: exponents and coefficients must be nonempty and of equal length"
        )
    return exponents, coefficients


def _map_mode(value: float, mode: str) -> float:
    return math.exp(value) if mode == MODE_MAXTIMES else value


def report_from_poly_fit(fit: PolyFit, mode: str) -> FitReport:
    return FitReport(
        mode=mode,
        n=len(fit.exponent_result.exponents),
        numerator_exponents=fit.exponent_result.exponents,
        numerator_coefficients=tuple(_map_mode(t, mode) for t in fit.coefficients),
        delta_star=_map_mode(fit.delta_star, mode),
        chebyshev_error=_map_mode(fit.delta_star / 2, mode),
        trace=((1, _map_mode(fit.delta_star, mode)),),
        stop_reason=POLY_STOP,
    )


def report_from_rational_fit(fit: RationalFit, mode: str, n: int, l: int) -> FitReport:
    return FitReport(
        mode=mode,
        n=n,
        l=l,
        numerator_exponents=fit.numerator_exponents,
        numerator_coefficients=tuple(
            _map_mode(t, mode) for t in fit.numerator_coefficients
        ),
        denominator_exponents=fit.denominator_exponents,
        denominator_coefficients=tuple(
            _map_mode(t, mode) for t in fit.denominator_coefficients
        ),
        delta_star=_map_mode(fit.delta_star, mode),
        chebyshev_error=_map_mode(fit.delta_star / 2, mode),
        trace=tuple((k, _map_mode(d, mode)) for k, d in fit.trace),
        stop_reason=fit.stop_reason,
    )


def evaluator(report: FitReport) -> Callable[[float], float]:
    """Turn a report into the fitted function on its native domain.

    Max-times reports are evaluated in the log domain: coefficients and the
    argument are logged, and the max-plus value is mapped back with exp.
    """
    maxtimes = report.mode == MODE_MAXTIMES

    def poly(exponents, coefficients) -> PuiseuxPoly:
        if maxtimes:
            coefficients = map(math.log, coefficients)
        return PuiseuxPoly(zip(exponents, coefficients))

    num = poly(report.numerator_exponents, report.numerator_coefficients)
    den = None
    if report.is_rational:
        den = poly(report.denominator_exponents, report.denominator_coefficients)

    def apply(x: float) -> float:
        if maxtimes:
            if x <= 0:
                raise ValueError("max-times arguments must be positive")
            x = math.log(x)
        value = eval_poly(num, x)
        if den is not None:
            value -= eval_poly(den, x)
        return _map_mode(value, report.mode)

    return apply
