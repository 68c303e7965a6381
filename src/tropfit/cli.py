"""Command-line front end.

Subcommands:

    gen-fixture OUT.csv                       write the bundled demo dataset
    fit poly INPUT.csv --n N [...]            polynomial fit, report on stdout
    fit rational INPUT.csv --n N --l L [...]  rational fit, report on stdout
    eval REPORT.json X [X ...]                evaluate a saved fit at points
    sample REPORT.json --from A --to B --steps K   evaluate on a uniform grid

Reports are JSON by default (``--output csv`` renders a flat key/value
table); eval and sample consume the JSON form.  Exit code is 0 on success
and 2 on any input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path
from typing import Sequence

from .clustering import SampleSet
from .fitting import FitConfig, fit_polynomial, fit_rational
from .report import (
    FitReport,
    MODE_MAXPLUS,
    MODE_MAXTIMES,
    evaluator,
    load_samples,
    report_from_poly_fit,
    report_from_rational_fit,
    to_maxplus_samples,
)

FIXTURE_SIZE = 21


def fixture_curve(x: float) -> float:
    """The demo target: a nonconvex curve sampled on [0, 2]."""
    return 3.0 * (x - 1.0) ** 2 * math.sin(x) + 0.25


def fixture_rows() -> list[tuple[float, float]]:
    xs = [i / 10 for i in range(FIXTURE_SIZE)]
    return [(x, fixture_curve(x)) for x in xs]


def _cmd_gen_fixture(args: argparse.Namespace) -> int:
    lines = ["x,y"]
    lines += [f"{x:.4f},{y:.4f}" for x, y in fixture_rows()]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _emit_report(report: FitReport, output: str) -> None:
    if output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())


def _cmd_fit_poly(args: argparse.Namespace) -> int:
    samples = load_samples(args.input)
    fit = fit_polynomial(to_maxplus_samples(samples, args.mode), args.n)
    _emit_report(report_from_poly_fit(fit, args.mode), args.output)
    return 0


def _cmd_fit_rational(args: argparse.Namespace) -> int:
    samples = load_samples(args.input)
    config = FitConfig(
        n=args.n, l=args.l, epsilon=args.epsilon, iteration_cap=args.max_iter
    )
    fit = fit_rational(to_maxplus_samples(samples, args.mode), config)
    _emit_report(report_from_rational_fit(fit, args.mode), args.output)
    return 0


def _load_report(path: str) -> FitReport:
    return FitReport.from_json(Path(path).read_text())


def _emit_curve(fn, points) -> None:
    values = fn(points)  # evaluate fully before printing
    sys.stdout.write("x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(points, values)))


def _cmd_eval(args: argparse.Namespace) -> int:
    _emit_curve(evaluator(_load_report(args.report)), args.points)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value!r}")
    if not args.start < args.stop:
        raise ValueError("--from must be less than --to")
    if not math.isfinite(args.stop - args.start):
        raise ValueError("the --from/--to range overflows the float range")
    step = (args.stop - args.start) / (args.steps - 1)
    points = [args.start + i * step for i in range(args.steps)]
    _emit_curve(evaluator(_load_report(args.report)), points)
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every token spelling a negative float, such
    as ``-1e3``, ``-.5`` or ``-inf``, for a value and never for an option.

    argparse before Python 3.13 recognizes only ``-12`` and ``-1.2`` as
    negative numbers, and no version recognizes ``-inf``.  The pattern
    replaces the one argparse consults (on 3.10 to 3.13) before it takes a
    token for an option.  Subparsers inherit this class, and no option of
    the CLI starts with a digit, a dot, "inf" or "nan".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, so every ``main`` call shares it."""
    parser = _Parser(
        prog="tropfit",
        description="Fit max-plus polynomials and rational functions to data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-fixture", help="write the bundled demo dataset")
    gen.add_argument("out", help="output CSV path")
    gen.set_defaults(func=_cmd_gen_fixture)

    fit = sub.add_parser("fit", help="fit a function to a CSV dataset")
    fit_sub = fit.add_subparsers(dest="kind", required=True)

    def common_fit_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="two-column CSV of samples")
        p.add_argument("--n", type=int, required=True, help="numerator monomials")
        p.add_argument(
            "--mode",
            choices=[MODE_MAXPLUS, MODE_MAXTIMES],
            default=MODE_MAXPLUS,
            help="semifield of the data (default maxplus)",
        )
        p.add_argument(
            "--output", choices=["json", "csv"], default="json", help="report format"
        )

    poly = fit_sub.add_parser("poly", help="polynomial fit")
    common_fit_args(poly)
    poly.set_defaults(func=_cmd_fit_poly)

    rational = fit_sub.add_parser("rational", help="rational-function fit")
    common_fit_args(rational)
    rational.add_argument("--l", type=int, required=True, help="denominator monomials")
    rational.add_argument(
        "--epsilon", type=float, default=FitConfig.epsilon, help="squared-error tolerance"
    )
    rational.add_argument(
        "--max-iter", type=int, default=FitConfig.iteration_cap,
        help="cap on alternation half-steps",
    )
    rational.set_defaults(func=_cmd_fit_rational)

    ev = sub.add_parser("eval", help="evaluate a saved fit at given points")
    ev.add_argument("report", help="fit report (JSON)")
    ev.add_argument("points", type=float, nargs="+", help="arguments to evaluate at")
    ev.set_defaults(func=_cmd_eval)

    sample = sub.add_parser("sample", help="evaluate a saved fit on a uniform grid")
    sample.add_argument("report", help="fit report (JSON)")
    sample.add_argument("--from", dest="start", type=float, required=True)
    sample.add_argument("--to", dest="stop", type=float, required=True)
    sample.add_argument("--steps", type=int, required=True)
    sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"tropfit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
