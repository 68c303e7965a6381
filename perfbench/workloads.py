"""Inputs, jobs and per-job checks of the benchmark workloads.

Each workload turns a seed into a fixed list of jobs.  A job makes one fit
through the program's public entry points, times it, and then checks the
result outside the timed region.  Inputs come from ``random.Random(seed)``
so that a seed gives the same inputs on every Python version.

Workloads (the reason each was chosen is in BENCHMARK.json):

* ``fixture-cli``: the six headline (N, L) configurations on the 21-point
  fixture, each run as ``tropfit fit rational`` and ``tropfit sample``
  through ``tropfit.cli.main`` in-process.  Seed 0 is the ``gen-fixture``
  CSV exactly; any other seed moves each ordinate by at most 5e-5, the
  fixture's rounding level.
* ``noisy-poly``: ``fit_polynomial`` at n in {2, 4, 7} on 60 samples of the
  fixture curve with Gaussian noise (sigma 0.05), for several datasets.
* ``convex-poly``: ``fit_polynomial`` at n in {2, 4, 7} on 100 samples of a
  strictly convex quadratic.

The poly workloads sample on an evenly spaced grid of [0, 2].  With seeded
uniform abscissae the cost of one fit at M = 60 varied threefold between
seeds (from about 4 s to 12 s on a 2-core Xeon), which no per-run bound
could absorb; on the grid the cost depends on the data only through the
partition it produces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import tropfit.cli
import tropfit.fitting
from tropfit.clustering import SampleSet
from tropfit.report import FitReport

FIXTURE_CONFIGS = ((2, 2), (3, 3), (4, 4), (5, 3), (6, 5), (7, 5))
FIXTURE_SIZE = 21
FIXTURE_JITTER = 5e-5
SAMPLE_ARGS = ("--from", "0", "--to", "2", "--steps", "201")

POLY_COUNTS = (2, 4, 7)
NOISY_SAMPLES = 60
NOISY_SIGMA = 0.05
NOISY_DATASETS = 8
CONVEX_SAMPLES = 100
CONVEX_DATASETS = 1

#: The untimed warm-up fit made during set-up uses 2 monomials, on the
#: fixture (capped at 2 half-steps) or on the whole first dataset.  A poly
#: warm-up smaller than the datasets leaves the first timed fit of a process
#: about 1 s slower at M = 100, while the allocator adapts to its arrays.
WARMUP_MONOMIALS = 2

#: Absolute tolerance of every numeric check.
CHECK_TOL = 1e-9


def fixture_curve(x: float) -> float:
    return 3.0 * (x - 1.0) ** 2 * math.sin(x) + 0.25


def fixture_csv(seed: int) -> str:
    """The fixture CSV; seed 0 reproduces ``tropfit gen-fixture`` exactly."""
    rng = random.Random(seed)
    lines = ["x,y"]
    for i in range(FIXTURE_SIZE):
        x = i / 10
        y = float(f"{fixture_curve(x):.4f}")
        if seed == 0:
            lines.append(f"{x:.4f},{y:.4f}")
        else:
            lines.append(f"{x:.4f},{y + rng.uniform(-FIXTURE_JITTER, FIXTURE_JITTER)!r}")
    return "\n".join(lines) + "\n"


def _grid(m: int) -> list[float]:
    return [2.0 * i / (m - 1) for i in range(m)]


def noisy_datasets(seed: int) -> list[SampleSet]:
    rng = random.Random(seed)
    xs = _grid(NOISY_SAMPLES)
    return [
        SampleSet(xs, [fixture_curve(x) + rng.gauss(0.0, NOISY_SIGMA) for x in xs])
        for _ in range(NOISY_DATASETS)
    ]


def convex_datasets(seed: int) -> list[SampleSet]:
    """Quadratics a x^2 + b x + c; a near 1 keeps delta_star comparable
    between seeds, since the fitted error scales with a."""
    rng = random.Random(seed)
    xs = _grid(CONVEX_SAMPLES)
    out = []
    for _ in range(CONVEX_DATASETS):
        a, b, c = rng.uniform(0.95, 1.05), rng.uniform(-1, 1), rng.uniform(-1, 1)
        out.append(SampleSet(xs, [a * x * x + b * x + c for x in xs]))
    return out


def lower_hull_size(xs, ys) -> int:
    """Number of samples that are vertices of the lower convex hull."""
    hull: list[tuple[float, float]] = []
    for x, y in sorted(zip(xs, ys)):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return len(hull)


class PartitionLog:
    """Keeps the result of every ``tropfit.fitting.fit_polynomial`` call.

    ``fit_rational`` looks the name up in its own module, so this sees every
    half-step; the poly workloads call it through the module too.  Holding a
    reference per call is all it does while a job is timed.
    """

    def __init__(self):
        self.results: list = []
        self.original = tropfit.fitting.fit_polynomial

        def logged(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.results.append(result)
            return result

        tropfit.fitting.fit_polynomial = logged

    def take_hash(self) -> str:
        """Hash of the partition index sets of the calls since the last take."""
        results, self.results = self.results, []
        digest = hashlib.sha256()
        for result in results:
            try:
                sets = result.exponent_result.partition.index_sets()
            except AttributeError:
                return "absent"
            digest.update(repr(sets).encode())
        return digest.hexdigest()[:16]

    def close(self) -> None:
        tropfit.fitting.fit_polynomial = self.original


@dataclass
class Outcome:
    """One run of a job: its times, its fingerprint and the checks it failed."""

    fit_s: float = 0.0
    job_s: float = 0.0
    fingerprint: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


@dataclass
class Job:
    label: str
    kind: str
    run: Callable[[], Outcome]


def _max_plus(monomials, x: float) -> float:
    return max(p * x + t for p, t in monomials)


def _check_delta(outcome: Outcome, delta_star: float, residual: float) -> None:
    if not abs(delta_star - 2 * residual) <= CHECK_TOL:
        outcome.failures.append(
            f"delta_star {delta_star!r} != 2 x Chebyshev residual {residual!r}"
        )


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tropfit.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rational_job(csv: Path, report: Path, n: int, l: int, extra: tuple[str, ...],
                  points: list[tuple[float, float]], log: PartitionLog) -> Outcome:
    fit_argv = ["fit", "rational", str(csv), "--n", str(n), "--l", str(l), *extra]
    start = perf_counter()
    code, text, err = _call_cli(fit_argv)
    fitted = perf_counter()
    report.write_text(text)
    sample_code, curve, sample_err = _call_cli(["sample", str(report), *SAMPLE_ARGS])
    outcome = Outcome(fit_s=fitted - start, job_s=perf_counter() - start)
    partition_hash = log.take_hash()

    if code != 0:
        outcome.failures.append(f"fit exit code {code}: {err.strip()}")
        return outcome
    if sample_code != 0:
        outcome.failures.append(f"sample exit code {sample_code}: {sample_err.strip()}")
    data = json.loads(text)
    num = list(zip(data["numerator"]["exponents"], data["numerator"]["coefficients"]))
    den = list(zip(data["denominator"]["exponents"], data["denominator"]["coefficients"]))

    def fitted_fn(x: float) -> float:
        return _max_plus(num, x) - _max_plus(den, x)

    residual = max(abs(fitted_fn(x) - y) for x, y in points)
    _check_delta(outcome, data["delta_star"], residual)
    # Through from_dict and to_dict, which the tracer leaves unwrapped, so
    # that the check's own parsing is not counted as the program's.
    if json.dumps(FitReport.from_dict(data).to_dict(), indent=2) != text.rstrip("\n"):
        outcome.failures.append("report JSON does not round-trip through FitReport")
    outcome.failures.extend(_check_curve(curve, fitted_fn))
    outcome.fingerprint = {
        "delta_star": data["delta_star"],
        "stop_reason": data["stop_reason"],
        "halfsteps": len(data["trace"]),
        "partitions": partition_hash,
    }
    return outcome


def _check_curve(curve: str, fn: Callable[[float], float]) -> list[str]:
    start, stop, steps = (float(SAMPLE_ARGS[1]), float(SAMPLE_ARGS[3]), int(SAMPLE_ARGS[5]))
    rows = curve.splitlines()
    if rows[:1] != ["x,value"] or len(rows) != steps + 1:
        return [f"sample output has {len(rows)} lines, expected header and {steps} rows"]
    step = (stop - start) / (steps - 1)
    for i, row in enumerate(rows[1:]):
        x, value = (float(v) for v in row.split(","))
        expected_x = start + i * step
        if abs(x - expected_x) > CHECK_TOL or abs(value - fn(expected_x)) > CHECK_TOL:
            return [f"sample row {i} is {row!r}, report gives {fn(expected_x)!r}"]
    return []


def _poly_job(samples: SampleSet, n: int, log: PartitionLog) -> Outcome:
    start = perf_counter()
    fit = tropfit.fitting.fit_polynomial(samples, n)
    elapsed = perf_counter() - start
    outcome = Outcome(fit_s=elapsed, job_s=elapsed)
    monomials = fit.poly.monomials
    residual = max(abs(_max_plus(monomials, x) - y) for x, y in zip(samples.xs, samples.ys))
    _check_delta(outcome, fit.delta_star, residual)
    outcome.fingerprint = {
        "delta_star": fit.delta_star,
        "stop_reason": "completed",
        "halfsteps": 1,
        "partitions": log.take_hash(),
        "cluster_sizes": _cluster_sizes(fit),
    }
    return outcome


def _cluster_sizes(fit) -> list[int] | str:
    try:
        return sorted(len(s) for s in fit.exponent_result.partition.index_sets())
    except AttributeError:
        return "absent"


@dataclass
class Workload:
    """The jobs of one workload, the warm-up that precedes timing, and the
    sample count and lower-hull sample count of each input dataset."""

    jobs: list[Job]
    warm_up: Callable[[], None]
    samples: list[int]
    lower_hull_samples: list[int]


def _guarded(job_run: Callable[[], Outcome]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        try:
            return job_run()
        except Exception as exc:  # a failed job is counted, the run goes on
            return Outcome(failures=[f"{type(exc).__name__}: {exc}"])

    return run


def build(name: str, seed: int, workdir: Path, log: PartitionLog) -> Workload:
    """Generate the inputs of workload ``name`` and return its jobs."""
    if name == "fixture-cli":
        csv = workdir / "fixture.csv"
        text = fixture_csv(seed)
        csv.write_text(text)
        points = [tuple(float(v) for v in line.split(",")) for line in text.split()[1:]]
        jobs = [
            Job(f"N={n},L={l}", f"N={n},L={l}",
                _guarded(lambda n=n, l=l: _rational_job(
                    csv, workdir / f"fit-{n}-{l}.json", n, l, (), points, log)))
            for n, l in FIXTURE_CONFIGS
        ]

        def warm_up() -> None:
            _rational_job(csv, workdir / "warm-up.json", WARMUP_MONOMIALS,
                          WARMUP_MONOMIALS, ("--max-iter", "2"), points, log)

        xs, ys = zip(*points)
        return Workload(jobs, warm_up, [len(xs)], [lower_hull_size(xs, ys)])

    datasets = noisy_datasets(seed) if name == "noisy-poly" else convex_datasets(seed)
    jobs = [
        Job(f"d{d}-n={n}", f"n={n}", _guarded(lambda s=samples, n=n: _poly_job(s, n, log)))
        for d, samples in enumerate(datasets)
        for n in POLY_COUNTS
    ]
    return Workload(jobs, lambda: _poly_job(datasets[0], WARMUP_MONOMIALS, log),
                    [len(s) for s in datasets],
                    [lower_hull_size(s.xs, s.ys) for s in datasets])
