"""Acceptance criteria.

Each test exercises one criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).  The
reference error table is reproduced by the same CLI surface a user would
drive.
"""

import contextlib
import io
import itertools
import time

import numpy as np
import pytest

from tropfit import (
    FitConfig,
    SampleSet,
    best_approx_solve,
    fit_polynomial,
    fit_rational,
    min_poly,
)
from tropfit.cli import main
from tropfit.puiseux import PuiseuxPoly
from tropfit.report import FitReport, load_samples

from oracles import (
    assignments,
    brute_force_poly_fit,
    chebyshev,
    convex_sampleset,
    grid_min,
    matvec,
    random_finite_matrix,
    random_finite_vector,
    random_sampleset,
)

# Reference 21-point dataset (4-decimal coordinates).
FIXTURE_TABLE = [
    (0.0000, 0.2500), (0.1000, 0.4926), (0.2000, 0.6314), (0.3000, 0.6844),
    (0.4000, 0.6706), (0.5000, 0.6096), (0.6000, 0.5210), (0.7000, 0.4239),
    (0.8000, 0.3361), (0.9000, 0.2735), (1.0000, 0.2500), (1.1000, 0.2767),
    (1.2000, 0.3618), (1.3000, 0.5102), (1.4000, 0.7230), (1.5000, 0.9981),
    (1.6000, 1.3295), (1.7000, 1.7077), (1.8000, 2.1198), (1.9000, 2.5495),
    (2.0000, 2.9779),
]

# Reference squared errors of the rational fits.
ERROR_TABLE = {(2, 2): 0.3099, (3, 3): 0.1158, (4, 4): 0.0590, (5, 3): 0.0370, (6, 5): 0.0113}

# The alternation record of the same fits and of (7, 5): stop reason,
# half-steps run, and the first half-step whose error equals delta_star.
ALTERNATION_RECORD = {
    (2, 2): ("drift-cycle", 10, 4),
    (3, 3): ("drift-cycle", 15, 12),
    (4, 4): ("drift-cycle", 16, 12),
    (5, 3): ("cycle", 14, 11),
    (6, 5): ("drift-cycle", 19, 12),
    (7, 5): ("converged-within-epsilon", 47, 47),
}


def alternation_record(report: FitReport) -> tuple[str, int, int]:
    best = next(k for k, delta in report.trace if delta == report.delta_star)
    return report.stop_reason, len(report.trace), best


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")


def run_cli(argv) -> tuple[int, str]:
    """Drive the CLI capturing its stdout, independent of pytest capture."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "fixture.csv"
    assert main(["gen-fixture", str(path)]) == 0
    return path


def test_criterion_1_fixture_reproduction(fixture_csv):
    start = time.perf_counter()
    tmp = fixture_csv.parent / "timed.csv"
    assert main(["gen-fixture", str(tmp)]) == 0
    elapsed = time.perf_counter() - start

    samples = load_samples(tmp)
    ok = len(samples) == 21 and elapsed < 0.1
    for (x, y), (ex, ey) in zip(samples.points, FIXTURE_TABLE):
        ok = ok and round(x, 4) == ex and round(y, 4) == ey
    report_line("1 fixture reproduction", ok, f"{elapsed * 1e3:.1f} ms")
    assert ok


def _rational_delta(fixture_csv, n, l):
    start = time.perf_counter()
    code, out = run_cli(
        ["fit", "rational", str(fixture_csv), "--n", str(n), "--l", str(l), "--epsilon", "0.0001"]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    return FitReport.from_json(out), elapsed


def test_criterion_2_error_table(fixture_csv):
    all_ok = True
    for (n, l), expected in ERROR_TABLE.items():
        report, elapsed = _rational_delta(fixture_csv, n, l)
        achieved = report.delta_star
        within = abs(achieved - expected) <= 1e-3
        record = alternation_record(report)
        ok = within and elapsed < 5.0 and record == ALTERNATION_RECORD[n, l]
        report_line(
            f"2 error table (N={n},L={l})",
            ok,
            f"delta*={achieved:.4f} vs {expected}, {elapsed:.2f} s, record {record}",
        )
        all_ok = all_ok and ok

    report, elapsed = _rational_delta(fixture_csv, 7, 5)
    record = alternation_record(report)
    ok = report.delta_star < 1e-4 and elapsed < 5.0 and record == ALTERNATION_RECORD[7, 5]
    report_line(
        "2 error table (N=7,L=5)",
        ok,
        f"delta*={report.delta_star:.2e} < 1e-4, {elapsed:.2f} s, record {record}",
    )
    assert all_ok and ok


def test_error_table_under_an_ordinate_offset(fixture_csv):
    """Shifting every ordinate by 1e6 leaves the fitted errors, up to the
    rounding of that offset: no stop rule may take the offset for a
    repeat and stop a run early."""
    samples = load_samples(fixture_csv)
    shifted = SampleSet(samples.xs, [y + 1e6 for y in samples.ys])
    for n, l in ERROR_TABLE:
        config = FitConfig(n=n, l=l)
        delta = fit_rational(samples, config).delta_star
        assert fit_rational(shifted, config).delta_star == pytest.approx(delta, abs=1e-8)


@pytest.mark.parametrize("n, l", [(2, 2), (3, 3), (4, 4), (6, 5)])
def test_a_large_ordinate_offset_does_not_run_to_the_cap(fixture_csv, n, l):
    """At ys + 1e8 the values round at about 1e-8, so the stop rules must
    take that rounding for agreement: the fit stops as unshifted does,
    before the cap, with the unshifted error up to the offset's
    rounding."""
    samples = load_samples(fixture_csv)
    shifted = SampleSet(samples.xs, [y + 1e8 for y in samples.ys])
    config = FitConfig(n=n, l=l)
    fit = fit_rational(shifted, config)
    assert fit.stop_reason != "iteration-cap"
    assert fit.delta_star == pytest.approx(fit_rational(samples, config).delta_star, abs=1e-7)


def test_an_ordinate_offset_keeps_the_stop_of_a_translated_cycle(fixture_csv):
    """At ys + 1e6, (2, 2) runs into the translated cycle that stops the
    unshifted run at half-step 10.  Its probe's errors differ from the
    run's only by the rounding of the 1e6-scale values, so it must stop
    there too, with the same best half-step, rather than at the cap."""
    samples = load_samples(fixture_csv)
    shifted = SampleSet(samples.xs, [y + 1e6 for y in samples.ys])
    fit = fit_rational(shifted, FitConfig(n=2, l=2, epsilon=1e-4))
    best = next(k for k, delta in fit.trace if delta == fit.delta_star)
    assert (fit.stop_reason, len(fit.trace), best) == ALTERNATION_RECORD[2, 2]


def test_a_translation_whose_odd_errors_still_fall_keeps_its_error(fixture_csv):
    """In the (4, 2) fit the even errors repeat exactly at 0.0978 while the
    odd ones still fall by about 1e-9 a period toward the best.  Its step
    converges geometrically, but a converging translation needs both
    parities' errors to repeat to rounding, so the run goes on to the
    error it reaches when the step is exact."""
    samples = load_samples(fixture_csv)
    fit = fit_rational(samples, FitConfig(n=4, l=2, epsilon=1e-4))
    assert fit.delta_star == pytest.approx(0.09521875, abs=1e-12)


def test_criterion_3_first_iteration_anchor(fixture_csv):
    code, out = run_cli(["fit", "poly", str(fixture_csv), "--n", "2"])
    assert code == 0
    report = FitReport.from_json(out)
    ok = abs(report.delta_star - 0.4344) <= 1e-3
    report_line("3 first-iteration anchor", ok, f"delta={report.delta_star:.4f}")
    assert ok


def test_criterion_4_one_sided_optimality():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = random_finite_matrix(rng, m, n)
        b = random_finite_vector(rng, m)
        sol = best_approx_solve(a, b)
        achieved = chebyshev(matvec(a, sol.solution), b)
        ok = ok and abs(achieved - sol.delta / 2) <= 1e-9
        for _ in range(1000):
            x = random_finite_vector(rng, n)
            if chebyshev(matvec(a, x), b) < achieved - 1e-9:
                ok = False
                break
        if not ok:
            break
    report_line("4 one-sided optimality", ok)
    assert ok


def test_criterion_5_exactness():
    rng = np.random.default_rng(52)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = random_finite_matrix(rng, m, n)
        x_true = random_finite_vector(rng, n)
        b = matvec(a, x_true)
        sol = best_approx_solve(a, b)
        ok = ok and abs(sol.delta) <= 1e-9 and sol.exact
        ok = ok and all(s >= t - 1e-12 for s, t in zip(sol.solution, x_true))
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, n + 6))
        samples, _ = convex_sampleset(rng, m, n)
        fit = fit_polynomial(samples, n)
        ok = ok and abs(fit.delta_star) <= 1e-9
    report_line("5 exactness", ok)
    assert ok


def test_criterion_6_closed_form_minimum_oracle():
    rng = np.random.default_rng(63)
    ok = True
    # slope magnitudes capped at 3.8: a 1e-3 grid certifies the minimum of a
    # piecewise-linear envelope only to (max slope)/2 * step
    for _ in range(500):
        n_neg = int(rng.integers(1, 4))
        n_pos = int(rng.integers(1, 4))
        mons = [(float(-rng.uniform(1, 3.8)), float(rng.uniform(-9, 9))) for _ in range(n_neg)]
        mons += [(float(rng.uniform(1, 3.8)), float(rng.uniform(-9, 9))) for _ in range(n_pos)]
        if rng.integers(0, 2):
            mons.append((0.0, float(rng.uniform(-9, 9))))
        poly = PuiseuxPoly(mons)
        pm = min_poly(poly)
        value, _ = grid_min(poly.monomials)
        ok = ok and abs(pm.mu - value) <= 2e-3
        for endpoint in (pm.lower, pm.upper):
            if endpoint is not None:
                attained = max(p * endpoint + t for p, t in poly.monomials)
                ok = ok and abs(attained - pm.mu) <= 1e-9
        if not ok:
            break
    report_line("6 closed-form minimum oracle", ok)
    assert ok


def test_criterion_7_greedy_vs_exhaustive():
    rng = np.random.default_rng(74)
    ok = True
    for case in range(200):
        convex = case % 2 == 1
        if convex:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n + 1, 9))
            samples, _ = convex_sampleset(rng, m, n)
        else:
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, min(m, 3) + 1))
            samples = random_sampleset(rng, m)
        greedy = fit_polynomial(samples, n)
        oracle = brute_force_poly_fit(samples, n)
        ok = ok and greedy.delta_star >= oracle.delta_star - 1e-9
        if convex:
            ok = ok and oracle.delta_star <= 1e-9
            ok = ok and abs(greedy.delta_star - oracle.delta_star) <= 1e-9
        if not ok:
            break
    report_line("7 greedy vs exhaustive", ok)
    assert ok


def test_criterion_8_distributivity_identities():
    rng = np.random.default_rng(85)
    ok = True
    # max over min distributes into a min over labeled partitions
    for _ in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        grid = rng.uniform(-50, 50, size=(m, n))
        lhs = max(min(row) for row in grid.tolist())
        rhs = min(
            max(grid[i][j] for i, j in enumerate(labels))
            for labels in assignments(m, n)
        )
        ok = ok and lhs == rhs
    # joint minimization of a max-separable function decomposes coordinatewise
    for _ in range(60):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 5))
        tables = rng.uniform(-50, 50, size=(n, size)).tolist()
        lhs = min(
            max(tables[j][c[j]] for j in range(n))
            for c in itertools.product(range(size), repeat=n)
        )
        rhs = max(min(t) for t in tables)
        ok = ok and lhs == rhs
    report_line("8 distributivity identities", ok)
    assert ok
