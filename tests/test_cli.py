"""Command-line interface: fixture generation, fitting commands, report
serialization, curve sampling, and input-error handling."""

import json
import math

import pytest

from tropfit.cli import _build_parser, fixture_curve, fixture_rows, main
from tropfit.puiseux import PuiseuxPoly, PuiseuxRational, eval_rational
from tropfit.report import FitReport, load_samples


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture.csv"
    assert main(["gen-fixture", str(path)]) == 0
    return path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- gen-fixture ----------------------------------------------------------------


def test_gen_fixture_rows(fixture_csv):
    lines = fixture_csv.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 22
    assert lines[1] == "0.0000,0.2500"
    assert lines[11] == "1.0000,0.2500"
    assert lines[16] == "1.5000,0.9981"
    assert lines[21] == "2.0000,2.9779"


def test_gen_fixture_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen-fixture", str(a)])
    main(["gen-fixture", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fixture_curve_matches_rows():
    for x, y in fixture_rows():
        assert y == fixture_curve(x)
    assert fixture_curve(2.0) == pytest.approx(2.9779, abs=5e-5)


# --- dataset ingestion ------------------------------------------------------------


def test_load_samples_header_optional(tmp_path):
    with_header = tmp_path / "h.csv"
    with_header.write_text("x,y\n1,2\n3,4\n")
    without = tmp_path / "n.csv"
    without.write_text("1,2\n3,4\n")
    assert load_samples(with_header).points == load_samples(without).points


def test_fit_reads_csv_files_that_start_with_a_byte_order_mark(capsys, tmp_path):
    """A UTF-8 byte-order mark, as spreadsheet programs write it, is not
    part of the first cell: a headerless file keeps its first sample."""
    rows = "0.0,1.0\n0.5,0.2\n1.0,0.7\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(rows)
    _, expected, _ = run(capsys, ["fit", "poly", str(plain), "--n", "1"])
    for name, text in (("headerless.csv", rows), ("header.csv", "x,y\n" + rows)):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_samples(path).points == ((0.0, 1.0), (0.5, 0.2), (1.0, 0.7))
        assert run(capsys, ["fit", "poly", str(path), "--n", "1"]) == (0, expected, "")


def test_load_samples_rejects_bad_rows(tmp_path):
    bad_arity = tmp_path / "a.csv"
    bad_arity.write_text("1,2,3\n")
    with pytest.raises(ValueError):
        load_samples(bad_arity)
    bad_cell = tmp_path / "b.csv"
    bad_cell.write_text("1,2\nx,4\n")
    with pytest.raises(ValueError):
        load_samples(bad_cell)
    empty = tmp_path / "c.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_samples(empty)


# --- fit commands -------------------------------------------------------------------


def test_fit_poly_report(capsys, fixture_csv):
    code, out, _ = run(capsys, ["fit", "poly", str(fixture_csv), "--n", "2"])
    assert code == 0
    report = FitReport.from_json(out)
    assert report.mode == "maxplus"
    assert report.n == 2
    assert report.l is None
    assert not report.is_rational
    assert report.delta_star == pytest.approx(0.4344, abs=1e-3)
    assert report.chebyshev_error == pytest.approx(report.delta_star / 2, abs=1e-12)
    assert report.stop_reason == "completed"
    assert len(report.numerator_exponents) == 2


def test_fit_rational_report(capsys, fixture_csv):
    code, out, _ = run(
        capsys, ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2"]
    )
    assert code == 0
    report = FitReport.from_json(out)
    assert report.l == 2
    assert report.is_rational
    assert report.delta_star == pytest.approx(0.3099, abs=1e-3)
    assert report.trace[0] == (1, pytest.approx(0.4344, abs=1e-3))
    assert report.stop_reason in {"converged-within-epsilon", "cycle", "drift-cycle", "iteration-cap"}


def test_parser_is_reused_unchanged_after_errors_and_help(capsys, fixture_csv, tmp_path):
    """One parser serves every ``main`` call in a process: a usage error and
    ``--help`` leave it as it was, so later calls print what the same calls
    print in a fresh process, and a ``fit poly`` namespace carries no
    rational-only option."""
    fit_rational = ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2"]
    fit_poly = ["fit", "poly", str(fixture_csv), "--n", "2"]
    report = tmp_path / "fit.json"
    sample = ["sample", str(report), "--from", "0", "--to", "2", "--steps", "5"]
    _build_parser.cache_clear()
    code, fresh_rational, _ = run(capsys, fit_rational)
    report.write_text(fresh_rational)
    fresh = (fresh_rational, run(capsys, fit_poly)[1], run(capsys, sample)[1])
    assert code == 0

    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "rational", str(fixture_csv), "--n", "2"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    capsys.readouterr()

    assert (run(capsys, fit_rational)[1], run(capsys, fit_poly)[1],
            run(capsys, sample)[1]) == fresh
    args = _build_parser().parse_args(fit_poly)
    assert not hasattr(args, "l") and not hasattr(args, "epsilon")


def test_report_roundtrips(capsys, fixture_csv):
    code, out, _ = run(
        capsys, ["fit", "rational", str(fixture_csv), "--n", "3", "--l", "2"]
    )
    assert code == 0
    report = FitReport.from_json(out)
    again = FitReport.from_json(report.to_json())
    assert again == report


def test_report_evaluates_to_the_fitted_function(capsys, tmp_path):
    """At abscissae near 1e6 the saved report misses the samples by its own
    chebyshev_error, so its floats carry the fit's full precision."""
    xs = [1e6 + d for d in (0.0, 0.1, 0.2, 0.3)]
    ys = [1.0, 2.0, 1.5, 3.0]
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    code, out, _ = run(capsys, ["fit", "rational", str(data), "--n", "2", "--l", "2"])
    assert code == 0
    report_path = tmp_path / "r.json"
    report_path.write_text(out)
    code, curve, _ = run(capsys, ["eval", str(report_path), *map(repr, xs)])
    assert code == 0
    values = [float(line.split(",")[1]) for line in curve.strip().splitlines()[1:]]
    residual = max(abs(v - y) for v, y in zip(values, ys))
    assert residual == pytest.approx(FitReport.from_json(out).chebyshev_error, abs=1e-9)


def test_fit_reports_are_deterministic(capsys, fixture_csv):
    _, out1, _ = run(capsys, ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2"])
    _, out2, _ = run(capsys, ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2"])
    assert out1 == out2


def test_fit_poly_csv_output(capsys, fixture_csv):
    code, out, _ = run(
        capsys, ["fit", "poly", str(fixture_csv), "--n", "1", "--output", "csv"]
    )
    assert code == 0
    assert out.startswith("field,value\nmode,maxplus\n")
    assert "delta_star," in out


#: ``fit rational --n 2 --l 2 --output csv`` on the fixture, byte for byte.
FIXTURE_N2L2_CSV = (
    "field,value\n"
    "mode,maxplus\n"
    "n,2\n"
    "l,2\n"
    "numerator_exponent_1,-0.062860877684407\n"
    "numerator_coefficient_1,0.5100706816059757\n"
    "numerator_exponent_2,3.873528011204481\n"
    "numerator_coefficient_2,-4.601718207282913\n"
    "denominator_exponent_1,-2.4888608776844072\n"
    "denominator_coefficient_1,0.41506512605042023\n"
    "denominator_exponent_2,0.1214909741674445\n"
    "denominator_coefficient_2,-0.07927561469032035\n"
    "delta_star,0.30998888888888904\n"
    "chebyshev_error,0.15499444444444452\n"
    "delta_1,0.43439999999999995\n"
    "delta_2,0.35364705882352954\n"
    "delta_3,0.31366666666666665\n"
    "delta_4,0.30998888888888904\n"
    "delta_5,0.47913333333333324\n"
    "delta_6,0.37360952380952384\n"
    "delta_7,0.4791333333333332\n"
    "delta_8,0.37360952380952395\n"
    "delta_9,0.4791333333333331\n"
    "delta_10,0.373609523809524\n"
    "stop_reason,drift-cycle\n"
)


def test_fit_rational_csv_output(capsys, fixture_csv):
    code, out, _ = run(
        capsys,
        ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2", "--output", "csv"],
    )
    assert code == 0
    assert out == FIXTURE_N2L2_CSV


def test_fit_errors_exit_nonzero(capsys, tmp_path, fixture_csv):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, ["fit", "poly", str(empty), "--n", "1"])
    assert code == 2 and "error" in err

    code, _, err = run(capsys, ["fit", "poly", str(fixture_csv), "--n", "50"])
    assert code == 2

    missing = tmp_path / "missing.csv"
    code, _, err = run(capsys, ["fit", "poly", str(missing), "--n", "1"])
    assert code == 2


def test_maxtimes_mode_rejects_nonpositive(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n1.0,2.0\n")
    code, _, err = run(capsys, ["fit", "poly", str(data), "--n", "1", "--mode", "maxtimes"])
    assert code == 2
    assert err == "tropfit: error: max-times samples must be positive, got 0.0\n"


@pytest.mark.parametrize(
    "rows",
    ["-1e308,0\n1e308,0\n0,0\n", "0,-1e308\n1,1e308\n2,0\n"],
    ids=["abscissae", "ordinates"],
)
def test_fit_rejects_differences_beyond_float_range(capsys, tmp_path, rows):
    data = tmp_path / "d.csv"
    data.write_text(rows)
    code, _, err = run(capsys, ["fit", "poly", str(data), "--n", "1"])
    assert code == 2 and "finite" in err


#: What ``fit`` says when the fitted coefficients overflow.
COEFFICIENT_OVERFLOW = (
    "tropfit: error: coefficients leave the float range: the ordinates, or the "
    "fitted exponents times the abscissae, are too large\n"
)


def test_rational_half_step_whose_target_leaves_the_float_range_exits_2(capsys, tmp_path):
    """Half-steps take their targets unchecked; a fit to ordinates near 1e307
    whose exponents times the abscissae overflow exits 2 at the coefficient
    recovery, before its values can reach the next target, and without a
    numpy warning (the test suite turns those into errors)."""
    xs = [-2.6395169362336617, -0.20249742181975305, 0.6947876478375408,
          0.7640466540657358, 0.7930832117766924]
    ys = [1.0, 1e307, 0.0, 1.0, 1e307]
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    code, out, err = run(capsys, ["fit", "rational", str(data), "--n", "4", "--l", "1"])
    assert code == 2 and out == ""
    assert err == COEFFICIENT_OVERFLOW


@pytest.mark.parametrize("n, l", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_rational_fit_whose_coefficients_overflow_exits_2(capsys, tmp_path, n, l):
    """Ordinates near the float limit whose fitted coefficients overflow exit
    2 with a message about the input, not about the fit's own numbers."""
    data = tmp_path / "d.csv"
    data.write_text(
        "-1.4197607715636948,1\n-1.2503256077855622,1.7e308\n2.8285719487638534,1e307\n"
    )
    code, out, err = run(capsys, ["fit", "rational", str(data), "--n", str(n), "--l", str(l)])
    assert code == 2 and out == ""
    assert err == COEFFICIENT_OVERFLOW


def test_raw_fixture_fit_stays_near_the_data(capsys, tmp_path):
    """The full-precision fixture at (5, 5): the report misses the samples by
    delta*/2, and no exponent strays beyond a small multiple of the data's
    steepest chord.  A jump along a step that only seemed to shrink once sent
    its exponents to 6e7, where the report's values lost 1.5e-9 to rounding."""
    rows = fixture_rows()
    data = tmp_path / "raw.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
    code, out, err = run(capsys, ["fit", "rational", str(data), "--n", "5", "--l", "5"])
    assert code == 0, err
    report = FitReport.from_json(out)
    report_path = tmp_path / "r.json"
    report_path.write_text(out)
    xs, ys = zip(*rows)
    code, curve, err = run(capsys, ["eval", str(report_path), *map(repr, xs)])
    assert code == 0, err
    values = [float(line.split(",")[1]) for line in curve.strip().splitlines()[1:]]
    miss = max(abs(v - y) for v, y in zip(values, ys))
    assert miss == pytest.approx(report.delta_star / 2, abs=1e-9)
    chord = max(abs((b - a) / (u - t)) for (t, a), (u, b) in zip(rows, rows[1:]))
    exponents = report.numerator_exponents + report.denominator_exponents
    assert max(abs(p) for p in exponents) <= 16 * chord


@pytest.mark.parametrize(
    "args", [["poly", "--n", "2"], ["rational", "--n", "2", "--l", "2"]], ids=["poly", "rational"]
)
def test_huge_ordinates_fit(capsys, tmp_path, args):
    """Scores and parameters beyond the range of the heap and cycle keys fit
    like any others: the report misses the samples by its chebyshev_error.
    The rational fit settles into a translated cycle, which the drift test,
    its tolerances relative to the values and errors, stops well before the
    iteration cap."""
    xs, ys = [0.0, 1.0, 2.0, 3.0], [0.0, 1e300, 0.0, 5.0]
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    code, out, err = run(capsys, ["fit", args[0], str(data), *args[1:]])
    assert code == 0, err
    report = FitReport.from_json(out)
    report_path = tmp_path / "r.json"
    report_path.write_text(out)
    code, curve, err = run(capsys, ["eval", str(report_path), *map(repr, xs)])
    assert code == 0, err
    values = [float(line.split(",")[1]) for line in curve.strip().splitlines()[1:]]
    residual = max(abs(v - y) for v, y in zip(values, ys))
    assert report.delta_star == pytest.approx(2 * residual, rel=1e-9)
    if report.is_rational:
        assert report.stop_reason == "drift-cycle"
        assert len(report.trace) < 200


def test_translated_cycle_stops_under_a_large_cap(capsys, fixture_csv):
    """A large cap buys no drift: the fit stops in its translated cycle with
    exponents of the data's scale instead of running all its half-steps."""
    code, out, _ = run(
        capsys,
        ["fit", "rational", str(fixture_csv), "--n", "4", "--l", "4", "--max-iter", "10000"],
    )
    assert code == 0
    report = FitReport.from_json(out)
    assert report.stop_reason == "drift-cycle"
    assert len(report.trace) < 100
    assert report.delta_star == pytest.approx(0.0590, abs=1e-3)
    exponents = (*report.numerator_exponents, *report.denominator_exponents)
    assert max(abs(p) for p in exponents) <= 20


@pytest.mark.parametrize(
    "rows, point",
    [("2,1e300\n3,1\n", None), ("1,1\n2,8\n3,27\n4,64\n", "1e300")],
    ids=["fit-coefficient", "eval-value"],
)
def test_maxtimes_overflow_exits_2(capsys, tmp_path, rows, point):
    """exp of a log-domain coefficient or value beyond the float range is an
    input error, in ``fit`` and in ``eval`` of a report that fitted fine."""
    data = tmp_path / "d.csv"
    data.write_text(rows)
    code, out, err = run(capsys, ["fit", "poly", str(data), "--n", "1", "--mode", "maxtimes"])
    if point is not None:
        assert code == 0
        report_path = tmp_path / "r.json"
        report_path.write_text(out)
        code, _, err = run(capsys, ["eval", str(report_path), point])
    assert code == 2 and "overflow" in err


@pytest.mark.parametrize(
    "args", [["poly", "--n", "1"], ["rational", "--n", "1", "--l", "1"]], ids=["poly", "rational"]
)
def test_maxtimes_coefficient_underflow_exits_2(capsys, tmp_path, args):
    """A max-times coefficient has to be positive for its report to be read
    back: ``fit`` exits 2 on one whose exp underflows to 0.0, and ``eval``
    and ``sample`` on a report holding one <= 0."""
    data = tmp_path / "d.csv"
    data.write_text("1e300,1e300\n1e290,1\n")
    code, _, err = run(capsys, ["fit", args[0], str(data), *args[1:], "--mode", "maxtimes"])
    assert code == 2 and "underflows" in err
    data.write_text("1,2\n2,1\n4,3\n")
    code, out, err = run(capsys, ["fit", args[0], str(data), *args[1:], "--mode", "maxtimes"])
    assert code == 0, err
    for coefficient in (0.0, -1.0):
        report = json.loads(out)
        report["numerator"]["coefficients"][0] = coefficient
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        for argv in _report_commands(path):
            code, _, err = run(capsys, argv)
            assert code == 2 and "max-times coefficients must be positive" in err


def test_maxtimes_mode_maps_coefficients(capsys, tmp_path):
    # exp image of the line y = 2x + 1 on log-spaced points
    xs = [0.5, 1.0, 2.0, 4.0]
    rows = "\n".join(f"{x},{math.exp(2 * math.log(x) + 1)}" for x in xs)
    data = tmp_path / "d.csv"
    data.write_text(rows + "\n")
    code, out, _ = run(capsys, ["fit", "poly", str(data), "--n", "1", "--mode", "maxtimes"])
    assert code == 0
    report = FitReport.from_json(out)
    assert report.mode == "maxtimes"
    assert report.numerator_exponents[0] == pytest.approx(2.0, abs=1e-9)
    assert report.numerator_coefficients[0] == pytest.approx(math.e, rel=1e-9)
    assert report.delta_star == pytest.approx(1.0, abs=1e-9)  # exp(0)


# --- eval and sample -----------------------------------------------------------------


def reference_n2l2_report() -> FitReport:
    """Report assembled from a reference N=2, L=2 coefficient table."""
    return FitReport(
        mode="maxplus",
        n=2,
        l=2,
        numerator_exponents=(-0.0628, 3.8735),
        numerator_coefficients=(0.5100, -4.6017),
        denominator_exponents=(-2.4888, 0.1216),
        denominator_coefficients=(0.4150, -0.0793),
        delta_star=0.3099,
        chebyshev_error=0.15495,
        trace=((1, 0.4344),),
        stop_reason="iteration-cap",
    )


@pytest.mark.parametrize(
    "rows, fit_args, grid",
    [
        *(
            (None, ["--n", str(n), "--l", str(l)], ["--from", "0", "--to", "2", "--steps", "201"])
            for n, l in ((2, 2), (3, 3), (4, 4), (5, 3), (6, 5), (7, 5))
        ),
        ("x,y\n1,2\n2,1\n4,3\n8,2\n16,5\n", ["--n", "2", "--l", "2", "--mode", "maxtimes"],
         ["--from", "1", "--to", "16", "--steps", "31"]),
    ],
)
def test_sample_equals_the_rational_evaluated_point_by_point(
    capsys, fixture_csv, tmp_path, rows, fit_args, grid
):
    """``sample`` evaluates all its points in one pass, to the same floats
    as ``eval_rational`` at each point (in max-times mode, exp of it at the
    logged point, with the logged coefficients)."""
    data = fixture_csv
    if rows is not None:
        data = tmp_path / "times.csv"
        data.write_text(rows)
    code, out, _ = run(capsys, ["fit", "rational", str(data), *fit_args])
    assert code == 0
    report = FitReport.from_json(out)
    path = tmp_path / "fit.json"
    path.write_text(out)
    code, curve, _ = run(capsys, ["sample", str(path), *grid])
    assert code == 0

    maxtimes = report.mode == "maxtimes"
    log = math.log if maxtimes else (lambda v: v)
    rational = PuiseuxRational(
        PuiseuxPoly(zip(report.numerator_exponents, map(log, report.numerator_coefficients))),
        PuiseuxPoly(zip(report.denominator_exponents, map(log, report.denominator_coefficients))),
    )
    start, stop, steps = float(grid[1]), float(grid[3]), int(grid[5])
    step = (stop - start) / (steps - 1)
    expected = ["x,value"]
    for x in (start + i * step for i in range(steps)):
        value = eval_rational(rational, log(x))
        expected.append(f"{x!r},{math.exp(value) if maxtimes else value!r}")
    assert curve.splitlines() == expected


def test_sample_reference_fit_at_zero(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text(reference_n2l2_report().to_json())
    code, out, _ = run(
        capsys, ["sample", str(path), "--from", "0", "--to", "1", "--steps", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    x0, v0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(v0) == pytest.approx(0.0950, abs=1e-9)


def test_sample_constant_fit(capsys, tmp_path):
    report = FitReport(
        mode="maxplus",
        n=1,
        numerator_exponents=(0.0,),
        numerator_coefficients=(1.5,),
        delta_star=0.0,
        chebyshev_error=0.0,
        trace=((1, 0.0),),
        stop_reason="completed",
    )
    path = tmp_path / "r.json"
    path.write_text(report.to_json())
    code, out, _ = run(
        capsys, ["sample", str(path), "--from", "-3", "--to", "3", "--steps", "7"]
    )
    assert code == 0
    values = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert values == {"1.5"}


def test_sample_rejects_bad_range(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(reference_n2l2_report().to_json())
    code, _, err = run(capsys, ["sample", str(path), "--from", "0", "--to", "1", "--steps", "1"])
    assert code == 2
    code, _, err = run(capsys, ["sample", str(path), "--from", "1", "--to", "0", "--steps", "5"])
    assert code == 2


@pytest.mark.parametrize(
    "start, stop, flag",
    [("nan", "1", "--from"), ("0", "inf", "--to"), ("-inf", "0", "--from"), ("0", "nan", "--to")],
)
def test_sample_rejects_nonfinite_bound(capsys, tmp_path, start, stop, flag):
    path = tmp_path / "r.json"
    path.write_text(reference_n2l2_report().to_json())
    code, out, err = run(
        capsys, ["sample", str(path), f"--from={start}", f"--to={stop}", "--steps", "5"]
    )
    assert code == 2 and out == ""
    assert f"{flag} must be a finite number" in err


def test_eval_points(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(reference_n2l2_report().to_json())
    code, out, _ = run(capsys, ["eval", str(path), "0.0", "2.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == pytest.approx(0.0950, abs=1e-9)
    # at x = 2 the steep numerator line and flat denominator line win
    expected = max(-0.0628 * 2 + 0.51, 3.8735 * 2 - 4.6017) - max(
        -2.4888 * 2 + 0.415, 0.1216 * 2 - 0.0793
    )
    assert vals[1] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "args, xs",
    [
        (["sample", "--from", "-1e3", "--to", "0", "--steps", "3"], [-1000.0, -500.0, 0.0]),
        (["sample", "--from", "-2E-1", "--to", "-1e-1", "--steps", "2"], [-0.2, -0.1]),
        (["eval", "-1e-3"], [-0.001]),
        (["eval", "-.5", "-1.5e0", "2"], [-0.5, -1.5, 2.0]),
    ],
    ids=["sample-from", "sample-range", "eval-one", "eval-several"],
)
def test_negative_numbers_in_exponent_notation_are_values(capsys, tmp_path, args, xs):
    path = tmp_path / "r.json"
    path.write_text(reference_n2l2_report().to_json())
    code, out, err = run(capsys, [args[0], str(path), *args[1:]])
    assert code == 0, err
    assert [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]] == (
        pytest.approx(xs, abs=1e-15)
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "inf"], "finite"),
        (["eval", "nan"], "finite"),
        (["eval", "0", "-inf"], "finite"),
        (["sample", "--from", "-inf", "--to", "0", "--steps", "3"],
         "--from must be a finite number"),
        (["eval", "inf", "1e308"], "finite"),  # the first point's error wins
    ],
    ids=["eval-inf", "eval-nan", "eval-minus-inf", "sample-from-minus-inf", "eval-inf-first"],
)
def test_nonfinite_arguments_exit_2(capsys, tmp_path, args, message):
    path = tmp_path / "r.json"
    path.write_text(reference_n2l2_report().to_json())
    code, out, err = run(capsys, [args[0], str(path), *args[1:]])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "1e308"], "overflows"),
        (["eval", "0", "-1e308"], "overflows"),
        (["sample", "--from", "-1e308", "--to", "1e308", "--steps", "3"],
         "--from/--to range overflows"),
        (["eval", "1e308", "inf"], "the fitted value at 1e+308 overflows"),
    ],
    ids=["eval-large", "eval-large-negative", "sample-range", "eval-large-first"],
)
def test_maxplus_overflow_exits_2(capsys, fixture_csv, tmp_path, args, message):
    path = tmp_path / "fit.json"
    code, out, _ = run(capsys, ["fit", "rational", str(fixture_csv), "--n", "2", "--l", "2"])
    assert code == 0
    path.write_text(out)
    code, out, err = run(capsys, [args[0], str(path), *args[1:]])
    assert code == 2 and out == ""
    assert message in err


def _walk_numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _walk_numbers(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            yield from _walk_numbers(v)
    elif isinstance(node, float):
        yield node


def test_pipeline_outputs_stay_finite(capsys, fixture_csv, tmp_path):
    code, out, _ = run(capsys, ["fit", "rational", str(fixture_csv), "--n", "3", "--l", "3"])
    assert code == 0
    for value in _walk_numbers(json.loads(out)):
        assert math.isfinite(value)
    report_path = tmp_path / "r.json"
    report_path.write_text(out)
    code, sampled, _ = run(
        capsys, ["sample", str(report_path), "--from", "0", "--to", "2", "--steps", "41"]
    )
    assert code == 0
    for line in sampled.strip().splitlines()[1:]:
        value = float(line.split(",")[1])
        assert math.isfinite(value)


def _report_commands(path):
    return (
        ["eval", str(path), "0.5"],
        ["sample", str(path), "--from", "0", "--to", "1", "--steps", "3"],
    )


def test_eval_and_sample_reject_malformed_monomial_lists(capsys, tmp_path):
    three_exponents = reference_n2l2_report().to_dict()
    three_exponents["numerator"]["exponents"].append(1.0)
    empty_denominator = reference_n2l2_report().to_dict()
    empty_denominator["denominator"] = {"exponents": [], "coefficients": []}
    numerator_list = reference_n2l2_report().to_dict()
    numerator_list["numerator"] = [[-0.0628, 3.8735], [0.51, -4.6017]]
    exponents_number = reference_n2l2_report().to_dict()
    exponents_number["numerator"]["exponents"] = 1.0
    null_exponent = reference_n2l2_report().to_dict()
    null_exponent["denominator"]["exponents"][0] = None
    null_n = reference_n2l2_report().to_dict()
    null_n["n"] = None
    rational_parts = []
    for denominator, message in (({}, "denominator has no 'exponents' field"),
                                 ([], "denominator must be an object"),
                                 (None, "denominator must be an object")):
        data = reference_n2l2_report().to_dict()
        data["denominator"] = denominator
        rational_parts.append((data, message))
    for key in ("l", "denominator"):
        data = reference_n2l2_report().to_dict()
        del data[key]
        rational_parts.append((data, "both 'l' and 'denominator'"))
    for key, count in (("n", 7), ("n", -3), ("l", 1)):
        data = reference_n2l2_report().to_dict()
        data[key] = count
        rational_parts.append((data, f"{key} is {count}, but the"))
    for data, message in (
        *rational_parts,
        (three_exponents, "numerator"),
        (empty_denominator, "denominator"),
        ([reference_n2l2_report().to_dict()], "a report must be an object"),
        (numerator_list, "numerator must be an object"),
        (exponents_number, "numerator exponents must be a list"),
        (null_exponent, "every entry of denominator exponents must be a number"),
        (null_n, "n must be an integer"),
    ):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(data))
        for argv in _report_commands(path):
            code, _, err = run(capsys, argv)
            assert code == 2 and message in err


def test_eval_and_sample_reject_missing_fields_and_malformed_entries(capsys, tmp_path):
    cases = []
    for key in ("mode", "n", "numerator", "delta_star", "chebyshev_error", "trace",
                "stop_reason"):
        data = reference_n2l2_report().to_dict()
        del data[key]
        cases.append((data, f"the report has no '{key}' field"))
    data = reference_n2l2_report().to_dict()
    del data["denominator"]["coefficients"]
    cases.append((data, "denominator has no 'coefficients' field"))
    data = reference_n2l2_report().to_dict()
    data["stop_reason"] = 5
    cases.append((data, "stop_reason must be a string"))
    for entry in ([1, 2, 3], [1], []):
        data = reference_n2l2_report().to_dict()
        data["trace"] = [entry]
        cases.append((data, "a trace entry must be a [step, error] pair"))
    for data, message in cases:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(data))
        for argv in _report_commands(path):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [["poly", "--n", "3"], ["rational", "--n", "3", "--l", "2"]])
def test_fit_reports_round_trip_byte_for_byte(capsys, fixture_csv, argv):
    kind, *counts = argv
    code, out, _ = run(capsys, ["fit", kind, str(fixture_csv), *counts])
    assert code == 0
    assert FitReport.from_json(out).to_json() + "\n" == out


def test_eval_and_sample_reject_unknown_mode(capsys, tmp_path):
    data = reference_n2l2_report().to_dict()
    data["mode"] = "maxtimez"
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    for argv in _report_commands(path):
        code, _, err = run(capsys, argv)
        assert code == 2 and "maxtimez" in err


def test_maxtimes_report_evaluates_as_exp_of_logged_fit(capsys, tmp_path):
    """A max-times rational fit, sampled, equals exp of the max-plus fit of
    the logged data evaluated at the logged arguments."""
    rows = [(math.exp(x), math.exp(y)) for x, y in fixture_rows()]
    times_csv, plus_csv = tmp_path / "times.csv", tmp_path / "plus.csv"
    times_csv.write_text("".join(f"{u!r},{v!r}\n" for u, v in rows))
    plus_csv.write_text("".join(f"{math.log(u)!r},{math.log(v)!r}\n" for u, v in rows))
    reports = {}
    for csv, mode in ((times_csv, "maxtimes"), (plus_csv, "maxplus")):
        argv = ["fit", "rational", str(csv), "--n", "2", "--l", "2", "--max-iter", "20"]
        code, out, _ = run(capsys, argv + ["--mode", mode])
        assert code == 0
        reports[mode] = tmp_path / f"{mode}.json"
        reports[mode].write_text(out)

    code, out, _ = run(
        capsys, ["sample", str(reports["maxtimes"]), "--from", "1", "--to", "7", "--steps", "31"]
    )
    assert code == 0
    sampled = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    logged = [repr(math.log(t)) for t, _ in sampled]
    code, out, _ = run(capsys, ["eval", str(reports["maxplus"]), *logged])
    assert code == 0
    plus_values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert [v for _, v in sampled] == pytest.approx(
        [math.exp(v) for v in plus_values], rel=1e-9
    )

    code, _, err = run(capsys, ["eval", str(reports["maxtimes"]), "0"])
    assert code == 2 and "positive" in err
