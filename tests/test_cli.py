"""Command-line interface: fixture generation, fitting commands, report
serialization, curve sampling, and input-error handling."""

import json
import math

import pytest

from tropfit.cli import fixture_curve, fixture_rows, main
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
    assert report.stop_reason in {"converged-within-epsilon", "cycle", "iteration-cap"}


def test_report_roundtrips_at_12_digits(capsys, fixture_csv):
    code, out, _ = run(
        capsys, ["fit", "rational", str(fixture_csv), "--n", "3", "--l", "2"]
    )
    assert code == 0
    report = FitReport.from_json(out)
    again = FitReport.from_json(report.to_json())
    assert again == report


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
    assert code == 2 and "positive" in err


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
    for data, part in ((three_exponents, "numerator"), (empty_denominator, "denominator")):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(data))
        for argv in _report_commands(path):
            code, _, err = run(capsys, argv)
            assert code == 2 and part in err


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
