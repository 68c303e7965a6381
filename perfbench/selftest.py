"""Self-test of the benchmark: tracing may change timings only.

Run from the root of a checkout, directly or under pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

At the default seed it runs the benchmark command on every workload, once
untraced and once traced, and requires identical job fingerprints
(delta_star, stop reason, half-step count, partition hash) from the two
processes.  It also checks the fixture's known work counts, the outside-in
merge count against sum(M - n), that the metrics printed are the ones
``BENCHMARK.json`` declares, and that self times are non-negative.  It
takes about two minutes.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fixture-cli", "noisy-poly", "convex-poly")
FIXTURE_COUNTS = {
    "fitting.halfsteps": 871,
    "clustering.merges": 14992,
    "clustering.pair_scores": 345348,
    "clustering.heap_pops": 149092,
}


@functools.cache
def record(workload: str, trace: int) -> dict:
    """Run the benchmark once at seed 0 and load the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return json.loads((ROOT / ".perfbench" / f"{workload}-seed0-trace{trace}.json").read_text())


def test_tracing_leaves_fingerprints_unchanged():
    for workload in WORKLOADS:
        assert record(workload, 0)["fingerprints"] == record(workload, 1)["fingerprints"]


def test_fixture_work_counts():
    metrics = record("fixture-cli", 1)["metrics"]
    assert {name: metrics[name]["value"] for name in FIXTURE_COUNTS} == FIXTURE_COUNTS


def test_layer_metrics_present_and_consistent():
    for workload in WORKLOADS:
        traced = record(workload, 1)
        assert traced["absent"] == []
        assert traced["counts"]["merges"] == traced["counts"]["expected_merges"] > 0
        for name, entry in traced["metrics"].items():
            if name.endswith("self_s"):
                assert entry["value"] >= 0, (workload, name, entry)


def test_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in declared[key]}
        for workload in WORKLOADS:
            metrics = record(workload, trace)["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == expected


def test_seed_zero_is_the_gen_fixture_csv(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tropfit.cli
    import workloads

    out = tmp_path / "fixture.csv"
    assert tropfit.cli.main(["gen-fixture", str(out)]) == 0
    assert workloads.fixture_csv(0) == out.read_text()


if __name__ == "__main__":
    import tempfile

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            if "tmp_path" in test.__code__.co_varnames[: test.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as tmp:
                    test(Path(tmp))
            else:
                test()
            print(f"PASS {name}")
