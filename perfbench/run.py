#!/usr/bin/env python3
"""tropfit benchmark: one workload, one process, one call at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixture-cli --seed 1 --seconds 35 --trace 0

The benchmark imports the package from ``src/`` of the checkout it sits in,
generates the workload's inputs from ``--seed``, makes one untimed warm-up
fit, and then runs the workload's jobs in order, one at a time (a closed
loop with a single caller), repeating them until ``--seconds`` would be
exceeded; every job runs at least once.  Each result is checked outside the
timed region.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics:

    setup_s             median over fresh processes (13, 5 or 3 by
                        workload, started between jobs at even intervals)
                        of the time from process start to ready to time
                        the first job (import, input generation, warm-up
                        fit)
    wall_s              time of one pass over the jobs: sum over jobs of
                        the median time of each job
    fit_s_max           median fit time of the slowest kind of job
                        (an (N, L) config, or a monomial count n)
    delta_star_geomean  geometric mean of the reported delta_star
    ok_frac             share of job runs that passed every check
    peak_rss_mb         peak resident memory of the measuring process

The three times are scaled by the host speed sampled between jobs (see
``hostspeed.py``); the record keeps them unscaled as ``raw_metrics``.

With ``--trace 1`` it runs one pass untraced and one pass traced (see
``tracing.py``) and prints the per-layer metrics instead.  Both modes write
a record with the run's provenance, every job's fingerprint and the metrics
to ``.perfbench/`` in the checkout; the traced run writes its spans there
too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("fixture-cli", "noisy-poly", "convex-poly")
#: Fresh set-up processes per run.  One fixture-cli set-up (about 0.5 s,
#: mostly imports) varies by a third between processes, so it takes more
#: of them; a convex-poly set-up is a 3 s fit that varies little.
SETUP_PROCESSES = {"fixture-cli": 13, "noisy-poly": 5, "convex-poly": 3}
SETUP_TIMEOUT_S = 60


class SetupError(Exception):
    pass


def import_program():
    """Import tropfit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tropfit" / "__init__.py").is_file():
        raise SetupError(f"no tropfit package under {src}; run from a tropfit checkout")
    sys.path.insert(0, str(src))
    import tropfit

    if not Path(tropfit.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"imported tropfit from {tropfit.__file__}, not from {src}")


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate inputs and warm up; returns (workload, partition log)."""
    import_program()
    import workloads

    log = workloads.PartitionLog()
    built = workloads.build(workload, seed, workdir, log)
    built.warm_up()
    return built, log


def time_setup(workload: str, seed: int) -> float:
    """Time from process start to ready of one fresh set-up process."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        try:
            line = child.stdout.readline()
            ready = perf_counter()
            child.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise SetupError("set-up process did not exit") from None
    if line.strip() != "ready" or child.returncode != 0:
        raise SetupError(f"set-up process failed with exit code {child.returncode}")
    return ready - start


def run_pass(jobs, results, before_job=None) -> None:
    for job in jobs:
        if before_job is not None:
            before_job()
        results[job.label].append(job.run())


def run_timed(jobs, seconds: float, speed, set_up, setups: int) -> tuple[dict, list[float]]:
    """Repeat the jobs in order for ``seconds`` of job time, once every job
    has run, and return their outcomes and the set-up times.

    Between jobs the loop samples host speed and, at even intervals of job
    time, times one of ``setups`` fresh set-up processes with ``set_up``, so
    that set-up and jobs are measured in the same host states.  Time spent
    in set-up processes does not count against ``seconds``; set-ups still
    due when the jobs end are run then.
    """
    results = {job.label: [] for job in jobs}
    setup_times: list[float] = []
    start = perf_counter()
    paused = 0.0

    def between_jobs() -> None:
        nonlocal paused
        speed.sample_if_due()
        due = (perf_counter() - start - paused) * setups / seconds
        if len(setup_times) < setups and len(setup_times) <= due:
            before = perf_counter()
            setup_times.append(set_up())
            paused += perf_counter() - before

    run_pass(jobs, results, between_jobs)
    while True:
        for job in jobs:
            if perf_counter() - start - paused + results[job.label][-1].job_s > seconds:
                while len(setup_times) < setups:
                    setup_times.append(set_up())
                return results, setup_times
            between_jobs()
            results[job.label].append(job.run())


def check_repeats(results: dict) -> None:
    """Fail every job run whose fingerprint differs from the job's first run."""
    for runs in results.values():
        for outcome in runs[1:]:
            if outcome.fingerprint != runs[0].fingerprint and not outcome.failures:
                outcome.failures.append("fingerprint changed between runs")


def end_to_end(jobs, results: dict, setup_s: float, ok_frac: float) -> dict:
    """The end-to-end metrics, with times in this run's seconds."""
    wall_s = sum(statistics.median(r.job_s for r in results[j.label]) for j in jobs)
    by_kind: dict[str, list[float]] = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).extend(r.fit_s for r in results[job.label])
    fit_s_max = max(statistics.median(times) for times in by_kind.values())
    deltas = [results[j.label][0].fingerprint.get("delta_star") for j in jobs]
    deltas = [d for d in deltas if d]
    geomean = math.exp(statistics.fmean(math.log(d) for d in deltas)) if deltas else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "fit_s_max": {"value": fit_s_max, "unit": "s"},
        "delta_star_geomean": {"value": geomean, "unit": "ordinate"},
        "ok_frac": {"value": ok_frac, "unit": "frac"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def fingerprints(results: dict) -> dict:
    return {label: runs[0].fingerprint for label, runs in results.items()}


def tally(*result_sets: dict) -> dict:
    """Job runs attempted and failed, with the failure messages."""
    runs = [(label, r) for results in result_sets
            for label, rs in results.items() for r in rs]
    failed = sum(bool(r.failures) for _, r in runs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "failures": [f"{label}: {msg}" for label, r in runs for msg in r.failures],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        built, log = set_up(args.workload, args.seed, workdir)
        try:
            if args.trace:
                record = trace_run(built, args.workload, args.seed)
            else:
                record = timed_run(built, args.workload, args.seed, args.seconds)
        finally:
            log.close()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["provenance"] = provenance(args)
    record["inputs"] = {"samples": built.samples,
                        "lower_hull_samples": built.lower_hull_samples}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in record["failures"][:20]:
        print(f"FAILED {msg}")
    print("provenance " + json.dumps(record["provenance"]))
    for metric, entry in record["metrics"].items():
        print(f"{metric:36} {entry['value']:.6g} {entry['unit']}")
    for metric in record.get("absent", []):
        print(f"{metric:36} absent")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def timed_run(built, workload: str, seed: int, seconds: float) -> dict:
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.sample()
    results, setup_times = run_timed(
        built.jobs, seconds, speed, lambda: time_setup(workload, seed),
        SETUP_PROCESSES[workload])
    check_repeats(results)
    record = tally(results)
    ok_frac = 1 - record["failed"] / record["attempted"]
    raw = end_to_end(built.jobs, results, statistics.median(setup_times), ok_frac)
    scale = speed.scale()
    record["metrics"] = {
        name: {"value": m["value"] * scale if m["unit"] == "s" else m["value"], "unit": m["unit"]}
        for name, m in raw.items()
    }
    record.update(raw_metrics=raw, setup_times_s=setup_times, reference_samples_s=speed.samples,
                  fingerprints=fingerprints(results))
    return record


def trace_run(built, workload: str, seed: int) -> dict:
    import tracing

    untraced = {job.label: [] for job in built.jobs}
    run_pass(built.jobs, untraced)
    tracer = tracing.Tracer()
    traced = {job.label: [] for job in built.jobs}
    try:
        run_pass(built.jobs, traced, tracer.begin_job)
    finally:
        tracer.close()
    for label, runs in traced.items():
        if runs[0].fingerprint != untraced[label][0].fingerprint and not runs[0].failures:
            runs[0].failures.append("fingerprint differs from the untraced run")
    wall = [sum(rs[0].job_s for rs in r.values()) for r in (untraced, traced)]
    metrics, absent = tracer.metrics(*wall)
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    record = tally(untraced, traced)
    record.update(metrics=metrics, absent=absent, counts=dict(tracer.counts),
                  fingerprints=fingerprints(traced))
    return record


if __name__ == "__main__":
    raise SystemExit(main())
