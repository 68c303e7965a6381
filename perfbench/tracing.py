"""Outside-in tracing of the fit pipeline, layer by layer.

The tracer replaces public names of the package's modules with wrappers, in
the module where each caller looks the name up (``fit_rational`` finds
``fit_polynomial`` in ``tropfit.fitting``, ``_pair_score`` finds
``pairwise_minimum_value`` in ``tropfit.clustering``, and so on), and puts
the originals back when it is closed.  Nothing under ``src/`` changes.

Each wrapped call records a span: name, start, end, parent span and the id
of the job it belongs to.  The innermost kernel, ``pairwise_minimum_value``,
runs hundreds of thousands of times per pass; its calls are counted and
timed into their parent span instead of becoming spans of their own.  Heap
pops are counted by a stand-in for ``tropfit.clustering.heapq``.  A merge in
``agglomerate`` is a run of pops that ends with a push or with the return,
so merges are counted outside-in too and checked against the program's own
definition, sum(M - n) over the ``agglomerate`` calls.

Layers are the package's modules: cli, report, fitting, clustering and
puiseux.  ``linalg`` and ``maxplus`` are not on the fit path and are not
measured.  A wrapped name that no longer exists makes the metrics that need
it absent instead of failing the run.
"""

from __future__ import annotations

import functools
import heapq
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tropfit.cli
import tropfit.clustering
import tropfit.fitting
import tropfit.puiseux
import tropfit.report

STOP_CAP = getattr(tropfit.fitting, "STOP_CAP", "iteration-cap")

#: (name where the caller looks it up, span name) of every call recorded as
#: a span.  The evaluator that ``cli.evaluator`` returns is spanned as
#: ``report.evaluate``.
SPANNED = (
    ("cli.main", "cli.main"),
    ("cli.load_samples", "report.load_samples"),
    ("cli.report_from_rational_fit", "report.serialize"),
    ("report.FitReport.to_json", "report.serialize"),
    ("report.FitReport.from_json", "report.serialize"),
    ("cli.evaluator", "report.evaluator"),
    ("cli.fit_rational", "fitting.fit_rational"),
    ("fitting.fit_polynomial", "fitting.fit_polynomial"),
    ("fitting.error_polynomials", "clustering.error_polynomials"),
    ("fitting.agglomerate", "clustering.agglomerate"),
    ("clustering.min_poly", "puiseux.min_poly"),
)

#: Kernel entry points, counted and timed into their parent span.
KERNELS = (
    ("clustering.pairwise_minimum_value", "pair_scores"),
    ("puiseux.pairwise_minimum_value", "min_poly_kernels"),
)

HEAPQ = "clustering.heapq"


def _resolve(dotted: str):
    """(owner, attribute) for a dotted name under ``tropfit``, or None."""
    owner = tropfit
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class _CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pops and merges."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self.pending = False

    def heappush(self, heap, item):
        self.flush()
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self._tracer.counts["heap_pops"] += 1
        self.pending = True
        return heapq.heappop(heap)

    def flush(self) -> None:
        if self.pending:
            self._tracer.counts["merges"] += 1
            self.pending = False

    def __getattr__(self, name):
        return getattr(heapq, name)


class Tracer:
    """Spans and counters of one traced pass; ``close`` undoes every patch."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, kernel seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = 0
        self.counts: Counter = Counter()
        self.kernel_s = 0.0
        self.fit_polynomial_s: list[float] = []
        self.patched: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        for dotted, name in SPANNED:
            self._patch(dotted, lambda fn, name=name: self._spanned(name, fn))
        for dotted, counter in KERNELS:
            self._patch(dotted, lambda fn, counter=counter: self._kernel(counter, fn))
        self._heapq = _CountingHeapq(self)
        self._patch(HEAPQ, lambda _: self._heapq)
        if HEAPQ not in self.patched:
            self._heapq = None

    def _patch(self, dotted: str, make) -> None:
        target = _resolve(dotted)
        if target is None:
            return
        owner, attr = target
        raw = vars(owner)[attr]
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, make(getattr(owner, attr)))
        self.patched.add(dotted)

    def close(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def begin_job(self) -> None:
        self.job += 1

    def _spanned(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            spans.append(span)
            stack.append(index)
            if name == "clustering.agglomerate" and self._heapq is not None:
                self._heapq.pending = False
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(span, args, kwargs, result)
            return result

        return wrapper

    def _kernel(self, counter: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            self.kernel_s += elapsed
            counts[counter] += 1
            if len(args) >= 3:
                counts["kernel_pairs"] += args[0].size * args[2].size
            if stack:
                spans[stack[-1]][5] += elapsed
            return result

        return wrapper

    # Result hooks, run after the span has ended.

    def _after_fitting_fit_rational(self, span, args, kwargs, fit):
        trace = fit.trace
        self.counts["stops_at_cap"] += fit.stop_reason == STOP_CAP
        best = min(range(len(trace)), key=lambda i: trace[i][1])
        self.counts["best_steps"] += trace[best][0]
        self.counts["rational_halfsteps"] += len(trace)
        return fit

    def _after_fitting_fit_polynomial(self, span, args, kwargs, fit):
        elapsed = span[2] - span[1]
        self.fit_polynomial_s.append(elapsed)
        parent = span[3]
        if parent >= 0 and self.spans[parent][0] == "fitting.fit_rational":
            self.counts["halfsteps"] += 1
        return fit

    def _after_clustering_error_polynomials(self, span, args, kwargs, polys):
        self.counts["error_monomials"] += len(polys) ** 2
        return polys

    def _after_clustering_agglomerate(self, span, args, kwargs, result):
        if self._heapq is not None:
            self._heapq.flush()
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.counts["expected_merges"] += len(args[0]) - n
        return result

    def _after_report_serialize(self, span, args, kwargs, result):
        if isinstance(result, str):
            self.counts["json_bytes"] += len(result.encode())
        return result

    def _after_report_evaluator(self, span, args, kwargs, evaluate):
        return self._spanned("report.evaluate", evaluate)

    # Metrics.

    def self_times(self) -> list[float]:
        """Each span's duration less its child spans and kernel calls."""
        out = [end - start - kernel for _, start, end, _, _, kernel in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, untraced_wall_s: float, traced_wall_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics by name, and the names that could not be measured."""
        own = self.self_times()
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for span, own_s in zip(self.spans, own):
            total[span[0]] += span[2] - span[1]
            self_s[span[0]] += own_s
            calls[span[0]] += 1
        c = self.counts
        have = self.patched.__contains__
        merges_ok = c["merges"] == c["expected_merges"]
        if have(HEAPQ) and not merges_ok:
            print(f"perfbench: merges counted outside-in ({c['merges']}) differ from "
                  f"sum(M - n) ({c['expected_merges']}); heap metrics left out",
                  file=sys.stderr)

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0] * 1e3
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3

        fp = "fitting.fit_polynomial"
        fr = "cli.fit_rational"
        kernel_both = all(have(k) for k, _ in KERNELS)
        heap = have(HEAPQ) and have("fitting.agglomerate") and merges_ok
        candidates = [
            ("fitting.halfsteps", have(fp) and have(fr), c["halfsteps"], "count"),
            ("fitting.stops_at_cap", have(fr), c["stops_at_cap"], "count"),
            ("fitting.best_step_ratio", have(fr),
             ratio(c["best_steps"], c["rational_halfsteps"]), "1"),
            ("fitting.fit_rational_self_s", have(fr), self_s["fitting.fit_rational"], "s"),
            ("fitting.fit_polynomial_calls", have(fp), calls[fp], "count"),
            ("fitting.fit_polynomial_self_s", have(fp), self_s[fp], "s"),
            ("fitting.halfstep_ms_p50", have(fp), pct(self.fit_polynomial_s, 50), "ms"),
            ("fitting.halfstep_ms_p99", have(fp), pct(self.fit_polynomial_s, 99), "ms"),
            ("clustering.agglomerate_s", have("fitting.agglomerate"),
             total["clustering.agglomerate"], "s"),
            ("clustering.agglomerate_self_s", have("fitting.agglomerate"),
             self_s["clustering.agglomerate"], "s"),
            ("clustering.pair_scores", have(KERNELS[0][0]), c["pair_scores"], "count"),
            ("clustering.pair_scores_per_merge", have(KERNELS[0][0]) and heap,
             ratio(c["pair_scores"], c["merges"]), "count"),
            ("clustering.heap_pops", have(HEAPQ), c["heap_pops"], "count"),
            ("clustering.merges", heap, c["merges"], "count"),
            ("clustering.pop_useful_ratio", heap, ratio(c["merges"], c["heap_pops"]), "1"),
            ("clustering.error_polynomials_s", have("fitting.error_polynomials"),
             total["clustering.error_polynomials"], "s"),
            ("clustering.error_monomials", have("fitting.error_polynomials"),
             c["error_monomials"], "count"),
            ("puiseux.pairwise_minimum_value_s", kernel_both, self.kernel_s, "s"),
            ("puiseux.kernel_pairs", kernel_both, c["kernel_pairs"], "count"),
            ("puiseux.ns_per_kernel_pair", kernel_both,
             ratio(self.kernel_s * 1e9, c["kernel_pairs"]), "ns"),
            ("puiseux.min_poly_calls", have("clustering.min_poly"),
             calls["puiseux.min_poly"], "count"),
            ("puiseux.min_poly_s", have("clustering.min_poly"), total["puiseux.min_poly"], "s"),
            ("report.load_samples_s", have("cli.load_samples"),
             total["report.load_samples"], "s"),
            ("report.serialize_s", have("report.FitReport.to_json"),
             total["report.serialize"], "s"),
            ("report.sample_s", have("cli.evaluator"),
             total["report.evaluator"] + total["report.evaluate"], "s"),
            ("report.json_bytes", have("report.FitReport.to_json"), c["json_bytes"], "bytes"),
            ("cli.main_s", have("cli.main"), total["cli.main"], "s"),
            ("cli.self_s", have("cli.main"), self_s["cli.main"], "s"),
            ("trace.overhead_frac", True, traced_wall_s / untraced_wall_s - 1, "1"),
        ]
        metrics = {name: {"value": value, "unit": unit}
                   for name, ok, value, unit in candidates if ok}
        absent = [name for name, ok, _, _ in candidates if not ok]
        return metrics, absent

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job, kernel in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job, "kernel_s": kernel,
                }) + "\n")
