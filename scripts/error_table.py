#!/usr/bin/env python3
"""Reproduce the rational-approximation error table on the bundled dataset.

Default: the six headline (N, L) configurations.  ``--full`` sweeps the whole
N, L in 2..7 grid and reports, for each N, the L with the smallest squared
error.  ``--offset C`` fits the ordinates plus C, to see how the stop rules
fare far from 0.  The last line gives the total half-steps of all fits and
the configurations that ran to the iteration cap.  ``--plot-data out.csv``
additionally samples the best fitted curve for external plotting.
"""

import argparse
import time

from tropfit import FitConfig, SampleSet, eval_rational, fit_rational
from tropfit.cli import fixture_rows
from tropfit.fitting import STOP_CAP

HEADLINE = [(2, 2), (3, 3), (4, 4), (5, 3), (6, 5), (7, 5)]


def run(samples: SampleSet, n: int, l: int):
    start = time.perf_counter()
    fit = fit_rational(samples, FitConfig(n=n, l=l))
    return fit, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="sweep N, L in 2..7")
    parser.add_argument("--offset", type=float, default=0.0, metavar="C", help="fit ys + C")
    parser.add_argument("--plot-data", metavar="OUT", help="write sampled best curve")
    args = parser.parse_args()

    samples = SampleSet.from_points(
        [(round(x, 4), round(y, 4) + args.offset) for x, y in fixture_rows()]
    )

    print(f"{'N':>2} {'L':>2} {'delta*':>10} {'stop':>26} {'iters':>6} {'time':>7}")
    best_fit, best_delta = None, float("inf")
    configs = (
        [(n, l) for n in range(2, 8) for l in range(2, 8)] if args.full else HEADLINE
    )
    per_n: dict[int, tuple[float, int]] = {}
    halfsteps, capped = 0, []
    for n, l in configs:
        fit, elapsed = run(samples, n, l)
        print(
            f"{n:>2} {l:>2} {fit.delta_star:>10.6f} {fit.stop_reason:>26} "
            f"{len(fit.trace):>6} {elapsed:>6.2f}s"
        )
        halfsteps += len(fit.trace)
        if fit.stop_reason == STOP_CAP:
            capped.append(f"({n},{l})")
        if fit.delta_star < per_n.get(n, (float("inf"), 0))[0]:
            per_n[n] = (fit.delta_star, l)
        if fit.delta_star < best_delta:
            best_fit, best_delta = fit, fit.delta_star

    if args.full:
        print("\nbest L per N:")
        for n in sorted(per_n):
            delta, l = per_n[n]
            print(f"  N={n}: L={l}, delta*={delta:.6f}")

    if args.plot_data and best_fit is not None:
        rational, steps = best_fit.rational, 401
        with open(args.plot_data, "w") as fh:
            fh.write("x,value\n")
            for i in range(steps):
                x = 2.0 * i / (steps - 1)
                fh.write(f"{x},{eval_rational(rational, x)}\n")
        print(f"\nwrote {steps} curve samples to {args.plot_data}")
    print(f"\ntotal half-steps {halfsteps}; at the cap: {' '.join(capped) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
