"""Host speed, measured with a fixed reference loop between jobs.

The 2-core virtual machines this benchmark was tuned on run the same fit up to
about 35 % slower for minutes at a time, as neighbouring load comes and
goes; a 35-second run then lands wholly in one state, and medians within a
run cannot remove that.  The reference loop does the same kind of work as
the fit path (numpy arithmetic on arrays of tens of elements, driven by a
Python loop with a heap) but none of the program's code, so no change to
the program moves it.  Dividing a run's times by its median reference time
cancels most of the host's state: in a five-minute test the coefficient of
variation of one ``fit_polynomial`` time over 35-second windows fell from
6.2 % to 2.3 % after the division.

Times are reported as seconds on a host where the reference loop takes
``REFERENCE_S``, which is about its time on the machine the benchmark was
tuned on.
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter

import numpy as np

#: Median reference time that the reported seconds are scaled to.
REFERENCE_S = 0.04
#: Least time between two reference samples while jobs run.
INTERVAL_S = 1.0
ITERATIONS = 1000


def _reference_arrays() -> list[tuple[np.ndarray, ...]]:
    rng = random.Random(0)
    out = []
    for _ in range(ITERATIONS):
        a, b = rng.randint(3, 40), rng.randint(3, 40)
        out.append((
            np.array([-rng.random() - 0.01 for _ in range(a)]),
            np.array([rng.random() for _ in range(a)]),
            np.array([rng.random() + 0.01 for _ in range(b)]),
            np.array([rng.random() for _ in range(b)]),
        ))
    return out


def _reference(arrays) -> float:
    heap: list = []
    for i, (neg_p, neg_t, pos_p, pos_t) in enumerate(arrays):
        neg_p = np.concatenate([neg_p, neg_p])
        neg_t = np.concatenate([neg_t, neg_t])
        pos_p = np.concatenate([pos_p, pos_p])
        pos_t = np.concatenate([pos_t, pos_t])
        span = neg_p[:, None] - pos_p[None, :]
        vals = neg_t[:, None] * (-pos_p[None, :] / span) + pos_t[None, :] * (neg_p[:, None] / span)
        heapq.heappush(heap, (round(float(vals.max()) * 1e12), i))
        if i % 3 == 2:
            heapq.heappop(heap)
    return heap[0][0]


class HostSpeed:
    """Reference samples of one run."""

    def __init__(self):
        self._arrays = _reference_arrays()
        self.samples: list[float] = []
        self._last = -INTERVAL_S

    def sample(self) -> None:
        start = perf_counter()
        _reference(self._arrays)
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
