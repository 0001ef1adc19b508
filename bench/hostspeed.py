"""Host-speed reference kernel, measured alongside the ops.

The host this benchmark was written on is shared: identical work took
0.24 to 0.48 s from one second to the next, and CPU time tracked wall time,
so the drift is in how fast the CPU runs, not in scheduling.  The op
times behind ``ops_per_s`` and ``op_s_p50`` are therefore normalized:
between steps the benchmark times a fixed reference kernel that uses no
birkdag code, and scales each step of at most 2 s by
``NOMINAL_S / reference time``.  The result reads as seconds on
a host that runs the reference in ``NOMINAL_S``.  A change to birkdag moves
the op times but not the reference, so it moves the normalized metric by
the same share.  The raw wall-clock values are reported next to them.

The kernel mixes what birkdag spends its time on: many numpy calls on
small arrays (Sinkhorn scaling of 12 x 12 matrices, interpreter-bound, like
the dual ascent at small p) and a few BLAS products at p = 400.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on the 2-core host the benchmark was written on.
NOMINAL_S = 0.0200

_RNG = np.random.default_rng(20211)
_SMALL = [_RNG.random((12, 12)) + 0.1 for _ in range(8)]
_BIG = np.add.outer(np.arange(400.0), np.arange(400.0)) / 400.0


def reference_kernel() -> float:
    acc = 0.0
    for m in _SMALL:
        q = m.copy()
        for _ in range(200):
            q /= q.sum(axis=1, keepdims=True)
            q /= q.sum(axis=0, keepdims=True)
        acc += float(np.maximum(q - 0.05, 0.0).sum())
    for _ in range(3):
        acc += float((_BIG @ _BIG[:50].T).sum())
    return acc


class HostSpeed:
    """Reference-kernel timings taken during one run."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self, repeats: int = 1) -> float:
        """Time the kernel `repeats` times; return the median."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.samples += times
        return statistics.median(times)


def scale(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Normalize a time by the mean of the reference timings around it."""
    return raw_s * NOMINAL_S / (0.5 * (ref_before + ref_after))
