"""Machine-speed reference for the benchmark's latencies.

The machines this benchmark runs on change speed over seconds: the same
scan takes 40 ms, then 75 ms, with no steal time recorded. A fixed
pure-Python loop doing the same kind of work as pkgraph (dicts, lists,
sorting, string formatting) slows down with it, so each latency is
scaled to the speed at which the loop takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.001


def reference_seconds() -> float:
    """Time of one run of the reference loop (about 1 ms on a 2-vCPU
    x86-64 VM)."""
    start = time.perf_counter()
    index = {}
    for i in range(3000):
        index.setdefault(f"k{i % 512}", []).append(i)
    ordered = sorted(index.items(), key=lambda kv: (len(kv[1]), kv[0]))
    ",".join(key for key, _ in ordered)
    return time.perf_counter() - start


def speed_factors(reference: list) -> list:
    """Scale factor for operation i, which ran between reference[i] and
    reference[i + 1]: REFERENCE_S over the median of the four nearest
    reference times."""
    return [
        REFERENCE_S / statistics.median(reference[max(0, i - 1): i + 3])
        for i in range(len(reference) - 1)
    ]
