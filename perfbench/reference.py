"""A fixed reference workload that gauges the host's current speed.

Shared and virtual machines change speed by a third or more over
periods of seconds to minutes, on every CPU at once (see README.md).
``run.py`` times this loop between its measured interpreters, on their
CPU, and rescales the run's timings by the median of those times, so a
run reports seconds on a host of fixed speed.

The loop mimics the simulator's kind of work (a heap of timed events,
handlers looked up in a dict, tuples, a large dict of state) but uses
nothing from ``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import random
import time

#: Rescaled timings are host seconds on a host where one pass takes
#: exactly this long; the 2-vCPU Xeon VM the bounds were set on took
#: 1.0-1.6 s.
NOMINAL_S = 1.0

_EVENTS = 750_000
_KEYS = 1 << 17


def reference_seconds() -> float:
    """Host seconds of one pass of the reference loop."""
    start = time.perf_counter()
    rng = random.Random(12345)
    heap: list = []
    state: dict = {}
    seq = 0

    def on_a(key: int) -> tuple:
        state[key] = state.get(key, 0) + 1
        return ("b", (key * 7919) % _KEYS)

    def on_b(key: int) -> tuple:
        bucket = state.setdefault(("l", key % 4093), [])
        bucket.append(key)
        if len(bucket) > 8:
            del bucket[:4]
        return ("a", (key * 104729 + 1) % _KEYS)

    handlers = {"a": on_a, "b": on_b}
    for i in range(256):
        heapq.heappush(heap, (rng.random(), seq, ("a", i)))
        seq += 1
    for _ in range(_EVENTS):
        now, _, payload = heapq.heappop(heap)
        kind, key = payload
        heapq.heappush(heap, (now + rng.random(), seq, handlers[kind](key)))
        seq += 1
    return time.perf_counter() - start


if __name__ == "__main__":
    # python3 reference.py CPU: one pass, pinned to CPU when CPU >= 0.
    import os
    import sys

    if int(sys.argv[1]) >= 0:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    print(reference_seconds())
