"""The flight recorder: anomaly-triggered post-mortem dumps.

:class:`FlightRecorder` keeps the last-N probe records in a ring and,
when an anomaly fires, writes a numbered dump pair into its output
directory:

* ``flight-NNN-<reason>.jsonl`` — the retained records, formatted like
  the tracer's JSONL export;
* ``flight-NNN-<reason>.dot`` — a waits-for snapshot at the moment of
  the anomaly (via :func:`repro.io.dot.waits_for_to_dot`), read from
  the lock tables: each queued waiter, to the holders of its cell.

Triggers:

* **deadlock detection** — an ``abort`` probe with cause
  ``detected`` fires before the victim releases anything, so the
  snapshot still contains the cycle;
* **site crash** — the ``site_crash`` event probe fires before the
  crash releases the site's locks;
* **abort cascade** — ``flight_cascade_threshold`` aborts within a
  single dispatched event (the cascade worklist runs synchronously, so
  per-event abort count is cascade depth).

Dumps stop after ``max_dumps`` anomalies so a pathological run cannot
fill the disk.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.io.dot import waits_for_to_dot
from repro.sim.observe.probes import ProbeSink
from repro.sim.observe.trace import iter_formatted

__all__ = ["FlightRecorder"]


class FlightRecorder(ProbeSink):
    """Dump the recent past when the simulation hits an anomaly."""

    def __init__(
        self,
        out_dir: str,
        last_n: int = 256,
        cascade_threshold: int = 25,
        max_dumps: int = 16,
    ):
        self.out_dir = out_dir
        self.ring: deque = deque(maxlen=last_n)
        self.cascade_threshold = cascade_threshold
        self.max_dumps = max_dumps
        #: one dict per dump written: reason, time, events, dot paths.
        self.dumps: list[dict] = []
        self._cascade = 0
        self._sim = None

    def bind(self, sim) -> None:
        self._sim = sim
        os.makedirs(self.out_dir, exist_ok=True)

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        self.ring.append((time, kind, args))
        if kind == "event":
            self._cascade = 0
            if args[0] == "site_crash":
                self.dump("site-crash")
        elif kind == "abort":
            if args[2] == "detected":
                self.dump("deadlock-detected")
            self._cascade += 1
            if self._cascade == self.cascade_threshold:
                self.dump("abort-cascade")

    def finalize(self, sim, result) -> None:
        pass

    def dump(self, reason: str) -> dict | None:
        """Write one dump pair; returns its manifest entry (or None
        once ``max_dumps`` is reached)."""
        if len(self.dumps) >= self.max_dumps:
            return None
        sim = self._sim
        stem = os.path.join(
            self.out_dir, f"flight-{len(self.dumps):03d}-{reason}"
        )
        events_path = stem + ".jsonl"
        with open(events_path, "w", encoding="utf-8") as fh:
            for record in iter_formatted(
                self.ring, sim._entity_names, sim._site_names
            ):
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")
        dot_path = stem + ".dot"
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(waits_for_to_dot(sim._wait_for_edges()))
        entry = {
            "reason": reason,
            "time": sim._now,
            "events": events_path,
            "waits_for": dot_path,
        }
        self.dumps.append(entry)
        return entry
