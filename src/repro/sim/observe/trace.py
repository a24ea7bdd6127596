"""Structured event tracing: bounded ring buffer plus exporters.

:class:`EventTracer` retains the most recent ``capacity`` probe
records and exports them as

* **JSONL** — one self-describing dict per line, the lossless format
  (:meth:`EventTracer.export_jsonl`);
* **Chrome ``trace_event`` JSON** — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``
  (:meth:`EventTracer.export_chrome`). Lock waits and holds become
  duration events on one track per (site, transaction); transaction
  lifecycle marks (arrive, prepared, commit, abort-with-cause) and
  runtime events (restarts, timeouts, detection scans, crashes,
  repairs, commit-round messages) become instants; the counters
  bumped through ``Simulator.count`` become Chrome counter tracks. One
  simulated time unit is rendered as one millisecond.

Every abort record carries the cause the runtime passed to its abort
entry point (``wound``, ``death``, ``timeout``, ``detected``,
``crash``, ``unavailable`` or ``commit``), so a record's cause never
depends on which other records the ring kept.
"""

from __future__ import annotations

import json
from collections import Counter, deque

from repro.sim.observe.probes import CELL_KINDS, ProbeSink

__all__ = [
    "EventTracer",
    "iter_formatted",
    "load_trace",
    "summarize_trace",
]


def iter_formatted(records, entity_names, site_names):
    """Render raw ``(time, kind, args)`` records as dicts, in order."""
    for time, kind, args in records:
        if kind == "event" or kind == "sched":
            yield {
                "t": time,
                "kind": kind,
                "event": args[0],
                "args": list(args[1:]),
            }
        elif kind in CELL_KINDS:
            sid, eid, txn = args
            yield {
                "t": time,
                "kind": kind,
                "site": site_names[sid],
                "entity": entity_names[eid],
                "txn": txn,
            }
        elif kind == "counter":
            name, value = args
            yield {"t": time, "kind": "counter", "name": name, "value": value}
        elif kind == "abort":
            txn, attempt, cause = args
            yield {
                "t": time,
                "kind": "abort",
                "txn": txn,
                "attempt": attempt,
                "cause": cause,
            }
        else:  # arrive, prepared, commit
            yield {"t": time, "kind": kind, "txn": args[0]}


class EventTracer(ProbeSink):
    """Bounded ring buffer of probe records.

    The ring is flat: one record takes three consecutive slots —
    time, kind, args — appended one at a time, so keeping it costs 24
    bytes of ring and no object of its own. (A ``(time, kind, args)``
    tuple per record would cost 72 bytes and one more object for the
    garbage collector to track and, once the ring has aged into the
    oldest generation, to traverse at every full collection.) The ring's
    bound is a multiple of three, so eviction drops whole records. The
    args tuple is the one the probe carried; the time float is shared
    by every record of one instant.
    """

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._ring: deque = deque(maxlen=3 * capacity)
        self._append = self._ring.append
        self.total = 0  # records ever seen (dropped = total - len)
        self._entity_names: list[str] = []
        self._site_names: list[str] = []

    def bind(self, sim) -> None:
        self._entity_names = sim._entity_names
        self._site_names = sim._site_names

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        self.total += 1
        append = self._append
        append(time)
        append(kind)
        append(args)

    def finalize(self, sim, result) -> None:
        pass

    # ------------------------------------------------------------------
    # access and export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring) // 3

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return self.total - len(self)

    def _records(self):
        """The retained ``(time, kind, args)`` records, oldest first."""
        it = iter(self._ring)
        return zip(it, it, it)

    def records(self) -> list[dict]:
        """The retained records as formatted dicts, oldest first."""
        return list(
            iter_formatted(
                self._records(), self._entity_names, self._site_names
            )
        )

    def export_jsonl(self, path: str) -> int:
        """Write one JSON record per line; returns the record count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for record in iter_formatted(
                self._records(), self._entity_names, self._site_names
            ):
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")
                n += 1
        return n

    def export_chrome(self, path: str) -> int:
        """Write a Chrome ``trace_event`` JSON document.

        Returns the number of trace events written.
        """
        events = self.chrome_events()
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "recorded": len(self),
                "dropped": self.dropped,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(events)

    def chrome_events(self) -> list[dict]:
        """The retained records as Chrome ``trace_event`` dicts.

        Layout: pid 0 is the runtime/transaction track group (tid =
        transaction id); pid ``1 + sid`` is one group per site, whose
        tids are again transaction ids, carrying that site's lock
        wait/hold spans.
        """
        scale = 1000.0  # 1 simulated unit -> 1000 us (renders as 1 ms)
        site_names = self._site_names
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "runtime"},
            }
        ]
        for sid, name in enumerate(site_names):
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": 1 + sid,
                "tid": 0,
                "args": {"name": f"site {name}"},
            })
        site_pid = {name: 1 + sid for sid, name in enumerate(site_names)}
        open_spans: dict[tuple, float] = {}
        last_time = 0.0

        def span(key, name, t0, t1, pid, tid):
            events.append({
                "name": name,
                "cat": key,
                "ph": "X",
                "ts": t0 * scale,
                "dur": (t1 - t0) * scale,
                "pid": pid,
                "tid": tid,
            })

        def instant(name, t, pid, tid, args=None):
            ev = {
                "name": name,
                "cat": "mark",
                "ph": "i",
                "s": "t",
                "ts": t * scale,
                "pid": pid,
                "tid": tid,
            }
            if args:
                ev["args"] = args
            events.append(ev)

        for rec in iter_formatted(
            self._records(), self._entity_names, site_names
        ):
            t = rec["t"]
            last_time = t if t > last_time else last_time
            kind = rec["kind"]
            if kind in ("wait", "hold"):
                open_spans[(kind, rec["site"], rec["entity"], rec["txn"])] = t
            elif kind in ("unwait", "unhold"):
                opener = "wait" if kind == "unwait" else "hold"
                key = (opener, rec["site"], rec["entity"], rec["txn"])
                t0 = open_spans.pop(key, None)
                if t0 is not None:
                    span(
                        "lock",
                        f"{opener} {rec['entity']}",
                        t0,
                        t,
                        site_pid[rec["site"]],
                        rec["txn"],
                    )
            elif kind == "counter":
                events.append({
                    "name": rec["name"],
                    "cat": "counter",
                    "ph": "C",
                    "ts": t * scale,
                    "pid": 0,
                    "args": {rec["name"]: rec["value"]},
                })
            elif kind == "abort":
                instant(
                    f"abort ({rec['cause']})",
                    t,
                    0,
                    rec["txn"],
                    {"attempt": rec["attempt"]},
                )
            elif kind in ("arrive", "prepared", "commit"):
                instant(kind, t, 0, rec["txn"])
            elif kind == "event":
                name = rec["event"]
                if name in (
                    "begin", "issue", "op_done", "replica_req", "arrive",
                ):
                    # Bulk execution events (the lock spans and the
                    # lifecycle instants already cover them).
                    continue
                args = rec["args"]
                tid = args[0] if args and isinstance(args[0], int) else 0
                instant(name, t, 0, tid)
        # Close any spans still open at the end of the ring.
        for (opener, site, entity, txn), t0 in open_spans.items():
            span(
                "lock",
                f"{opener} {entity}",
                t0,
                max(last_time, t0),
                site_pid[site],
                txn,
            )
        return events


# ----------------------------------------------------------------------
# trace-file inspection (the ``repro trace`` subcommand)
# ----------------------------------------------------------------------


def load_trace(path: str) -> tuple[str, list[dict]]:
    """Load a trace file; returns ``(format, items)``.

    ``format`` is ``"chrome"`` (items are trace events) or ``"jsonl"``
    (items are formatted probe records).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # multiple lines: JSONL
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "chrome", list(doc["traceEvents"])
    records = [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]
    return "jsonl", records


def _span(values) -> tuple[float, float]:
    lo = hi = None
    for v in values:
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    return (lo or 0.0, hi or 0.0)


def summarize_trace(path: str, top_k: int = 5) -> str:
    """A human-readable summary of a trace file.

    JSONL traces additionally get an abort-cause breakdown and a
    top-``top_k`` blocking (entity, site) table — enough to diagnose a
    saved trace without the full ``repro analyze`` replay.
    """
    fmt, items = load_trace(path)
    lines = [f"{path}: {fmt} trace, {len(items)} records"]
    if not items:
        return "\n".join(lines)
    if fmt == "chrome":
        lo, hi = _span(
            ev["ts"] for ev in items if "ts" in ev and ev.get("ph") != "M"
        )
        lines.append(
            f"  time span: {lo / 1000.0:g} .. {hi / 1000.0:g} (sim units)"
        )
        by_phase = Counter(ev.get("ph", "?") for ev in items)
        lines.append(
            "  phases: "
            + ", ".join(f"{ph}={n}" for ph, n in sorted(by_phase.items()))
        )
        names = Counter(
            ev["name"]
            for ev in items
            if ev.get("ph") in ("X", "i", "C")
        )
        top = ", ".join(f"{name} x{n}" for name, n in names.most_common(8))
        lines.append(f"  top events: {top}")
    else:
        lo, hi = _span(rec["t"] for rec in items)
        lines.append(f"  time span: {lo:g} .. {hi:g} (sim units)")
        by_kind = Counter(rec["kind"] for rec in items)
        lines.append(
            "  kinds: "
            + ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        )
        causes = Counter(
            rec["cause"] for rec in items if rec["kind"] == "abort"
        )
        if causes:
            lines.append(
                "  abort causes: "
                + ", ".join(
                    f"{c}={n}" for c, n in causes.most_common()
                )
            )
        waiters = Counter(
            rec["txn"] for rec in items if rec["kind"] == "wait"
        )
        if waiters:
            top = ", ".join(
                f"T{txn} x{n}" for txn, n in waiters.most_common(5)
            )
            lines.append(f"  most-blocked transactions: {top}")
        blocking = _blocking_cells(items, hi)
        if blocking:
            lines.append(
                f"  top blocking cells (entity@site, of "
                f"{len(blocking)}):"
            )
            for (entity, site), (blocked, waits) in sorted(
                blocking.items(), key=lambda kv: (-kv[1][0], kv[0])
            )[:top_k]:
                lines.append(
                    f"    {entity}@{site:<12} blocked {blocked:>10.2f}"
                    f"  waits {waits}"
                )
    return "\n".join(lines)


def _blocking_cells(items, end: float) -> dict:
    """Blocked time and wait counts per (entity, site) of a JSONL
    trace; waits still open when the ring ends are charged to its last
    timestamp."""
    open_waits: dict[tuple, float] = {}
    cells: dict[tuple, list] = {}
    for rec in items:
        kind = rec["kind"]
        if kind == "wait":
            key = (rec["site"], rec["entity"], rec["txn"])
            open_waits[key] = rec["t"]
            cell = cells.setdefault((rec["entity"], rec["site"]), [0.0, 0])
            cell[1] += 1
        elif kind == "unwait":
            key = (rec["site"], rec["entity"], rec["txn"])
            t0 = open_waits.pop(key, None)
            if t0 is not None:
                cell = cells.setdefault(
                    (rec["entity"], rec["site"]), [0.0, 0]
                )
                cell[0] += rec["t"] - t0
    for (site, entity, _txn), t0 in open_waits.items():
        cell = cells.setdefault((entity, site), [0.0, 0])
        cell[0] += max(end - t0, 0.0)
    return {key: tuple(value) for key, value in cells.items()}
