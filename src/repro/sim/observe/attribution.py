"""Critical-path latency attribution over the probe stream.

:class:`LatencyAttribution` consumes the :class:`~repro.sim.observe.
probes.ObserverHub` probe stream (online, as a
:class:`~repro.sim.observe.probes.ProbeSink` reading the hub's probe
log a chunk at a time, or offline over a saved JSONL trace via
:func:`replay_jsonl`; both run the one loop of
:meth:`LatencyAttribution.intake`) and decomposes every transaction's
measured latency into conserved segments:

=========== =========================================================
segment     time a transaction spent ...
=========== =========================================================
admission   aborted and waiting out the restart backoff before its
            next attempt (plus any other pre-issue queueing)
lock_wait   blocked at a lock cell whose holders were still executing
coordinator blocked behind a PREPARED (or committed-with-release-in-
            flight) holder, or inside a commit round that later
            aborted — stalls a commit coordinator is responsible for
fanout      every issued operation in flight on the network (replica
            fan-out and cross-site issue hops) with none in service
service     executing operations (the closure term, see below)
commit      the final, successful commit round, net of log forces
log_force   inside the commit round with a forced log write in flight
            at the transaction's sites (durability model only)
=========== =========================================================

**Conservation.** For every committed transaction the engine observes
the exact same boundary instants the runtime records (probe times are
dispatch times), so ``exec_latency = exec_done - start`` and
``commit_latency = commit - exec_done`` reproduce the result's own
latency split bit for bit. The ``service`` segment is then defined as
the *closure term* ``exec_latency - admission - lock_wait -
coordinator - fanout`` (left-associated, exactly that expression) and
``commit`` as ``commit_latency - log_force`` (the measured log-force
time is carved out of the commit window it lives inside), which makes
the decomposition conserve with **zero tolerance** by construction:
IEEE float addition does not reassociate, so a naively reordered sum
could drift by an ulp, but the canonical identity

    ``service == exec_latency - admission - lock_wait - coordinator
    - fanout``  and  ``commit == commit_latency - log_force``

holds exactly. The independently *measured* service time is kept as a
drift diagnostic (``conservation.max_service_drift``); a negative
closure term would mean the engine double-charged a wait and fails
:meth:`LatencyAttribution.check`.

**Attribution rules.** A transaction blocked at several cells at once
charges the whole interval to its *primary* blocker — the
earliest-opened still-active wait — keeping the decomposition exact
(no fractional splitting). Blame-graph edges (waiter -> holder,
annotated with the contended cell) charge the full blocked interval
to every current holder of the primary cell, so a shared lock with
``k`` holders produces ``k`` edges covering the same wall interval;
per-cell profile time is charged once. Failed commit rounds fold into
``coordinator`` (the decomposition's segments must live inside the
final exec/commit split, and a round that aborted is coordinator
stall, not useful commit time).

**Abort causes.** Each ``abort`` probe carries the cause the runtime
passed to its abort entry point; the engine counts it as given.

**Sampling.** Under 1-in-N transaction sampling (``ObserveConfig.
sample_every``) the hub withholds the per-transaction probes of
unsampled transactions, but always delivers ``abort`` probes; abort
*counts* per cause are then exact while blocked-time, blame and
wasted-time figures are estimates over the sampled population — the
summary is marked ``sampled: true`` accordingly.
"""

from __future__ import annotations

from repro.sim.observe.probes import (
    CELL_KINDS,
    EVENT_TXN_ARG,
    PROBE_KINDS,
    ProbeSink,
)

__all__ = [
    "LatencyAttribution",
    "LatencyAttributor",
    "SEGMENTS",
    "analyze_trace",
    "render_report",
    "replay_jsonl",
]

#: Segment names, in canonical (conservation) order.
SEGMENTS = (
    "admission", "lock_wait", "coordinator", "fanout", "service",
    "commit", "log_force",
)

(
    _ADMISSION, _LOCK, _COORD, _FANOUT, _SERVICE, _COMMIT, _LOGFORCE,
) = range(7)

#: the probe kinds the engine reads: every kind but ``counter``
KINDS = frozenset(PROBE_KINDS) - {"counter"}

#: a cell's waiter queue at least this deep counts as a convoy
CONVOY_THRESHOLD = 3
#: how many cells (by blocked time) and blame edges a summary lists
TOP_CELLS = 16
TOP_EDGES = 32


class _TxnState:
    """Single-timeline attribution state of one tracked transaction."""

    __slots__ = (
        "txn", "start", "exec_done", "commit", "attempt",
        "attempt_start", "last", "aborted", "prepared", "in_service",
        "in_net", "in_flush", "wait_cells", "seg", "done",
        "measured_service",
    )

    def __init__(self, txn: int, now: float):
        self.txn = txn
        self.start = now
        self.exec_done = -1.0
        self.commit = -1.0
        self.attempt = 0
        self.attempt_start = now
        self.last = now
        self.aborted = False
        self.prepared = False
        self.in_service = 0
        self.in_net = 0
        self.in_flush = 0
        self.wait_cells: dict = {}  # cell -> wait-open time (ordered)
        self.seg = [0.0] * 7
        self.done = False
        self.measured_service = 0.0


class _CellStats:
    """Contention profile of one (site, entity) lock cell."""

    __slots__ = (
        "blocked", "waits", "depth", "depth_since", "peak_depth",
        "convoy",
    )

    def __init__(self):
        self.blocked = 0.0  # primary-blocker time charged to the cell
        self.waits = 0  # wait probes (queueing episodes)
        self.depth = 0  # current waiter-queue depth
        self.depth_since = 0.0
        self.peak_depth = 0
        self.convoy = 0.0  # time spent at convoy depth

    def set_depth(self, depth: int, now: float):
        if self.depth >= CONVOY_THRESHOLD:
            self.convoy += now - self.depth_since
        self.depth = depth
        self.depth_since = now
        if depth > self.peak_depth:
            self.peak_depth = depth


class LatencyAttribution:
    """The attribution engine: feed probes, then :meth:`summary`.

    Cells are keyed by whatever ``(site, entity)`` pair the probes
    carry — interned ids online, names when replaying a formatted
    JSONL trace — and resolved to names only when the summary is
    built.
    """

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        self._states: dict[int, _TxnState] = {}
        self._cells: dict = {}  # cell -> _CellStats
        self._holders: dict = {}  # cell -> set of holder txns
        # txn -> {cell: None}.  Ordered like _waiters: cell keys are
        # interned int pairs online but name pairs offline, and the
        # prepared branch settles waiters per held cell, so a set here
        # would make the settlement (and hence float-summation) order
        # hash-dependent and break online == offline bit-equality.
        self._held_by: dict = {}
        self._waiters: dict = {}  # cell -> {waiter txn: None} (ordered)
        self._prepared: set = set()  # PREPARED / release-in-flight
        self._edges: dict = {}  # (waiter, holder, cell) -> blocked time
        self._abort_cause_counts: dict = {}
        self._abort_cause_wasted: dict = {}
        self._wasted = 0.0
        self._useful = 0.0
        self._committed = 0
        self._aborts_seen = 0
        self._end = 0.0
        #: per-committed-transaction segments (canonical order) plus
        #: the boundary instants, for conservation checks and tests.
        self.transactions: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # the single-timeline state machine
    # ------------------------------------------------------------------

    def _classify(self, st: _TxnState):
        """(segment index, primary cell or None) for the next interval."""
        if st.aborted:
            return _ADMISSION, None
        if st.wait_cells:
            cell = next(iter(st.wait_cells))
            holders = self._holders.get(cell)
            if holders and not self._prepared.isdisjoint(holders):
                return _COORD, cell
            return _LOCK, cell
        if st.prepared:
            if st.in_flush > 0:
                return _LOGFORCE, None
            return _COMMIT, None
        if st.in_service == 0 and st.in_net > 0:
            return _FANOUT, None
        return _SERVICE, None

    def _advance(self, st: _TxnState, now: float) -> None:
        dt = now - st.last
        if dt > 0.0 and not st.done:
            bucket, cell = self._classify(st)
            st.seg[bucket] += dt
            if bucket == _SERVICE:
                st.measured_service += dt
            if cell is not None:
                stats = self._cells.get(cell)
                if stats is None:
                    stats = self._cells[cell] = _CellStats()
                stats.blocked += dt
                edges = self._edges
                for holder in self._holders.get(cell, ()):
                    key = (st.txn, holder, cell)
                    edges[key] = edges.get(key, 0.0) + dt
        st.last = now

    def _advance_waiters(self, cell, now: float) -> None:
        """Settle clocks of a cell's waiters before its state changes."""
        waiters = self._waiters.get(cell)
        if waiters:
            states = self._states
            for txn in waiters:
                st = states.get(txn)
                if st is not None:
                    self._advance(st, now)

    def _cell_stats(self, cell) -> _CellStats:
        stats = self._cells.get(cell)
        if stats is None:
            stats = self._cells[cell] = _CellStats()
        return stats

    # ------------------------------------------------------------------
    # probe intake
    # ------------------------------------------------------------------

    def feed(self, kind: str, now: float, args: tuple) -> None:
        """Consume one probe (raw or replayed); order matters."""
        self.intake((now, kind, args))

    def intake(self, log) -> None:
        """Consume a flat run of probe records, three slots each —
        time, kind, args — in stream order, skipping the kinds the
        engine does not read (:data:`KINDS`)."""
        states = self._states
        advance = self._advance
        reads = KINDS
        end = self._end
        it = iter(log)
        for now, kind, args in zip(it, it, it):
            if kind not in reads:
                continue
            if now > end:
                end = now
            if kind == "event" or kind == "sched":
                ev = args[0]
                if ev == "net_deliver":
                    # A chaos-wrapped logical send: the wrapper's
                    # payload slot carries the inner message, so
                    # recursing at send time opens the same in-network
                    # interval a direct send would. The matching inner
                    # *event* probe fires at real delivery (the channel
                    # re-dispatches through the registry) and closes
                    # it; retransmitted and duplicated copies travel as
                    # ``net_redeliver`` and stay invisible — a lossy
                    # link simply stretches the open interval, folding
                    # retransmission waits into the fanout and
                    # coordinator segments.
                    if kind == "sched":
                        self.feed("sched", now, tuple(args[4]))
                    continue
                idx = EVENT_TXN_ARG.get(ev)
                if idx is None:
                    continue
                st = states.get(args[idx])
                if kind == "event":
                    if ev == "begin":
                        if st is None:
                            states[args[1]] = _TxnState(args[1], now)
                    elif ev == "op_done":
                        if (
                            st is not None and not st.done
                            and st.attempt == args[3] and st.in_service > 0
                        ):
                            advance(st, now)
                            st.in_service -= 1
                    elif ev == "issue" or ev == "replica_req":
                        attempt = args[3] if ev == "issue" else args[4]
                        if (
                            st is not None and not st.done
                            and st.attempt == attempt and st.in_net > 0
                        ):
                            advance(st, now)
                            st.in_net -= 1
                    elif ev == "dur_flush":
                        # A forced write completed (or was cancelled by
                        # a crash — the heap event fires either way,
                        # keeping the sched/event pair balanced).
                        if (
                            st is not None and not st.done
                            and st.in_flush > 0
                        ):
                            advance(st, now)
                            st.in_flush -= 1
                    elif ev == "restart":
                        if (
                            st is not None and st.aborted
                            and st.attempt == args[2]
                        ):
                            advance(st, now)
                            st.aborted = False
                            st.attempt_start = now
                    # timeout / cm_* carry no segment boundary of their
                    # own
                elif st is not None and not st.done:
                    # sched: a message/service interval opens now
                    if ev == "op_done":
                        if st.attempt == args[3]:
                            advance(st, now)
                            st.in_service += 1
                    elif ev == "issue" or ev == "replica_req":
                        attempt = args[3] if ev == "issue" else args[4]
                        if st.attempt == attempt:
                            advance(st, now)
                            st.in_net += 1
                    elif ev == "dur_flush":
                        # A forced log write opens at one of the txn's
                        # sites: inside the prepared window this
                        # interval is log-force, not commit, time.
                        advance(st, now)
                        st.in_flush += 1
            elif kind in CELL_KINDS:
                cell = (args[0], args[1])
                txn = args[2]
                if kind == "wait":
                    st = states.get(txn)
                    if st is not None and not st.done:
                        advance(st, now)
                        st.wait_cells[cell] = now
                        waiters = self._waiters.setdefault(cell, {})
                        waiters[txn] = None
                        stats = self._cell_stats(cell)
                        stats.waits += 1
                        stats.set_depth(len(waiters), now)
                elif kind == "unwait":
                    st = states.get(txn)
                    if st is not None and cell in st.wait_cells:
                        advance(st, now)
                        del st.wait_cells[cell]
                        waiters = self._waiters.get(cell)
                        if waiters is not None and txn in waiters:
                            del waiters[txn]
                            self._cell_stats(cell).set_depth(
                                len(waiters), now
                            )
                elif kind == "hold":
                    self._advance_waiters(cell, now)
                    self._holders.setdefault(cell, set()).add(txn)
                    self._held_by.setdefault(txn, {})[cell] = None
                else:  # unhold
                    self._advance_waiters(cell, now)
                    holders = self._holders.get(cell)
                    if holders is not None:
                        holders.discard(txn)
                    cells = self._held_by.get(txn)
                    if cells is not None:
                        cells.pop(cell, None)
                        if not cells and txn in self._prepared:
                            # Release fan-out drained: the holder stops
                            # counting as a blocking coordinator.
                            self._prepared.discard(txn)
            elif kind == "arrive":
                txn = args[0]
                if txn not in states:
                    states[txn] = _TxnState(txn, now)
            elif kind == "prepared":
                txn = args[0]
                st = states.get(txn)
                if st is not None and not st.done:
                    advance(st, now)
                    st.prepared = True
                    st.exec_done = now
                for cell in self._held_by.get(txn, ()):
                    self._advance_waiters(cell, now)
                self._prepared.add(txn)
            elif kind == "commit":
                st = states.get(args[0])
                if st is not None and not st.done:
                    self._finish(st, now)
            else:  # abort
                self._on_abort(*args, now)
        self._end = end

    def _on_abort(
        self, txn: int, attempt: int, cause: str, now: float
    ) -> None:
        self._aborts_seen += 1
        counts = self._abort_cause_counts
        counts[cause] = counts.get(cause, 0) + 1
        st = self._states.get(txn)
        if st is None or st.done:
            return  # unsampled transaction: count the cause only
        self._advance(st, now)
        wasted = now - st.attempt_start
        if wasted > 0:
            self._wasted += wasted
            bucket = self._abort_cause_wasted
            bucket[cause] = bucket.get(cause, 0.0) + wasted
        # A failed commit round's stall is coordinator time: the final
        # split only has room for the *successful* round under commit
        # (and its log forces were wasted the same way).
        if st.seg[_COMMIT]:
            st.seg[_COORD] += st.seg[_COMMIT]
            st.seg[_COMMIT] = 0.0
        if st.seg[_LOGFORCE]:
            st.seg[_COORD] += st.seg[_LOGFORCE]
            st.seg[_LOGFORCE] = 0.0
        for cell in st.wait_cells:
            waiters = self._waiters.get(cell)
            if waiters is not None and txn in waiters:
                del waiters[txn]
                self._cell_stats(cell).set_depth(len(waiters), now)
        st.wait_cells.clear()
        st.in_service = 0
        st.in_net = 0
        st.in_flush = 0
        st.prepared = False
        st.exec_done = -1.0
        st.aborted = True
        st.attempt = attempt + 1

    def _finish(self, st: _TxnState, now: float) -> None:
        self._advance(st, now)
        st.commit = now
        if st.exec_done < 0:
            st.exec_done = now  # instant commit: no prepared window
        st.done = True
        seg = st.seg
        exec_lat = st.exec_done - st.start
        commit_lat = st.commit - st.exec_done
        # The conservation closure: see the module docstring.
        seg[_SERVICE] = (
            exec_lat - seg[_ADMISSION] - seg[_LOCK] - seg[_COORD]
            - seg[_FANOUT]
        )
        seg[_COMMIT] = commit_lat - seg[_LOGFORCE]
        self._committed += 1
        self._useful += st.commit - st.start
        self.transactions[st.txn] = {
            "start": st.start,
            "exec_done": st.exec_done,
            "commit": st.commit,
            "segments": dict(zip(SEGMENTS, seg)),
            "measured_service": st.measured_service,
        }

    # ------------------------------------------------------------------
    # verification and summary
    # ------------------------------------------------------------------

    def check(self, tolerance: float = 1e-9) -> list[str]:
        """Conservation violations over the committed transactions.

        The canonical identity is exact by construction; what this
        actually verifies is that the recorded segments are internally
        consistent and that no segment (in particular the service
        closure term) went negative — the symptom of a double-charged
        interval or a truncated probe stream.
        """
        errors = []
        for txn, entry in self.transactions.items():
            seg = entry["segments"]
            exec_lat = entry["exec_done"] - entry["start"]
            commit_lat = entry["commit"] - entry["exec_done"]
            closure = (
                exec_lat - seg["admission"] - seg["lock_wait"]
                - seg["coordinator"] - seg["fanout"]
            )
            if seg["service"] != closure:
                errors.append(
                    f"T{txn}: service {seg['service']!r} != closure "
                    f"{closure!r}"
                )
            if seg["commit"] != commit_lat - seg["log_force"]:
                errors.append(
                    f"T{txn}: commit {seg['commit']!r} != "
                    f"{commit_lat!r} - log_force "
                    f"{seg['log_force']!r}"
                )
            for name, value in seg.items():
                if value < -tolerance:
                    errors.append(
                        f"T{txn}: negative {name} segment {value!r}"
                    )
        return errors

    def blame_edge_list(self, entity_name=str, site_name=str) -> list:
        """Blame edges, heaviest first, names resolved."""
        edges = sorted(
            self._edges.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            {
                "waiter": waiter,
                "holder": holder,
                "site": site_name(cell[0]),
                "entity": entity_name(cell[1]),
                "time": time,
            }
            for (waiter, holder, cell), time in edges
        ]

    def summary(self, entity_name=str, site_name=str) -> dict:
        """The attribution block: a plain-JSON aggregate of the run.

        ``entity_name`` / ``site_name`` resolve cell keys (interned
        ids online, already-resolved names offline).
        """
        # Close the convoy integrals at the last observed instant.
        for stats in self._cells.values():
            stats.set_depth(stats.depth, self._end)
        totals = dict.fromkeys(SEGMENTS, 0.0)
        max_drift = 0.0
        min_service = 0.0
        for entry in self.transactions.values():
            seg = entry["segments"]
            for name in SEGMENTS:
                totals[name] += seg[name]
            drift = abs(seg["service"] - entry["measured_service"])
            if drift > max_drift:
                max_drift = drift
            if seg["service"] < min_service:
                min_service = seg["service"]

        total_blocked = sum(s.blocked for s in self._cells.values())
        cells = sorted(
            self._cells.items(), key=lambda kv: (-kv[1].blocked, kv[0])
        )
        hot_cells = [
            {
                "site": site_name(cell[0]),
                "entity": entity_name(cell[1]),
                "blocked_time": stats.blocked,
                "waits": stats.waits,
                "convoy_time": stats.convoy,
                "peak_queue": stats.peak_depth,
                "share": (
                    stats.blocked / total_blocked if total_blocked else 0.0
                ),
            }
            for cell, stats in cells[:TOP_CELLS]
        ]
        entity_blocked: dict[str, float] = {}
        for cell, stats in self._cells.items():
            name = entity_name(cell[1])
            entity_blocked[name] = (
                entity_blocked.get(name, 0.0) + stats.blocked
            )
        hotspot = None
        if total_blocked > 0.0:
            top = max(sorted(entity_blocked), key=entity_blocked.get)
            hotspot = {
                "entity": top,
                "blocked_time": entity_blocked[top],
                "share": entity_blocked[top] / total_blocked,
            }

        edges = self.blame_edge_list(entity_name, site_name)
        blame_total = sum(e["time"] for e in edges)
        wasted = self._wasted
        useful = self._useful
        denom = wasted + useful
        by_cause = {
            cause: {
                "count": count,
                "wasted_time": self._abort_cause_wasted.get(cause, 0.0),
            }
            for cause, count in sorted(self._abort_cause_counts.items())
        }
        return {
            "sampled": self.sample_every > 1,
            "sample_every": self.sample_every,
            "tracked": len(self._states),
            "committed": self._committed,
            "aborts_seen": self._aborts_seen,
            "segments": totals,
            "conservation": {
                "transactions": self._committed,
                "exact": not self.check(),
                "min_service": min_service,
                "max_service_drift": max_drift,
            },
            "hot_cells": hot_cells,
            "hotspot": hotspot,
            "convoy_threshold": CONVOY_THRESHOLD,
            "blame": {
                "edges": edges[:TOP_EDGES],
                "edge_count": len(edges),
                "total_time": blame_total,
            },
            "aborts": {
                "by_cause": by_cause,
                "wasted_time": wasted,
                "useful_time": useful,
                "wasted_fraction": wasted / denom if denom else 0.0,
            },
        }


class LatencyAttributor(ProbeSink):
    """The online adapter: a probe sink wrapping the engine.

    It reads the hub's probe log a chunk at a time (see
    :class:`~repro.sim.observe.probes.ProbeSink`): its ``on_chunk`` is
    the engine's :meth:`~LatencyAttribution.intake` itself, one loop
    over the chunk that skips ``counter`` probes, so a probe costs no
    call frame of its own. ``on_probe`` is the engine's
    :meth:`~LatencyAttribution.feed`, the same loop over one record. At
    finalize it attaches the summary as ``result.attribution`` (a
    plain dict, so it survives ``to_dict``/``from_json`` and pickling
    to sweep workers unchanged).
    """

    probe_kinds = KINDS

    def __init__(self, sample_every: int = 1):
        self.engine = LatencyAttribution(sample_every=sample_every)
        self.on_chunk = self.engine.intake
        self.on_probe = self.engine.feed
        self._entity_names: list[str] = []
        self._site_names: list[str] = []

    def bind(self, sim) -> None:
        self._entity_names = sim._entity_names
        self._site_names = sim._site_names

    def finalize(self, sim, result) -> None:
        result.attribution = self.engine.summary(
            self._entity_names.__getitem__,
            self._site_names.__getitem__,
        )

    def blame_edge_list(self) -> list:
        """The engine's blame edges with interned ids resolved."""
        return self.engine.blame_edge_list(
            self._entity_names.__getitem__,
            self._site_names.__getitem__,
        )


# ----------------------------------------------------------------------
# offline replay (the ``repro analyze`` backend)
# ----------------------------------------------------------------------


def replay_jsonl(records) -> LatencyAttribution:
    """Re-run the engine over formatted JSONL trace records.

    Accepts the dicts :func:`repro.sim.observe.trace.iter_formatted`
    emits (and ``load_trace`` returns); cells are keyed by their
    resolved names and each abort record brings its own cause, so
    offline results match the online sink wherever the ring kept the
    whole run. Counter records carry nothing the engine needs. The
    records are turned back into raw probes and run through the same
    :meth:`~LatencyAttribution.intake` loop the online sink uses.
    """
    log = []
    for rec in records:
        kind = rec.get("kind")
        if kind in ("event", "sched"):
            args = (rec["event"], *rec["args"])
        elif kind in CELL_KINDS:
            args = (rec["site"], rec["entity"], rec["txn"])
        elif kind == "abort":
            args = (rec["txn"], rec["attempt"], rec["cause"])
        elif kind in ("arrive", "prepared", "commit"):
            args = (rec["txn"],)
        else:
            continue
        log += (rec.get("t", 0.0), kind, args)
    engine = LatencyAttribution()
    engine.intake(log)
    return engine


def analyze_trace(path: str) -> tuple[dict, LatencyAttribution]:
    """Attribution summary of a saved JSONL trace file."""
    from repro.sim.observe.trace import load_trace

    fmt, records = load_trace(path)
    if fmt != "jsonl":
        raise ValueError(
            f"{path}: attribution needs the lossless JSONL trace "
            f"(--trace-jsonl), not a {fmt} export"
        )
    engine = replay_jsonl(records)
    return engine.summary(), engine


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def render_report(summary: dict, top: int = 8) -> str:
    """A human-readable attribution report."""
    lines = []
    committed = summary["committed"]
    tag = ""
    if summary.get("sampled"):
        tag = (
            f" [SAMPLED 1-in-{summary['sample_every']}: "
            f"estimates over the sampled population]"
        )
    lines.append(
        f"attribution: {committed} committed / "
        f"{summary['tracked']} tracked transactions{tag}"
    )
    totals = summary["segments"]
    grand = sum(totals.values())
    lines.append("  latency decomposition (totals over commits):")
    for name in SEGMENTS:
        value = totals[name]
        share = value / grand if grand else 0.0
        lines.append(f"    {name:<12} {value:>12.2f}  {share:>6.1%}")
    cons = summary["conservation"]
    lines.append(
        f"  conservation: exact={cons['exact']} over "
        f"{cons['transactions']} txns, service drift "
        f"{cons['max_service_drift']:.2e}"
    )
    if summary["hotspot"] is not None:
        hs = summary["hotspot"]
        lines.append(
            f"  hotspot entity: {hs['entity']} "
            f"({hs['share']:.1%} of all blocked time)"
        )
    if summary["hot_cells"]:
        lines.append(f"  top contended cells (of {len(summary['hot_cells'])}):")
        for cell in summary["hot_cells"][:top]:
            lines.append(
                f"    {cell['entity']}@{cell['site']:<10} "
                f"blocked {cell['blocked_time']:>10.2f} "
                f"({cell['share']:>5.1%})  waits {cell['waits']:<5} "
                f"convoy {cell['convoy_time']:>8.2f} "
                f"peakq {cell['peak_queue']}"
            )
    blame = summary["blame"]
    if blame["edges"]:
        lines.append(
            f"  blame graph: {blame['edge_count']} edges, "
            f"{blame['total_time']:.2f} blocked txn-time; heaviest:"
        )
        for edge in blame["edges"][:top]:
            lines.append(
                f"    T{edge['waiter']} -> T{edge['holder']} "
                f"on {edge['entity']}@{edge['site']} "
                f"({edge['time']:.2f})"
            )
    aborts = summary["aborts"]
    if aborts["by_cause"]:
        parts = ", ".join(
            f"{cause}={entry['count']} "
            f"(wasted {entry['wasted_time']:.1f})"
            for cause, entry in aborts["by_cause"].items()
        )
        lines.append(f"  abort cost: {parts}")
        lines.append(
            f"  wasted work: {aborts['wasted_time']:.2f} of "
            f"{aborts['wasted_time'] + aborts['useful_time']:.2f} "
            f"simulated txn-time "
            f"({aborts['wasted_fraction']:.1%} wasted)"
        )
    return "\n".join(lines)
