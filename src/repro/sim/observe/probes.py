"""Probe configuration and the attach-time wiring of the observer hub.

Disabled, the observability layer adds nothing per event and one
test of an empty slot per counter bump or lifecycle point. An
:class:`ObserverHub` reaches the simulator two ways when — and only
when — it attaches:

* the per-event seams, wrapped by instance-attribute shadowing so the
  disabled run loop tests nothing per event:

  - the run loop's dispatch: :class:`~repro.sim.events.
    HandlerRegistry` deliberately has no ``__slots__`` so an instance
    attribute can shadow ``dispatch``; the hub installs a wrapper that
    emits an ``event`` probe and then routes to the handler table;
  - scheduling: ``sim.schedule`` is invoked through attribute lookup
    by every send site (the issue/op fan-out, commit protocols,
    failure injection, the network channel), so the hub shadows it
    with a wrapper emitting a ``sched`` probe — the payload at *send*
    time. Paired with the later ``event`` dispatch probe this exposes
    every service interval and network hop;
  - lock-cell mutations: every :class:`~repro.sim.locks.
    SiteLockManager` has an optional observer slot, consulted after
    each grant / wait / release changed its table; the hub is the
    only observer, and fills the slot with one that emits ``wait``/
    ``unwait``/``hold``/``unhold`` probes;

* the simulator's probe slot, ``sim._probe``, which the hub sets to
  its emit function. :meth:`~repro.sim.runtime.Simulator.count` —
  the one way any layer bumps a followed counter (abort causes,
  crashes, waits, commit messages, prepared blocks, the network
  ledger, the durability faults) — calls it with a ``counter`` probe,
  and so do four lifecycle points: ``add_transaction`` (``arrive``),
  ``mark_prepared`` (``prepared``), ``finish_commit`` (``commit``) and
  the abort cascade's task (``abort``, with the cause the runtime's
  abort entry point was given, emitted before the victim's status
  flips).

Each sink declares the probe kinds it reads
(:attr:`ProbeSink.probe_kinds`). At attach the hub builds one sink
tuple per kind, in sink order, and every seam hands a probe to its
kind's tuple alone; a seam whose kind no sink reads loops over an
empty tuple.

When 1-in-N transaction sampling is requested (``sample_every > 1``),
the *sample-aware* sinks (the tracer and the attribution engine) sit
behind one filter sink that withholds the per-transaction probes of
unsampled transactions, while global probes — counters, detector and
crash events — and every ``abort`` / ``prepared`` / ``commit`` probe
still flow, keeping the per-cause abort counts and the
blocked-on-coordinator classification exact. The filter reads the
union of its sinks' kinds and hands a kept probe only to those that
read it. Whole-stream consumers (the metrics sampler, the flight
recorder, custom sinks) always see every probe of the kinds they
read.

With ``config.observe`` unset nothing attaches: the per-event seams
run unwrapped and the probe slot stays ``None``. The transparency
suite pins digest equality for the enabled mode too, since probes
only *observe* (they draw no randomness, schedule no events, and
mutate no simulation state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.metrics import SimulationResult

__all__ = ["ObserveConfig", "ObserverHub", "ProbeSink"]


@dataclass(frozen=True)
class ObserveConfig:
    """What to observe during a run.

    Attributes:
        trace: keep a structured event trace (bounded ring buffer).
        trace_capacity: ring-buffer size of the tracer; older records
            are dropped once the buffer is full.
        metrics_window: width (in simulated time) of the metrics
            sampler's aggregation windows; 0 disables the sampler.
        flight_recorder: directory for flight-recorder dumps; None
            disables the recorder.
        flight_events: how many trailing probe records a dump retains.
        flight_cascade_threshold: aborts within a single dispatched
            event that count as an abort cascade worth dumping.
        attribution: run the latency-attribution engine
            (:mod:`repro.sim.observe.attribution`); the run's result
            gains an ``attribution`` block.
        sample_every: 1-in-N transaction sampling for the sample-aware
            sinks (tracer, attribution) — 1 observes everything.
            Sampled attribution is marked as an estimate.
    """

    trace: bool = False
    trace_capacity: int = 65536
    metrics_window: float = 0.0
    flight_recorder: str | None = None
    flight_events: int = 256
    flight_cascade_threshold: int = 25
    attribution: bool = False
    sample_every: int = 1

    def __post_init__(self):
        for name in (
            "trace_capacity", "flight_events", "flight_cascade_threshold",
            "sample_every",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def enabled(self) -> bool:
        """Whether any consumer is requested at all."""
        return bool(
            self.trace
            or self.metrics_window > 0
            or self.flight_recorder
            or self.attribution
        )


class ProbeSink:
    """Interface of a probe consumer.

    Probes arrive as ``on_probe(kind, time, args)`` with ``kind`` one
    of:

    ========== ============================== ==========================
    kind       args                           meaning
    ========== ============================== ==========================
    event      the raw event payload tuple    an event left the queue
    sched      the raw event payload tuple    an event was scheduled
                                              (probe time = send time)
    wait       (sid, eid, txn)                txn queued at a lock cell
    unwait     (sid, eid, txn)                txn left the queue
    hold       (sid, eid, txn)                txn became a lock holder
    unhold     (sid, eid, txn)                txn released the cell
    counter    (name, new_value)              a counter bumped through
                                              ``Simulator.count``
    arrive     (txn,)                         open-system arrival
    prepared   (txn,)                         txn entered PREPARED
    commit     (txn,)                         txn committed
    abort      (txn, attempt, cause)          txn aborted this attempt;
                                              cause is a key of
                                              ``ABORT_CAUSE_COUNTERS``
    ========== ============================== ==========================

    Under a network model the ``event``/``sched`` payloads include the
    retransmission channel's wrapper events (``net_deliver`` and the
    other ``net_*`` kinds); the protocol payload a ``net_deliver``
    carries is dispatched — and probed — as its own event at delivery
    time.

    ``probe_kinds`` names the kinds ``on_probe`` reads, as a frozenset
    of the names above; the hub delivers only those, in stream order.
    ``None``, the default, receives every kind. A declaration is a
    promise: a sink that reads a kind it did not declare silently
    misses it. ``tests/test_observe.py::TestDeclaredKinds`` holds the
    stock sinks to theirs by feeding each the whole stream and only
    its declared kinds, and comparing the outputs.
    """

    probe_kinds: frozenset[str] | None = None

    def bind(self, sim) -> None:
        """Called once at attach time with the simulator."""

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        raise NotImplementedError

    def finalize(self, sim, result: SimulationResult) -> None:
        """Called once after the run loop drains."""


#: payload index of the transaction id per ``event``/``sched`` payload
#: kind. Kinds absent from the table (``detect``, ``arrive``,
#: ``site_crash``/``site_recover``, and the network's ``net_*`` kinds)
#: are global and never sampled out. The network kinds stay out because
#: a ``net_deliver``/``net_redeliver`` wrapper's second slot is a
#: channel sequence number, not a transaction id; the per-transaction
#: view of a wrapped message comes from the inner event probe the
#: channel emits when it dispatches the payload at delivery time.
EVENT_TXN_ARG = {
    "begin": 1, "issue": 1, "op_done": 1, "restart": 1, "timeout": 1,
    "replica_req": 1, "cm_prepare": 1, "cm_vote": 1, "cm_retry": 1,
    "cm_release": 1, "cm_learn": 1, "cm_state": 1,
    "cm_inquire": 1, "cm_status": 1, "cm_refuse": 1,
    "dur_flush": 1, "dur_requery": 1,
}

#: probe kinds delivered to sample-aware sinks for *every*
#: transaction even under 1-in-N sampling: counters are global, aborts
#: keep the per-cause abort counts exact, and prepared/commit keep the
#: blocked-on-coordinator holder classification exact.
_SAMPLE_ALWAYS = frozenset({"counter", "abort", "prepared", "commit"})

#: every probe kind, in the order of the :class:`ProbeSink` table
PROBE_KINDS = (
    "event", "sched", "wait", "unwait", "hold", "unhold", "counter",
    "arrive", "prepared", "commit", "abort",
)

#: the lock-cell probe kinds, all four carrying ``(sid, eid, txn)``
CELL_KINDS = frozenset({"wait", "unwait", "hold", "unhold"})


def _routes(sinks) -> dict[str, tuple]:
    """One tuple per probe kind: the sinks that read it, in order."""
    return {
        kind: tuple(
            sink for sink in sinks
            if sink.probe_kinds is None or kind in sink.probe_kinds
        )
        for kind in PROBE_KINDS
    }


class _SampleFilter(ProbeSink):
    """1-in-N transaction sampling in front of sample-aware sinks."""

    def __init__(self, sinks: list[ProbeSink], every: int):
        self.sinks = tuple(sinks)
        self.every = every
        kinds = [sink.probe_kinds for sink in self.sinks]
        self.probe_kinds = (
            None if None in kinds else frozenset().union(*kinds)
        )
        self._routes = _routes(self.sinks)

    def bind(self, sim) -> None:
        for sink in self.sinks:
            sink.bind(sim)

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        if kind in _SAMPLE_ALWAYS:
            keep = True
        elif kind == "event" or kind == "sched":
            idx = EVENT_TXN_ARG.get(args[0])
            keep = idx is None or args[idx] % self.every == 0
        elif kind == "arrive":
            keep = args[0] % self.every == 0
        else:  # cell probes: (sid, eid, txn)
            keep = args[2] % self.every == 0
        if keep:
            for sink in self._routes[kind]:
                sink.on_probe(kind, time, args)

    def finalize(self, sim, result) -> None:
        for sink in self.sinks:
            sink.finalize(sim, result)


class ObserverHub:
    """Builds the configured sinks and attaches them to a simulator.

    Construction wires nothing; :meth:`attach` installs every probe.
    Extra custom sinks may be passed alongside the configured ones::

        hub = ObserverHub(sim, ObserveConfig(trace=True), [my_sink])
        hub.attach()
        sim.observe = hub   # so run() finalizes it
    """

    def __init__(self, sim, config: ObserveConfig, extra_sinks=()):
        # Local imports: the consumers import io/dot machinery the hot
        # path never needs, and keeping them here keeps the probes
        # module dependency-light.
        from repro.sim.observe.attribution import LatencyAttributor
        from repro.sim.observe.flight import FlightRecorder
        from repro.sim.observe.sampler import MetricsSampler
        from repro.sim.observe.trace import EventTracer

        self.sim = sim
        self.config = config
        self.tracer: EventTracer | None = (
            EventTracer(config.trace_capacity) if config.trace else None
        )
        self.sampler: MetricsSampler | None = (
            MetricsSampler(config.metrics_window, sim.config.warmup_time)
            if config.metrics_window > 0
            else None
        )
        self.flight: FlightRecorder | None = (
            FlightRecorder(
                config.flight_recorder,
                last_n=config.flight_events,
                cascade_threshold=config.flight_cascade_threshold,
            )
            if config.flight_recorder
            else None
        )
        self.attribution: LatencyAttributor | None = (
            LatencyAttributor(sample_every=config.sample_every)
            if config.attribution
            else None
        )
        # 1-in-N sampling: the tracer and the attribution engine are
        # sample-aware and share one filter; whole-stream sinks always
        # see everything.
        aware = [s for s in (self.tracer, self.attribution) if s is not None]
        if aware and config.sample_every > 1:
            aware = [_SampleFilter(aware, config.sample_every)]
        self._sinks: list[ProbeSink] = [
            s for s in (self.sampler, self.flight) if s is not None
        ] + aware
        self._sinks.extend(extra_sinks)
        self._attached = False
        #: probe kind -> the sinks that read it, in ``_sinks`` order;
        #: built at attach
        self._routes: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _emit(self, kind: str, args: tuple) -> None:
        t = self.sim._now
        for sink in self._routes[kind]:
            sink.on_probe(kind, t, args)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Install every probe on the simulator (idempotent).

        Every route looks ``sink.on_probe`` up at each call, so a
        wrapper installed on a sink after attach still sees its
        probes.
        """
        if self._attached:
            return
        self._attached = True
        sim = self.sim
        for sink in self._sinks:
            sink.bind(sim)
        self._routes = _routes(self._sinks)

        # 1. Per-event probe through the registry's dispatch seam.
        registry = sim._registry
        handlers = registry._handlers  # shared dict; grows in place

        def dispatch(
            payload, _handlers=handlers, _sinks=self._routes["event"],
            _sim=sim,
        ):
            now = _sim._now
            for sink in _sinks:
                sink.on_probe("event", now, payload)
            _handlers[payload[0]](*payload[1:])

        registry.dispatch = dispatch

        # 1b. Scheduling probes: ``sim.schedule`` is invoked through
        # attribute lookup by every send site, so an instance-attribute
        # shadow exposes each payload at *send* time — the opening
        # boundary of every service interval and network hop.
        orig_schedule = sim.schedule

        def schedule(
            delay, payload, _orig=orig_schedule, _emit=self._emit
        ):
            _emit("sched", payload)
            _orig(delay, payload)

        sim.schedule = schedule

        # 2. Lock-cell probes: each site's table observer.
        for sid, site in enumerate(sim._site_list):
            site.observer = _CellProbes(self, sid)

        # 3. Counter and lifecycle probes: Simulator.count and the
        # arrive/prepared/commit/abort points call the probe slot.
        sim._probe = self._emit

    def finalize(self) -> None:
        """Flush every sink onto the result."""
        sim = self.sim
        for sink in self._sinks:
            sink.finalize(sim, sim.result)


class _CellProbes:
    """One site's lock-cell mutations, as probes."""

    __slots__ = ("_hub", "_sid")

    def __init__(self, hub: ObserverHub, sid: int):
        self._hub = hub
        self._sid = sid

    def wait(self, entity: int, txn: int) -> None:
        self._hub._emit("wait", (self._sid, entity, txn))

    def unwait(self, entity: int, txn: int) -> None:
        self._hub._emit("unwait", (self._sid, entity, txn))

    def hold(self, entity: int, txn: int) -> None:
        self._hub._emit("hold", (self._sid, entity, txn))

    def unhold(self, entity: int, txn: int) -> None:
        self._hub._emit("unhold", (self._sid, entity, txn))
