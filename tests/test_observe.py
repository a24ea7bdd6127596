"""Unit tests for repro.sim.observe: tracer, sampler, flight, CLI."""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim import (
    DurabilityConfig,
    ObserveConfig,
    ObserverHub,
    ProbeSink,
    SimulationConfig,
    Simulator,
)
from repro.sim.network import NetworkConfig
from repro.sim.observe.trace import load_trace, summarize_trace
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import seq


def contended_system(n_txns: int = 12) -> TransactionSystem:
    spec = WorkloadSpec(
        n_transactions=n_txns, n_entities=6, n_sites=3,
        entities_per_txn=(2, 4), hotspot_skew=0.8,
    )
    return random_system(random.Random(3), spec)


def traced_run(config_kwargs=None, policy="wound-wait", system=None):
    observe = ObserveConfig(**(config_kwargs or {"trace": True}))
    config = SimulationConfig(
        seed=5, network_delay=0.5, observe=observe
    )
    sim = Simulator(system or contended_system(), policy, config)
    sim.run()
    return sim


class TestObserveConfig:
    def test_default_is_disabled(self):
        assert not ObserveConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace": True},
            {"metrics_window": 5.0},
            {"flight_recorder": "somewhere"},
        ],
    )
    def test_any_consumer_enables(self, kwargs):
        assert ObserveConfig(**kwargs).enabled

    def test_sampler_rejects_nonpositive_window(self):
        from repro.sim.observe import MetricsSampler

        with pytest.raises(ValueError, match="window"):
            MetricsSampler(0.0)

    @pytest.mark.parametrize(
        "field",
        ["trace_capacity", "flight_events", "flight_cascade_threshold"],
    )
    def test_sizes_and_thresholds_must_be_positive(self, field):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=field):
                ObserveConfig(**{field: bad})
        assert getattr(ObserveConfig(**{field: 1}), field) == 1


class TestEventTracer:
    def test_ring_bound_and_drop_count(self):
        sim = traced_run({"trace": True, "trace_capacity": 16})
        tracer = sim.observe.tracer
        assert len(tracer) == 16
        assert tracer.dropped == tracer.total - 16 > 0

    def test_records_are_structured(self):
        tracer = traced_run().observe.tracer
        records = tracer.records()
        kinds = {r["kind"] for r in records}
        assert {"event", "wait", "hold", "commit", "abort"} <= kinds
        waits = [r for r in records if r["kind"] == "wait"]
        assert all(
            isinstance(r["site"], str) and isinstance(r["entity"], str)
            for r in waits
        )

    def test_wound_aborts_attributed(self):
        records = traced_run().observe.tracer.records()
        causes = [r["cause"] for r in records if r["kind"] == "abort"]
        assert causes and set(causes) == {"wound"}

    def test_jsonl_export_round_trips(self, tmp_path):
        sim = traced_run()
        path = tmp_path / "trace.jsonl"
        n = sim.observe.tracer.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == n == len(sim.observe.tracer)
        parsed = [json.loads(line) for line in lines]
        assert parsed == sim.observe.tracer.records()

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        sim = traced_run()
        path = tmp_path / "trace.json"
        n = sim.observe.tracer.export_chrome(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert isinstance(events, list) and len(events) == n
        for ev in events:
            assert {"name", "ph", "pid"} <= set(ev)
            if ev["ph"] != "C":
                assert "tid" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float))
        phases = {ev["ph"] for ev in events}
        assert {"M", "X", "i", "C"} <= phases
        # One process per site plus the runtime process.
        names = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert "runtime" in names
        assert sum(1 for n_ in names if n_.startswith("site ")) == len(
            sim._site_names
        )
        # Lock spans have non-negative durations.
        assert all(ev["dur"] >= 0 for ev in events if ev["ph"] == "X")

    def test_load_trace_detects_both_formats(self, tmp_path):
        sim = traced_run()
        chrome, jsonl = tmp_path / "t.json", tmp_path / "t.jsonl"
        sim.observe.tracer.export_chrome(str(chrome))
        sim.observe.tracer.export_jsonl(str(jsonl))
        assert load_trace(str(chrome))[0] == "chrome"
        assert load_trace(str(jsonl))[0] == "jsonl"
        assert "abort causes" in summarize_trace(str(jsonl))


class TestFlightRecorder:
    def test_deadlock_detection_dump(self, tmp_path):
        schema = DatabaseSchema.single_site(["x", "y"])
        system = TransactionSystem([
            seq("T1", ["Lx", "Ly", "Ux", "Uy"], schema),
            seq("T2", ["Ly", "Lx", "Uy", "Ux"], schema),
        ])
        config = SimulationConfig(
            seed=0, detection_interval=4.0,
            observe=ObserveConfig(flight_recorder=str(tmp_path)),
        )
        sim = Simulator(system, "detect", config)
        result = sim.run()
        assert result.detected >= 1
        dumps = sim.observe.flight.dumps
        assert any(d["reason"] == "deadlock-detected" for d in dumps)
        dump = next(
            d for d in dumps if d["reason"] == "deadlock-detected"
        )
        # The waits-for snapshot still holds the cycle: both edges.
        dot = open(dump["waits_for"]).read()
        assert dot.startswith("digraph")
        assert "n0 -> n1;" in dot and "n1 -> n0;" in dot
        records = [
            json.loads(line) for line in open(dump["events"])
        ]
        assert records, "dump retained no events"

    def test_cascade_threshold_dump(self, tmp_path):
        config_kwargs = {
            "flight_recorder": str(tmp_path),
            "flight_cascade_threshold": 2,
        }
        sim = traced_run(config_kwargs)
        reasons = {d["reason"] for d in sim.observe.flight.dumps}
        assert "abort-cascade" in reasons

    def test_site_crash_dump(self, tmp_path):
        config = SimulationConfig(
            seed=5, network_delay=0.5, failure_rate=0.02, repair_time=5.0,
            observe=ObserveConfig(flight_recorder=str(tmp_path)),
        )
        sim = Simulator(contended_system(), "wound-wait", config)
        result = sim.run()
        assert result.crashes >= 1
        dumps = [
            d for d in sim.observe.flight.dumps if d["reason"] == "site-crash"
        ]
        assert dumps
        for dump in dumps:
            # Taken on the crash event itself, before the crash's
            # aborts release anything.
            with open(dump["events"]) as fh:
                last = json.loads(fh.read().splitlines()[-1])
            assert last["kind"] == "event"
            assert last["event"] == "site_crash"
            assert last["t"] == dump["time"]
            with open(dump["waits_for"]) as fh:
                assert fh.read().startswith("digraph")

    def test_snapshots_are_the_lock_tables(self, tmp_path):
        """Every dump of the ``wound-wait`` golden case draws exactly
        the lock tables' waiter -> holder pairs at its moment, and no
        transaction waits for itself. A snapshot rebuilt from the
        instances' ``waiting`` cells drew such self-loops mid grant
        cascade, where ``waiting`` still lists a cell the transaction
        has just been granted."""
        sim = Simulator(*_stream_case("wound-wait", _full_observe(tmp_path)))
        flight = sim.observe.flight
        dump = flight.dump
        expected = []

        def dump_and_record(reason):
            pairs = set()
            for site in sim.lock_tables().values():
                for eid in range(len(sim._entity_names)):
                    for waiter in site.waiters(eid):
                        pairs.update(
                            (waiter, holder) for holder in site.holders(eid)
                        )
            entry = dump(reason)
            if entry is not None:
                expected.append(pairs)
            return entry

        flight.dump = dump_and_record
        sim.run()
        assert len(expected) == len(flight.dumps) > 0
        for pairs, entry in zip(expected, flight.dumps):
            with open(entry["waits_for"]) as fh:
                arcs = {
                    (int(waiter), int(holder)) for waiter, holder
                    in re.findall(r"n(\d+) -> n(\d+);", fh.read())
                }
            assert arcs == pairs, entry["waits_for"]
            assert all(waiter != holder for waiter, holder in arcs)

    def test_dump_cap(self, tmp_path):
        from repro.sim.observe import FlightRecorder

        recorder = FlightRecorder(str(tmp_path), max_dumps=0)
        recorder.bind(traced_run())  # any sim provides the names
        assert recorder.dump("manual") is None
        assert recorder.dumps == []


class TestCustomSink:
    def test_extra_sink_sees_the_run(self):
        from repro.sim.observe import ProbeSink

        class Counting(ProbeSink):
            def __init__(self):
                self.kinds = {}

            def on_probe(self, kind, time, args):
                self.kinds[kind] = self.kinds.get(kind, 0) + 1

        sink = Counting()
        config = SimulationConfig(seed=5, network_delay=0.5)
        sim = Simulator(contended_system(), "wound-wait", config)
        hub = ObserverHub(sim, ObserveConfig(), extra_sinks=[sink])
        hub.attach()
        sim.observe = hub
        result = sim.run()
        assert sink.kinds["commit"] == result.committed
        assert sink.kinds["abort"] == result.aborts
        assert sink.kinds["wait"] == result.waits


class TestAbortProbe:
    def test_abort_probes_carry_the_result_causes(self):
        """Each abort probe names its cause, and the per-cause probe
        counts partition ``aborts`` exactly as the result's counters
        do (``unavailable`` counted apart from the other crashes)."""
        from repro.sim.observe import ProbeSink

        class Causes(ProbeSink):
            def __init__(self):
                self.arities = set()
                self.counts = {}

            def on_probe(self, kind, time, args):
                if kind == "abort":
                    self.arities.add(len(args))
                    cause = args[-1]
                    self.counts[cause] = self.counts.get(cause, 0) + 1

        sink = Causes()
        spec = WorkloadSpec(
            n_entities=6, n_sites=3, entities_per_txn=(2, 4),
            hotspot_skew=0.8, replication_factor=3, read_fraction=0.3,
        )
        config = SimulationConfig(
            seed=5, network_delay=0.5, arrival_rate=0.5,
            max_transactions=60, workload=spec, replica_protocol="quorum",
            commit_protocol="two-phase", failure_rate=0.02,
            repair_time=5.0,
        )
        sim = Simulator(TransactionSystem([]), "wound-wait", config)
        hub = ObserverHub(sim, ObserveConfig(), extra_sinks=[sink])
        hub.attach()
        sim.observe = hub
        result = sim.run()
        assert sink.arities == {3}
        expected = {
            **result.aborts_by_cause,
            "unavailable": result.unavailable_aborts,
        }
        expected["crash"] -= result.unavailable_aborts
        assert sink.counts == {c: n for c, n in expected.items() if n}
        assert {"wound", "crash", "unavailable"} <= set(sink.counts)


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _full_observe(out_dir, **overrides) -> ObserveConfig:
    return ObserveConfig(**{
        "trace": True, "trace_capacity": 1 << 20, "metrics_window": 5.0,
        "flight_recorder": str(out_dir), "flight_cascade_threshold": 3,
        "attribution": True, **overrides,
    })


def _stream_case(case: str, observe):
    """(system, policy, config) of one probe-stream golden case."""
    if case == "detect":
        spec = WorkloadSpec(
            n_transactions=16, n_entities=5, n_sites=3,
            entities_per_txn=(2, 4), hotspot_skew=0.8,
        )
        config = SimulationConfig(
            seed=1, network_delay=0.5, detection_interval=4.0,
            commit_protocol="presumed-abort", observe=observe,
        )
        return random_system(random.Random(3), spec), "detect", config
    if case == "chaos":
        layers = {
            "commit_protocol": "paxos-commit",
            "replica_protocol": "rowa-available",
            "network": NetworkConfig(
                loss_rate=0.05, dup_rate=0.05, jitter=0.2,
                partition_schedule=((20.0, 15.0, ("s1",)),),
            ),
            "durability": DurabilityConfig(
                flush_time=0.3, tail_loss_rate=0.3, torn_write_rate=0.2,
            ),
        }
    else:
        layers = {
            "commit_protocol": "two-phase", "replica_protocol": "quorum",
        }
    spec = WorkloadSpec(
        n_entities=6, n_sites=3, entities_per_txn=(2, 4),
        hotspot_skew=0.8, read_fraction=0.3,
        replication_factor=2 if case == "chaos" else 3,
    )
    config = SimulationConfig(
        seed=5, network_delay=0.5, arrival_rate=0.5, max_transactions=40,
        workload=spec, failure_rate=0.02, repair_time=5.0,
        observe=observe, **layers,
    )
    return TransactionSystem([]), "wound-wait", config


class TestProbeStreamGolden:
    """The probe stream itself, pinned.

    Each case hashes what the stock sinks made of the stream: the
    tracer's records, every flight dump's ``.jsonl`` and ``.dot``, and
    the attribution and metrics blocks of the result. A probe that
    moves within the stream moves a digest even when every per-kind
    count stays the same — an abort probe emitted after the victim's
    status flip, for one, drops its edges from the ``.dot`` snapshots
    of abort-cascade dumps. The digests were generated while the
    counter and lifecycle probes still came from a result-class swap
    and method shadows, so they also pin that ``Simulator.count`` and
    the probe slot emit the same stream.
    """

    GOLDEN = {
        # wound-wait, two-phase, quorum at r=3 with reads, crashes
        "wound-wait": {
            "trace": "3e5c9d6ce94caa5da9f601ba658bb32a"
                     "413663c0a095f4a7f29c524c58949a8c",
            "flight": "9bf73ba0e0434c90d7e86ca698486f51"
                      "26ef2ce2400dbbb86889f62f58619192",
            "attribution": "6204e59de5ac68438d4f1aec5d540623"
                           "9a276dd25e59b24a223eee65955919e3",
            "timeseries": "b4a4be7baee15ff624ef6d705b86c203"
                          "d20c4de151df30a543155f91c0e1baba",
        },
        # paxos-commit over rowa-available: loss, duplication, jitter,
        # a scripted partition, a faulty WAL, crashes
        "chaos": {
            "trace": "e8f4b8bcf7905d21bb6757989ff7195e"
                     "9cfb29998f07e442613d5b9212b5e1fd",
            "flight": "0e2089388a9cc7dcc835c78a3a6ec177"
                      "5dafcc7852515fdb2fad92a5ccd87bf1",
            "attribution": "128db54f295127251044586efdbaa652"
                           "1481e5e681c47a9ea3b222df8d9c7ad5",
            "timeseries": "eeb670ebd7db0df2220d79ebccd2badc"
                          "0f19e3904aaea356e8d795f3d8af2374",
        },
        # detect on a closed presumed-abort batch
        "detect": {
            "trace": "9fae0d1f79dc908b03508d9b24b7561c"
                     "c23d5e9ac80ecc85a522e6cf79888b5e",
            "flight": "19c99b82c05ad0ff3fdace1fb71a989e"
                      "7d0a1ee85db2d833eb59815332e4b650",
            "attribution": "8a9ab6d08af021cebd115f3665f8b0df"
                           "7fe73648e40cf8e649f3ddbc341d0e63",
            "timeseries": "b6e60773ad62805408d495245f02fcd6"
                          "c75faa1c96caebf68abe0d863f1e6b54",
        },
        # the wound-wait case under 1-in-4 sampling
        "sampled": {
            "trace": "7b611a9062e9a18d09eba80474ee21d0"
                     "f4f8153af32ea156c87ffa969398be65",
            "flight": "9bf73ba0e0434c90d7e86ca698486f51"
                      "26ef2ce2400dbbb86889f62f58619192",
            "attribution": "c9fe365ce95ba5d30e7b9fe5f630776a"
                           "992140585dc83731bc3e41c6221bfe46",
            "timeseries": "b4a4be7baee15ff624ef6d705b86c203"
                          "d20c4de151df30a543155f91c0e1baba",
        },
    }

    #: the dump reasons each case must produce, so the flight digest
    #: covers every trigger
    REASONS = {
        "wound-wait": {"site-crash", "abort-cascade"},
        "chaos": {"site-crash", "abort-cascade"},
        "detect": {"deadlock-detected"},
        "sampled": {"site-crash", "abort-cascade"},
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_stream_matches_the_goldens(self, case, tmp_path):
        overrides = {"sample_every": 4} if case == "sampled" else {}
        sim = Simulator(*_stream_case(
            case, _full_observe(tmp_path, **overrides)
        ))
        result = sim.run()
        dumps = []
        for dump in sim.observe.flight.dumps:
            with open(dump["events"], "rb") as fh:
                events = fh.read()
            with open(dump["waits_for"], "rb") as fh:
                dot = fh.read()
            dumps.append(
                (dump["reason"], dump["time"], _sha(events), _sha(dot))
            )
        assert {d[0] for d in dumps} == self.REASONS[case]
        if case == "chaos":
            assert result.partitions == 1
            assert result.net_dropped and result.net_duplicates
            assert result.tail_losses and result.torn_writes
        assert {
            "trace": _sha(sim.observe.tracer.records()),
            "flight": _sha(dumps),
            "attribution": _sha(result.attribution),
            "timeseries": _sha(result.timeseries),
        } == self.GOLDEN[case]

    def test_nothing_is_patched_onto_the_simulator(self, tmp_path):
        """Observation and the network are called, not patched in: a
        fully observed chaos run leaves no method shadow on the
        simulator, and its result keeps its own class throughout."""
        from repro.sim import ProbeSink, SimulationResult

        class ResultTypes(ProbeSink):
            def __init__(self):
                self.types = set()

            def bind(self, sim):
                self.sim = sim

            def on_probe(self, kind, time, args):
                if kind in ("counter", "commit"):
                    self.types.add(type(self.sim.result))

        sink = ResultTypes()
        system, policy, config = _stream_case("chaos", None)
        sim = Simulator(system, policy, config)
        hub = ObserverHub(sim, _full_observe(tmp_path), [sink])
        hub.attach()
        sim.observe = hub
        sim.run()
        shadows = {
            "transmit", "suspect_down", "add_transaction",
            "mark_prepared", "finish_commit", "_abort_task",
        }
        assert not shadows & set(vars(sim))
        assert sink.types == {SimulationResult}


class _Recorder(ProbeSink):
    """Appends ``(name, kind, time, args)`` to a shared log per probe."""

    def __init__(self, log, name="recorder", probe_kinds=None):
        self.log = log
        self.name = name
        self.probe_kinds = probe_kinds

    def on_probe(self, kind, time, args):
        self.log.append((self.name, kind, time, args))


def _run_with_sinks(case, sinks):
    system, policy, config = _stream_case(case, None)
    sim = Simulator(system, policy, config)
    hub = ObserverHub(sim, ObserveConfig(), sinks)
    hub.attach()
    sim.observe = hub
    return sim, sim.run()


class TestDeclaredKinds:
    """A stock sink reads only the probe kinds it declares: fed the
    whole recorded stream, or only its declared kinds, it ends with
    the same output."""

    @pytest.mark.parametrize("case", sorted(TestProbeStreamGolden.GOLDEN))
    def test_stock_sinks_read_only_their_kinds(self, case):
        from repro.sim.observe import LatencyAttributor, MetricsSampler
        from repro.sim.observe.probes import _SampleFilter

        log = []
        sim, _ = _run_with_sinks(case, [_Recorder(log)])
        if case == "sampled":
            # The 1-in-4 view the hub's filter gives sample-aware sinks.
            stream, log = log, []
            front = _SampleFilter([_Recorder(log)], 4)
            for _, kind, t, args in stream:
                front.on_probe(kind, t, args)
        stream = [(kind, t, args) for _, kind, t, args in log]
        seen = {kind for kind, _, _ in stream}

        def fed(sink, kinds):
            for kind, t, args in stream:
                if kinds is None or kind in kinds:
                    sink.on_probe(kind, t, args)
            return sink

        def sampler():
            sink = MetricsSampler(5.0, sim.config.warmup_time)
            sink.bind(sim)
            return sink

        for make, output in (
            (sampler, lambda sink: sink.series()),
            (LatencyAttributor, lambda sink: sink.engine.summary()),
        ):
            declared = make().probe_kinds
            assert seen - declared  # the stream holds undeclared kinds
            everything = output(fed(make(), None))
            assert everything == output(fed(make(), declared))
            assert everything

    @pytest.mark.parametrize("case", sorted(TestProbeStreamGolden.GOLDEN))
    def test_chunk_loop_reads_only_the_declared_kinds(self, case):
        """The attribution engine's chunk loop, fed the whole stream,
        counters included, in one chunk or in chunks of seven probes,
        ends where the declared kinds fed one probe at a time do."""
        from repro.sim.observe import LatencyAttributor
        from repro.sim.observe.probes import _SampleFilter

        log = []
        _run_with_sinks(case, [_Recorder(log)])
        flat = [x for _, kind, t, args in log for x in (t, kind, args)]
        if case == "sampled":
            # The filter's chunk path keeps what its per-probe path
            # keeps, in the same order.
            kept, one_by_one = [], []
            front = _SampleFilter([_Chunks(kept)], 4)
            front.on_chunk(flat)
            front = _SampleFilter([_Recorder(one_by_one)], 4)
            for _, kind, t, args in log:
                front.on_probe(kind, t, args)
            assert kept == [
                x for _, kind, t, args in one_by_one for x in (t, kind, args)
            ]
            flat = kept
        assert "counter" in flat[1::3]

        declared = LatencyAttributor()
        it = iter(flat)
        for t, kind, args in zip(it, it, it):
            if kind in declared.probe_kinds:
                declared.on_probe(kind, t, args)
        expected = declared.engine.summary()
        assert expected["committed"]
        for size in (len(flat), 3 * 7):
            chunked = LatencyAttributor()
            for start in range(0, len(flat), size):
                chunked.on_chunk(flat[start:start + size])
            assert chunked.engine.summary() == expected


class _Chunks(ProbeSink):
    """A chunk reader that keeps every record it is handed, flat."""

    def __init__(self, log):
        self.log = log

    def on_chunk(self, chunk):
        self.log.extend(chunk)


class TestRouting:
    def test_sink_gets_only_its_kinds(self):
        """A sink that reads only commits and aborts gets exactly
        those, and observing the run leaves its digest unchanged."""
        from tests.test_observe_transparency import digest_fields

        plain = Simulator(*_stream_case("wound-wait", None)).run()
        log = []
        _, result = _run_with_sinks("wound-wait", [
            _Recorder(log, probe_kinds=frozenset({"commit", "abort"})),
        ])
        kinds = [kind for _, kind, _, _ in log]
        assert kinds.count("commit") == result.committed
        assert kinds.count("abort") == result.aborts > 0
        assert set(kinds) == {"commit", "abort"}
        assert digest_fields(result) == digest_fields(plain)

    def test_each_probe_reaches_its_sinks_in_attach_order(self):
        log = []
        sinks = [
            _Recorder(log, "a", frozenset({"commit", "wait", "counter"})),
            _Recorder(log, "all"),
            _Recorder(log, "b", frozenset({"wait", "abort", "sched"})),
            _Recorder(log, "c", frozenset({"event", "commit"})),
        ]
        _run_with_sinks("chaos", sinks)
        # "all" sees the whole stream; every probe must reach the sinks
        # that read its kind one after another, in attach order.
        expected = [
            (sink.name, kind, t, args)
            for name, kind, t, args in log if name == "all"
            for sink in sinks
            if sink.probe_kinds is None or kind in sink.probe_kinds
        ]
        assert log == expected
        assert {name for name, *_ in log} == {"a", "all", "b", "c"}


def _chunked_run(case, chunk, monkeypatch, sinks=(), **config):
    """A ``case`` run with the tracer and attribution on beside
    ``sinks``, the hub's chunk constant set to ``chunk``."""
    from repro.sim.observe import probes

    monkeypatch.setattr(probes, "CHUNK", chunk)
    system, policy, sim_config = _stream_case(case, None)
    sim = Simulator(system, policy, replace(sim_config, **config))
    hub = ObserverHub(
        sim,
        ObserveConfig(trace=True, trace_capacity=1 << 20, attribution=True),
        list(sinks),
    )
    hub.attach()
    sim.observe = hub
    return hub, sim.run()


def _records(log, name="all"):
    """The ``(time, kind, args)`` records a ``_Recorder`` logged."""
    return [(t, kind, args) for who, kind, t, args in log if who == name]


def _fed_one_by_one(records):
    from repro.sim.observe.attribution import LatencyAttribution

    engine = LatencyAttribution()
    for t, kind, args in records:
        engine.feed(kind, t, args)
    return engine


class TestChunkedDelivery:
    """The tracer and the attribution engine read the hub's probe log
    a chunk at a time; the live sinks still get each probe as it
    fires."""

    #: records the tracer keeps in each probe-stream golden case
    TOTALS = {
        "chaos": 54464, "detect": 1783, "sampled": 10462,
        "wound-wait": 25987,
    }

    @pytest.mark.parametrize("chunk", [1, 7, "default"])
    @pytest.mark.parametrize("case", sorted(TestProbeStreamGolden.GOLDEN))
    def test_goldens_hold_at_every_chunk_size(
        self, case, chunk, tmp_path, monkeypatch
    ):
        from repro.sim.observe import probes

        if chunk != "default":
            monkeypatch.setattr(probes, "CHUNK", chunk)
        hubs = []
        finalize = ObserverHub.finalize

        def recorded(hub):
            hubs.append(hub)
            finalize(hub)

        monkeypatch.setattr(ObserverHub, "finalize", recorded)
        TestProbeStreamGolden().test_stream_matches_the_goldens(
            case, tmp_path
        )
        [hub] = hubs
        assert hub.tracer.total == len(hub.tracer) == self.TOTALS[case]

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_live_sinks_keep_attach_order_beside_chunk_readers(
        self, chunk, monkeypatch
    ):
        log = []
        sinks = [
            _Recorder(log, "all"),
            _Recorder(log, "some", frozenset({"wait", "abort", "sched"})),
        ]
        hub, _ = _chunked_run("chaos", chunk, monkeypatch, sinks)
        expected = [
            (sink.name, kind, t, args)
            for name, kind, t, args in log if name == "all"
            for sink in sinks
            if sink.probe_kinds is None or kind in sink.probe_kinds
        ]
        assert log == expected
        stream = _records(log)
        assert len(stream) > 3 * chunk
        assert list(hub.tracer._records()) == stream
        assert hub.attribution.engine.summary() == (
            _fed_one_by_one(stream).summary()
        )

    def test_a_truncated_run_delivers_every_probe(self, monkeypatch):
        """A run cut short by ``max_events`` ends with a part chunk,
        which the hub hands over at finalize."""
        from repro.sim.observe import probes

        log = []
        hub, result = _chunked_run(
            "wound-wait", probes.CHUNK, monkeypatch, [_Recorder(log, "all")],
            max_events=2000,
        )
        assert result.truncated
        stream = _records(log)
        assert len(stream) > 2 * probes.CHUNK
        assert len(stream) % probes.CHUNK
        assert hub.tracer.total == len(stream)
        assert list(hub.tracer._records()) == stream
        assert hub.attribution.engine.summary() == (
            _fed_one_by_one(stream).summary()
        )


class TestCli:
    def test_simulate_trace_flags_and_trace_subcommand(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "simulate",
            "--arrival-rate", "0.5",
            "--max-transactions", "40",
            "--hotspot-skew", "0.7",
            "--policies", "wound-wait",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
            "--flight-recorder", str(tmp_path / "flight"),
            "--flight-cascade", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace events" in out and "windows" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        series = json.loads(metrics.read_text())
        assert series["windows"]

        rc = main(["trace", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chrome trace" in out

    def test_simulate_multi_policy_suffixes_outputs(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        rc = main([
            "simulate",
            "--arrival-rate", "0.5",
            "--max-transactions", "20",
            "--policies", "wound-wait", "wait-die",
            "--trace-jsonl", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "run-wound-wait-instant.jsonl").exists()
        assert (tmp_path / "run-wait-die-instant.jsonl").exists()

    def test_replicate_runs_get_distinct_flight_dirs(
        self, tmp_path, capsys
    ):
        """--runs N must not funnel every replicate's flight dumps
        into one directory: the dump files are numbered from zero per
        run, so a shared directory silently overwrites run 0's
        evidence with run 1's."""
        rc = main([
            "simulate",
            "--arrival-rate", "0.5",
            "--max-transactions", "30",
            "--policies", "wound-wait",
            "--failure-rate", "0.05",
            "--runs", "2",
            "--flight-recorder", str(tmp_path / "flight"),
        ])
        assert rc == 0
        capsys.readouterr()
        for run in ("flight-run0", "flight-run1"):
            run_dir = tmp_path / run
            assert run_dir.is_dir(), f"{run} missing"
            assert any(run_dir.iterdir()), f"{run} has no dumps"
        assert not (tmp_path / "flight").exists()

    def test_policy_grid_gets_distinct_flight_dirs(
        self, tmp_path, capsys
    ):
        rc = main([
            "simulate",
            "--arrival-rate", "0.5",
            "--max-transactions", "30",
            "--policies", "wound-wait", "wait-die",
            "--failure-rate", "0.05",
            "--flight-recorder", str(tmp_path / "flight"),
        ])
        assert rc == 0
        capsys.readouterr()
        for cell in ("wound-wait-instant", "wait-die-instant"):
            cell_dir = tmp_path / f"flight-{cell}"
            assert cell_dir.is_dir(), f"{cell} missing"
            assert any(cell_dir.iterdir()), f"{cell} has no dumps"
        assert not (tmp_path / "flight").exists()

    def test_sweep_cell_metrics_columns(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        rc = main([
            "sweep",
            "--policies", "wound-wait",
            "--arrival-rates", "0.4",
            "--seeds", "0",
            "--max-transactions", "20",
            "--serial",
            "--cell-metrics", "25",
            "--json", str(out_json),
        ])
        assert rc == 0
        capsys.readouterr()
        cells = json.loads(out_json.read_text())["cells"]
        assert all("peak_inflight" in cell for cell in cells)
        assert all("peak_abort_rate" in cell for cell in cells)
