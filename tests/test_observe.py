"""Unit tests for repro.sim.observe: tracer, sampler, flight, CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim import (
    ObserveConfig,
    ObserverHub,
    SimulationConfig,
    Simulator,
)
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
