"""Unit tests for latency attribution: conservation, blame, sampling.

The engine's headline invariant — segment sums equal the run's own
measured latency split *bit-exactly*, no tolerance — is asserted here
per committed transaction against ``result.exec_latencies`` /
``result.commit_latencies``, across protocols.  The rest covers the
consumer surface: hotspot detection on a crafted workload, the blame
graph and its DOT export, abort-cost accounting, 1-in-N sampling, the
offline ``repro analyze`` path (which must agree with the online sink
bit-for-bit), result serialization, and the sweep columns.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.system import TransactionSystem
from repro.io.dot import blame_graph_to_dot
from repro.sim import ObserveConfig, SimulationConfig, Simulator
from repro.sim.metrics import SimulationResult
from repro.sim.observe.attribution import (
    CONVOY_THRESHOLD,
    SEGMENTS,
    TOP_CELLS,
    TOP_EDGES,
    LatencyAttribution,
    analyze_trace,
    render_report,
    replay_jsonl,
)
from repro.sim.observe.trace import load_trace
from repro.sim.workload import WorkloadSpec, random_system


def hotspot_spec(**overrides) -> WorkloadSpec:
    """An open-system workload with entity e0 as the designed hotspot.

    ``hotspot_skew`` draws entities Zipf-style over the sorted pool,
    so the first entity is the configured hot one by construction.
    """
    kwargs = dict(
        n_entities=6, n_sites=3, entities_per_txn=(2, 4),
        hotspot_skew=2.0,
    )
    kwargs.update(overrides)
    return WorkloadSpec(**kwargs)


_DEFAULT = object()


def attributed_run(
    policy="wound-wait", observe=_DEFAULT, **config_overrides
):
    if observe is _DEFAULT:
        observe = ObserveConfig(attribution=True)
    kwargs = dict(
        seed=5, network_delay=0.4, arrival_rate=0.6,
        max_transactions=60, warmup_time=5.0,
        workload=hotspot_spec(), observe=observe,
    )
    kwargs.update(config_overrides)
    sim = Simulator(
        TransactionSystem([]), policy, SimulationConfig(**kwargs)
    )
    sim.run()
    return sim


def assert_conserved_bit_exactly(sim):
    """Every committed transaction's segments reproduce the result's
    own exec/commit latency split with ``==``, not ``pytest.approx``."""
    engine = sim.observe.attribution.engine
    result = sim.result
    assert engine.check() == []
    assert engine.transactions, "no committed transactions tracked"
    for txn, entry in engine.transactions.items():
        seg = entry["segments"]
        exec_latency = result.exec_latencies[txn]
        commit_latency = result.commit_latencies[txn]
        assert entry["exec_done"] - entry["start"] == exec_latency
        assert seg["commit"] == commit_latency
        assert seg["service"] == (
            exec_latency
            - seg["admission"]
            - seg["lock_wait"]
            - seg["coordinator"]
            - seg["fanout"]
        )
        assert all(seg[name] >= -1e-9 for name in SEGMENTS)


class TestConservation:
    @pytest.mark.parametrize(
        "protocol", ["instant", "two-phase", "presumed-abort"]
    )
    def test_open_system_conserves(self, protocol):
        sim = attributed_run(commit_protocol=protocol)
        assert_conserved_bit_exactly(sim)

    def test_closed_batch_conserves(self):
        spec = hotspot_spec(n_transactions=14)
        system = random_system(random.Random(3), spec)
        observe = ObserveConfig(attribution=True)
        config = SimulationConfig(
            seed=5, network_delay=0.5, commit_protocol="two-phase",
            observe=observe,
        )
        sim = Simulator(system, "wound-wait", config)
        sim.run()
        assert_conserved_bit_exactly(sim)

    def test_failure_injected_run_conserves(self):
        sim = attributed_run(
            commit_protocol="two-phase", failure_rate=0.01,
            repair_time=8.0,
        )
        assert_conserved_bit_exactly(sim)

    def test_replicated_run_conserves(self):
        sim = attributed_run(
            workload=hotspot_spec(
                replication_factor=3, read_fraction=0.3
            ),
            replica_protocol="rowa-available",
            failure_rate=0.002, repair_time=8.0,
        )
        assert_conserved_bit_exactly(sim)

    def test_summary_reports_exact(self):
        summary = attributed_run().result.attribution
        conservation = summary["conservation"]
        assert conservation["exact"] is True
        assert conservation["transactions"] == summary["committed"]
        assert conservation["min_service"] >= 0.0
        # Segment totals are the per-transaction sums: drift between
        # the closure service term and the wall-clock service time is
        # floating-point noise, not a modeling gap.
        assert conservation["max_service_drift"] < 1e-9


class TestBehaviourTransparency:
    def test_attribution_changes_nothing_observable(self):
        plain = attributed_run(observe=None).result
        observed = attributed_run().result
        assert observed.exec_latencies == plain.exec_latencies
        assert observed.commit_latencies == plain.commit_latencies
        assert observed.aborts == plain.aborts
        assert observed.end_time == plain.end_time
        assert plain.attribution is None
        assert observed.attribution is not None


class TestContentionProfile:
    def test_hotspot_is_the_configured_hot_entity(self):
        summary = attributed_run().result.attribution
        assert summary["hotspot"]["entity"] == "e0"
        assert 0.0 < summary["hotspot"]["share"] <= 1.0
        top_cell = summary["hot_cells"][0]
        assert top_cell["entity"] == "e0"
        assert top_cell["blocked_time"] > 0

    def test_cell_shares_sum_to_one(self):
        summary = attributed_run(
            observe=ObserveConfig(attribution=True)
        ).result.attribution
        shares = [c["share"] for c in summary["hot_cells"]]
        # Six entities over three sites: few enough cells that the
        # top-K list is exhaustive and the shares partition the total.
        assert sum(shares) == pytest.approx(1.0)

    def test_convoy_detection_on_hot_cell(self):
        summary = attributed_run().result.attribution
        top_cell = summary["hot_cells"][0]
        assert top_cell["peak_queue"] >= 3
        assert top_cell["convoy_time"] > 0

    def test_summary_limits_are_constants(self):
        # No caller tunes them, so the engine takes no keyword for
        # them; the summary still reports the convoy threshold.
        for knob in ("convoy_threshold", "top_cells", "top_edges"):
            with pytest.raises(TypeError):
                LatencyAttribution(**{knob: 1})
        sim = attributed_run(
            workload=hotspot_spec(n_entities=24, n_sites=6),
            max_transactions=120,
        )
        summary = sim.result.attribution
        assert summary["convoy_threshold"] == CONVOY_THRESHOLD == 3
        assert len(summary["hot_cells"]) == TOP_CELLS
        blame = summary["blame"]
        assert blame["edge_count"] > len(blame["edges"]) == TOP_EDGES

    def test_blame_graph_shape(self):
        edges = attributed_run().observe.attribution.blame_edge_list()
        assert edges
        assert edges == sorted(
            edges, key=lambda e: -e["time"]
        )
        for edge in edges:
            assert edge["waiter"] != edge["holder"]
            assert edge["time"] > 0

    def test_abort_cost_accounting(self):
        sim = attributed_run()
        summary = sim.result.attribution
        aborts = summary["aborts"]
        total_counted = sum(
            c["count"] for c in aborts["by_cause"].values()
        )
        assert total_counted == sim.result.aborts
        assert set(aborts["by_cause"]) == {"wound"}
        assert aborts["wasted_time"] > 0
        assert 0.0 < aborts["wasted_fraction"] < 1.0


class TestSampling:
    def test_sampled_summary_is_marked_and_conserves(self):
        sim = attributed_run(
            observe=ObserveConfig(attribution=True, sample_every=4)
        )
        summary = sim.result.attribution
        assert summary["sampled"] is True
        assert summary["sample_every"] == 4
        assert summary["committed"] < sim.result.committed
        # Conservation still holds bit-exactly over the sampled
        # population — sampling drops transactions, not precision.
        assert_conserved_bit_exactly(sim)
        assert set(sim.observe.attribution.engine.transactions) == {
            txn for txn in range(sim.result.total) if txn % 4 == 0
            and sim.result.commit_latencies[txn] >= 0
        }

    def test_sampled_cause_counts_stay_exact(self):
        full = attributed_run().result.attribution
        sampled = attributed_run(
            observe=ObserveConfig(attribution=True, sample_every=4)
        ).result.attribution
        full_counts = {
            cause: entry["count"]
            for cause, entry in full["aborts"]["by_cause"].items()
        }
        sampled_counts = {
            cause: entry["count"]
            for cause, entry in sampled["aborts"]["by_cause"].items()
        }
        assert sampled_counts == full_counts

    def test_sampling_keeps_behaviour(self):
        plain = attributed_run(observe=None).result
        sampled = attributed_run(
            observe=ObserveConfig(
                trace=True, attribution=True, sample_every=8
            )
        ).result
        assert sampled.exec_latencies == plain.exec_latencies
        assert sampled.aborts == plain.aborts
        assert sampled.end_time == plain.end_time

    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every"):
            ObserveConfig(attribution=True, sample_every=0)


class TestOfflineReplay:
    def test_offline_summary_matches_online_bit_for_bit(self, tmp_path):
        sim = attributed_run(
            observe=ObserveConfig(
                trace=True, trace_capacity=1 << 20, attribution=True
            )
        )
        path = tmp_path / "trace.jsonl"
        sim.observe.tracer.export_jsonl(str(path))
        offline_summary, engine = analyze_trace(str(path))
        assert offline_summary == sim.result.attribution
        assert engine.transactions.keys() == (
            sim.observe.attribution.engine.transactions.keys()
        )

    def test_replay_needs_no_counter_records(self, tmp_path):
        sim = attributed_run(
            observe=ObserveConfig(
                trace=True, trace_capacity=1 << 20, attribution=True
            ),
            commit_protocol="two-phase", failure_rate=0.01,
            repair_time=8.0,
        )
        path = tmp_path / "trace.jsonl"
        sim.observe.tracer.export_jsonl(str(path))
        _, records = load_trace(str(path))
        stripped = [r for r in records if r["kind"] != "counter"]
        assert len(stripped) < len(records)
        summary = sim.result.attribution
        assert len(summary["aborts"]["by_cause"]) > 1
        assert replay_jsonl(stripped).summary() == summary

    def test_chrome_trace_is_rejected(self, tmp_path):
        sim = attributed_run(
            observe=ObserveConfig(trace=True, attribution=True)
        )
        path = tmp_path / "trace.json"
        sim.observe.tracer.export_chrome(str(path))
        with pytest.raises(ValueError, match="JSONL"):
            analyze_trace(str(path))


class TestResultSerialization:
    def test_attribution_round_trips_through_json(self):
        result = attributed_run().result
        clone = SimulationResult.from_json(result.to_json())
        assert clone.attribution == result.attribution

    def test_report_renders(self):
        summary = attributed_run().result.attribution
        report = render_report(summary)
        assert "latency decomposition" in report
        assert "exact=True" in report
        assert "hotspot entity: e0" in report


class TestDotExport:
    def test_blame_graph_dot(self):
        edges = attributed_run().observe.attribution.blame_edge_list()
        dot = blame_graph_to_dot(edges)
        assert dot.startswith('digraph "blame"')
        heaviest = edges[0]
        assert (
            f"n{heaviest['waiter']} -> n{heaviest['holder']}" in dot
        )
        # Resolved names, not interned ids, label the arcs.
        assert f"e{0}@" not in heaviest["site"]
        assert heaviest["entity"].startswith("e")
        assert f"{heaviest['entity']}@{heaviest['site']}" in dot
        assert "penwidth=4.00" in dot  # the heaviest edge's width

    def test_empty_blame_graph(self):
        assert blame_graph_to_dot([]) == (
            'digraph "blame" {\n  rankdir=LR;\n}\n'
        )


def simulate_args(tmp_path, *extra):
    return [
        "simulate",
        "--arrival-rate", "0.6",
        "--max-transactions", "40",
        "--warmup", "5",
        "--entities", "6",
        "--hotspot-skew", "2.0",
        "--network-delay", "0.4",
        "--policies", "wound-wait",
        *extra,
    ]


class TestCli:
    def test_simulate_attribution_report_and_json(
        self, tmp_path, capsys
    ):
        out = tmp_path / "attr.json"
        rc = main(simulate_args(
            tmp_path, "--attribution-out", str(out)
        ))
        printed = capsys.readouterr().out
        assert rc == 0
        assert "latency decomposition" in printed
        assert "hotspot entity: e0" in printed
        summary = json.loads(out.read_text())
        assert summary["conservation"]["exact"] is True

    def test_analyze_trace_check_dot_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(simulate_args(
            tmp_path, "--trace-jsonl", str(trace),
            "--trace-capacity", "1048576",
            "--attribution-out", str(tmp_path / "online.json"),
        ))
        assert rc == 0
        capsys.readouterr()
        dot = tmp_path / "blame.dot"
        out_json = tmp_path / "offline.json"
        rc = main([
            "analyze", str(trace), "--check",
            "--dot", str(dot), "--json-out", str(out_json),
        ])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "check OK" in printed
        assert dot.read_text().startswith('digraph "blame"')
        # The offline path is the online path: identical JSON.
        assert json.loads(out_json.read_text()) == json.loads(
            (tmp_path / "online.json").read_text()
        )

    def test_analyze_rejects_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(simulate_args(tmp_path, "--trace-out", str(trace)))
        assert rc == 0
        capsys.readouterr()
        rc = main(["analyze", str(trace)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "JSONL" in err

    def test_analyze_static_path_still_works(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text(
            "schema s1: x\n"
            "txn T1\n"
            "  seq Lx Ux\n"
            "end\n"
        )
        rc = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "system: T1" in out

    def test_trace_sample_flag(self, tmp_path, capsys):
        rc = main(simulate_args(
            tmp_path, "--attribution", "--trace-sample", "4"
        ))
        printed = capsys.readouterr().out
        assert rc == 0
        assert "SAMPLED 1-in-4" in printed

    def test_attribution_out_suffixed_per_cell(self, tmp_path, capsys):
        """Grid x replicate runs must never overwrite each other's
        attribution (or metrics) files — same contract the flight
        recorder and trace outputs already honour."""
        attr = tmp_path / "attr.json"
        metrics = tmp_path / "metrics.json"
        rc = main(simulate_args(
            tmp_path,
            "--policies", "wound-wait", "wait-die",
            "--runs", "2",
            "--attribution-out", str(attr),
            "--metrics-out", str(metrics),
        ))
        assert rc == 0
        capsys.readouterr()
        for stem in ("attr", "metrics"):
            for cell in (
                "wound-wait-instant-run0", "wound-wait-instant-run1",
                "wait-die-instant-run0", "wait-die-instant-run1",
            ):
                assert (tmp_path / f"{stem}-{cell}.json").exists()
            assert not (tmp_path / f"{stem}.json").exists()

    def test_sweep_cell_attribution_columns(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        out_csv = tmp_path / "sweep.csv"
        rc = main([
            "sweep",
            "--policies", "wound-wait",
            "--arrival-rates", "0.5",
            "--seeds", "0", "1",
            "--max-transactions", "30",
            "--hotspot-skew", "2.0",
            "--entities", "6",
            "--serial",
            "--cell-attribution",
            "--json", str(out_json),
            "--csv", str(out_csv),
        ])
        assert rc == 0
        capsys.readouterr()
        cells = json.loads(out_json.read_text())["cells"]
        assert cells
        for cell in cells:
            assert cell["hot_entity"] == "e0"
            assert 0.0 < cell["hot_entity_share"] <= 1.0
            assert cell["conservation_exact"] is True
            assert cell["blame_edges"] > 0
            assert 0.0 <= cell["wasted_fraction"] < 1.0
        header = out_csv.read_text().splitlines()[0].split(",")
        assert "hot_entity_share" in header
        assert "wasted_fraction" in header
