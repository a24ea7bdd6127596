"""Observability must not change behaviour — enabled or disabled.

Disabled mode is free by construction (nothing attaches), so the
interesting direction is *enabled*: every probe is observation-only,
drawing no randomness and scheduling no events, so a fully observed
run must produce the same behaviour digest as a plain one across the
bench scenarios (closed batch, open/detect, replicated-with-failures,
saturated detection).

The second half pins the sampler's accounting: its time series must
integrate back to the aggregates the run loop computed independently
(time-averaged concurrency, commit/abort/arrival totals).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import TransactionSystem
from repro.sim import (
    ObserveConfig,
    SimulationConfig,
    Simulator,
    simulate,
)
from repro.sim.network import NetworkConfig
from repro.sim.workload import WorkloadSpec, random_system

# The bench's behaviour-digest surface (benchmarks/bench_core_speed.py
# DIGEST_FIELDS): equality here is equality of everything the golden
# matrix and the perf gate pin.
DIGEST_FIELDS = (
    "policy", "commit_protocol", "replica_protocol", "replication_factor",
    "committed", "total", "end_time", "aborts", "wounds", "deaths",
    "timeouts", "detected", "crash_aborts", "unavailable_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated", "injected",
    "measured_committed", "inflight_area",
)


def digest_fields(result) -> dict:
    return {f: getattr(result, f) for f in DIGEST_FIELDS}


def _scenarios():
    """Scaled-down variants of the bench scenarios."""

    def closed():
        spec = WorkloadSpec(
            n_transactions=40, n_entities=16, n_sites=4,
            entities_per_txn=(2, 4), actions_per_entity=(0, 2),
            hotspot_skew=0.5,
        )
        system = random_system(random.Random(7), spec)
        return system, "wound-wait", SimulationConfig(
            arrival_spread=20.0, seed=1,
        )

    def open_detect():
        spec = WorkloadSpec(
            n_entities=16, n_sites=4, entities_per_txn=(2, 4),
            actions_per_entity=(0, 2), hotspot_skew=0.6,
        )
        return TransactionSystem([]), "detect", SimulationConfig(
            arrival_rate=0.35, max_transactions=120, warmup_time=50.0,
            workload=spec, seed=1,
        )

    def replicated():
        spec = WorkloadSpec(
            n_entities=12, n_sites=4, entities_per_txn=(2, 3),
            actions_per_entity=(0, 1), hotspot_skew=0.4,
            read_fraction=0.3, replication_factor=3,
        )
        return TransactionSystem([]), "wound-wait", SimulationConfig(
            arrival_rate=0.8, max_transactions=120, warmup_time=50.0,
            workload=spec, seed=2, replica_protocol="rowa-available",
            failure_rate=0.002, repair_time=8.0,
            commit_protocol="two-phase",
        )

    def detection():
        spec = WorkloadSpec(
            n_entities=12, n_sites=4, entities_per_txn=(2, 4),
            actions_per_entity=(0, 2), hotspot_skew=0.8,
        )
        return TransactionSystem([]), "detect", SimulationConfig(
            arrival_rate=0.4, max_transactions=60, warmup_time=50.0,
            workload=spec, seed=3, detection_interval=4.0,
            max_time=4_000.0,
        )

    def chaos():
        spec = WorkloadSpec(
            n_entities=12, n_sites=4, entities_per_txn=(2, 3),
            actions_per_entity=(0, 1), hotspot_skew=0.5,
            read_fraction=0.3, replication_factor=3,
        )
        return TransactionSystem([]), "wound-wait", SimulationConfig(
            arrival_rate=0.6, max_transactions=80, warmup_time=30.0,
            workload=spec, seed=4, replica_protocol="quorum",
            commit_protocol="paxos-commit", network_delay=0.5,
            network=NetworkConfig(
                loss_rate=0.1, dup_rate=0.05, jitter=0.2,
                partition_schedule=((40.0, 25.0, ("s1", "s2")),),
            ),
        )

    return {
        "closed": closed,
        "open": open_detect,
        "replicated": replicated,
        "detection": detection,
        "chaos": chaos,
    }


class TestDigestTransparency:
    @pytest.mark.parametrize("name", sorted(_scenarios()))
    def test_fully_observed_run_is_bit_identical(self, name, tmp_path):
        builder = _scenarios()[name]
        system, policy, config = builder()
        plain = simulate(system, policy, config)

        system2, policy2, config2 = builder()
        observed_cfg = dataclasses.replace(
            config2,
            observe=ObserveConfig(
                trace=True,
                metrics_window=20.0,
                flight_recorder=str(tmp_path / name),
                flight_cascade_threshold=3,
                attribution=True,
            ),
        )
        sim = Simulator(system2, policy2, observed_cfg)
        observed = sim.run()

        assert digest_fields(observed) == digest_fields(plain)
        # The consumers actually saw the run.
        assert len(sim.observe.tracer) > 0
        assert observed.timeseries is not None
        assert observed.attribution is not None
        assert observed.attribution["conservation"]["exact"] is True

    @pytest.mark.parametrize("name", sorted(_scenarios()))
    def test_sampled_run_is_bit_identical(self, name):
        """1-in-N sampling drops probe *delivery*, never behaviour:
        the sampled run must match the plain digest exactly too."""
        builder = _scenarios()[name]
        system, policy, config = builder()
        plain = simulate(system, policy, config)

        system2, policy2, config2 = builder()
        sampled_cfg = dataclasses.replace(
            config2,
            observe=ObserveConfig(
                trace=True, attribution=True, sample_every=8
            ),
        )
        sim = Simulator(system2, policy2, sampled_cfg)
        sampled = sim.run()

        assert digest_fields(sampled) == digest_fields(plain)
        assert sampled.attribution["sampled"] is True

    def test_all_disabled_config_attaches_nothing(self):
        system, policy, config = _scenarios()["closed"]()
        config = dataclasses.replace(config, observe=ObserveConfig())
        assert not ObserveConfig().enabled
        sim = Simulator(system, policy, config)
        assert sim.observe is None
        # No instance shadow on the dispatch seam either, and the
        # probe slot count() and the lifecycle points test is empty.
        assert "dispatch" not in sim._registry.__dict__
        assert sim._probe is None

    def test_observed_result_is_picklable_and_plain(self):
        import pickle

        system, policy, config = _scenarios()["closed"]()
        config = dataclasses.replace(
            config, observe=ObserveConfig(metrics_window=10.0)
        )
        result = simulate(system, policy, config)
        from repro.sim.metrics import SimulationResult

        assert type(result) is SimulationResult
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result


class TestSamplerIntegratesBack:
    """The time series must re-derive the run's own aggregates."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        rate=st.sampled_from([0.2, 0.4, 0.6]),
        policy=st.sampled_from(["wound-wait", "wait-die"]),
    )
    def test_open_system_series(self, seed, rate, policy):
        spec = WorkloadSpec(
            n_entities=10, n_sites=3, entities_per_txn=(2, 3),
            hotspot_skew=0.6,
        )
        config = SimulationConfig(
            arrival_rate=rate, max_transactions=30, workload=spec,
            seed=seed, observe=ObserveConfig(metrics_window=15.0),
        )
        result = simulate(TransactionSystem([]), policy, config)
        assert not result.truncated
        series = result.timeseries
        windows = series["windows"]
        # The sampler's warmup-gated integral mirrors the run loop's
        # exactly (same events, same formula) — so time-averaged
        # concurrency from the series equals the result aggregate.
        assert series["inflight_area"] == result.inflight_area
        # Window counts sum back to the run totals.
        assert sum(w["commits"] for w in windows) == result.committed
        assert sum(w["aborts"] for w in windows) == result.aborts
        assert sum(w["arrivals"] for w in windows) == result.injected
        # With no warmup, the full-time window integrals cover the
        # whole run: their weighted mean is the mean concurrency.
        area = sum(
            w["inflight_mean"] * (w["t1"] - w["t0"]) for w in windows
        )
        assert area == pytest.approx(result.inflight_area, rel=1e-9)
        if result.end_time > 0:
            assert area / result.end_time == pytest.approx(
                result.mean_inflight, rel=1e-9
            )
        # Windows tile the run without gaps.
        for prev, cur in zip(windows, windows[1:]):
            assert cur["t0"] == prev["t1"]
        if windows:
            assert windows[-1]["t1"] == pytest.approx(result.end_time)

    def test_closed_batch_series(self):
        system, policy, config = _scenarios()["closed"]()
        config = dataclasses.replace(
            config, observe=ObserveConfig(metrics_window=10.0)
        )
        result = simulate(system, policy, config)
        windows = result.timeseries["windows"]
        assert sum(w["commits"] for w in windows) == result.committed
        assert result.timeseries["inflight_area"] == result.inflight_area
