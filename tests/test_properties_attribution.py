"""Property tests for latency attribution: conservation is exact.

The attribution engine's contract is an *identity*, not an estimate:
for every committed transaction, the six segments must reproduce the
run's own measured latency split with ``==`` — zero tolerance — and
no segment may be meaningfully negative.  Hypothesis sweeps that
identity across the behaviour space: random contended workloads x
policies x commit protocols x failure injection x replication, closed
and open, sampled and unsampled.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import TransactionSystem
from repro.sim.observe import ObserveConfig
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

pytestmark = pytest.mark.properties

seeds = st.integers(min_value=0, max_value=2_000)
policies = st.sampled_from(["wound-wait", "wait-die", "detect"])
protocols = st.sampled_from(
    ["instant", "two-phase", "presumed-abort", "paxos-commit"]
)
failure_rates = st.sampled_from([0.0, 0.02])
sample_rates = st.sampled_from([1, 3])


def assert_attribution_conserves(sim) -> None:
    engine = sim.observe.attribution.engine
    result = sim.result
    assert engine.check() == []
    for txn, entry in engine.transactions.items():
        seg = entry["segments"]
        exec_latency = result.exec_latencies[txn]
        assert entry["exec_done"] - entry["start"] == exec_latency
        assert seg["commit"] == result.commit_latencies[txn]
        assert seg["service"] == (
            exec_latency
            - seg["admission"]
            - seg["lock_wait"]
            - seg["coordinator"]
            - seg["fanout"]
        )
        assert min(seg.values()) >= -1e-9
    summary = result.attribution
    assert summary["conservation"]["exact"] is True
    assert summary["committed"] == len(engine.transactions)


def run(system, policy, **config_kwargs):
    config_kwargs.setdefault(
        "observe", ObserveConfig(attribution=True)
    )
    sim = Simulator(system, policy, SimulationConfig(**config_kwargs))
    sim.run()
    return sim


class TestClosedBatchConservation:
    @given(seeds, policies, protocols)
    @settings(max_examples=30, deadline=None)
    def test_closed_batch(self, seed, policy, protocol):
        spec = WorkloadSpec(
            n_transactions=6, n_entities=4, n_sites=2,
            entities_per_txn=(2, 3), hotspot_skew=1.5,
        )
        system = random_system(random.Random(seed), spec)
        sim = run(
            system, policy, seed=seed, network_delay=0.5,
            commit_protocol=protocol,
        )
        assert_attribution_conserves(sim)


class TestOpenSystemConservation:
    @given(seeds, policies, protocols, failure_rates)
    @settings(max_examples=25, deadline=None)
    def test_open_system(self, seed, policy, protocol, failure_rate):
        spec = WorkloadSpec(
            n_entities=6, n_sites=3, entities_per_txn=(2, 3),
            hotspot_skew=1.0,
        )
        sim = run(
            TransactionSystem([]), policy, seed=seed,
            network_delay=0.3, commit_protocol=protocol,
            arrival_rate=0.5, max_transactions=40, warmup_time=5.0,
            workload=spec, failure_rate=failure_rate, repair_time=6.0,
        )
        assert_attribution_conserves(sim)


class TestReplicatedConservation:
    @given(seeds, st.sampled_from(["rowa", "rowa-available", "quorum"]))
    @settings(max_examples=15, deadline=None)
    def test_replicated(self, seed, replica_protocol):
        spec = WorkloadSpec(
            n_entities=8, n_sites=3, entities_per_txn=(2, 3),
            hotspot_skew=0.8, read_fraction=0.4, replication_factor=2,
        )
        sim = run(
            TransactionSystem([]), "wound-wait", seed=seed,
            network_delay=0.3, arrival_rate=0.5,
            max_transactions=40, warmup_time=5.0, workload=spec,
            replica_protocol=replica_protocol,
            failure_rate=0.01, repair_time=6.0,
        )
        assert_attribution_conserves(sim)


class TestSampledConservation:
    @given(seeds, sample_rates)
    @settings(max_examples=15, deadline=None)
    def test_sampling_preserves_the_identity(self, seed, every):
        spec = WorkloadSpec(
            n_entities=6, n_sites=3, entities_per_txn=(2, 3),
            hotspot_skew=1.0,
        )
        sim = run(
            TransactionSystem([]), "wound-wait", seed=seed,
            network_delay=0.3, commit_protocol="two-phase",
            arrival_rate=0.5, max_transactions=40, warmup_time=5.0,
            workload=spec,
            observe=ObserveConfig(attribution=True, sample_every=every),
        )
        assert_attribution_conserves(sim)
        summary = sim.result.attribution
        assert summary["sampled"] is (every > 1)
        # Sampling must track exactly the 1-in-N committed population.
        expected = {
            txn
            for txn in range(sim.result.total)
            if txn % every == 0
            and sim.result.commit_latencies[txn] >= 0
        }
        engine = sim.observe.attribution.engine
        assert set(engine.transactions) == expected
