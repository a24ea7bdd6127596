"""Who waits, read from the lock tables.

The deadlock detector starts its search from the blocked set, the
union of the sites' wait indexes. The hypothesis invariant asserts it
end to end: after *every* dispatched event of a real simulation, under
every policy, the blocked set equals the waiters of a from-scratch
rebuild over the live instances (``Simulator._wait_for_edges``) — for
closed and open runs, with commit protocols, failures, replication,
and shared read locks in the mix.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import TransactionSystem
from repro.paper.figures import figure1
from repro.sim.policies import policy_names
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

seeds = st.integers(min_value=0, max_value=5_000)
policies = st.sampled_from(policy_names())


def _checked_run(system, policy, config):
    """Run a simulation asserting blocked set == rebuild per event."""
    sim = Simulator(system, policy, config)
    dispatch = sim._registry.dispatch

    failures = []

    def checking_dispatch(payload):
        dispatch(payload)
        blocked = sorted(sim._blocked())
        rebuilt = sorted(sim._wait_for_edges())
        if blocked != rebuilt and len(failures) < 3:
            failures.append((payload, blocked, rebuilt))

    # The registry instance is per-simulator; shadowing dispatch on it
    # hooks every event the run processes.
    sim._registry.dispatch = checking_dispatch
    result = sim.run()
    assert failures == [], failures[:1]
    assert sorted(sim._blocked()) == sorted(sim._wait_for_edges())
    return sim, result


class TestBlockedSet:
    def test_figure1_deadlock_spans_both_sites(self):
        # Figure 1 deadlocks at seed 1: T1 waits for z at site2, T2
        # for y and T3 for x at site1. The blocked set is the union of
        # both sites' wait indexes, and the verdict's cycle is the one
        # a fresh search of the final tables finds.
        sim = Simulator(figure1(), "blocking", SimulationConfig(seed=1))
        result = sim.run()
        assert result.deadlocked
        tables = sim.lock_tables()
        assert set(tables["site1"].wait_index) == {1, 2}
        assert set(tables["site2"].wait_index) == {0}
        assert sim._blocked() == {0, 1, 2}
        assert result.deadlock_cycle == (0, 2, 1)
        assert sim._find_deadlock_cycle() == [0, 2, 1]


class TestIncrementalEqualsRebuild:
    @given(seed=seeds, policy=policies)
    @settings(max_examples=30, deadline=None)
    def test_closed_batch(self, seed, policy):
        spec = WorkloadSpec(
            n_transactions=5, n_entities=4, n_sites=2,
            entities_per_txn=(2, 3), hotspot_skew=1.0,
        )
        system = random_system(random.Random(seed), spec)
        _checked_run(
            system, policy,
            SimulationConfig(seed=seed, max_time=400.0),
        )

    @given(seed=seeds, policy=policies)
    @settings(max_examples=15, deadline=None)
    def test_open_system_with_failures_and_reads(self, seed, policy):
        spec = WorkloadSpec(
            n_entities=6, n_sites=3, entities_per_txn=(2, 3),
            hotspot_skew=1.0, read_fraction=0.4, replication_factor=2,
        )
        _checked_run(
            TransactionSystem([]), policy,
            SimulationConfig(
                seed=seed, arrival_rate=0.5, max_transactions=25,
                workload=spec, commit_protocol="two-phase",
                failure_rate=0.02, repair_time=6.0, max_time=400.0,
                replica_protocol="rowa-available",
            ),
        )

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_blocking_deadlock_verdict_uses_graph(self, seed):
        spec = WorkloadSpec(
            n_transactions=4, n_entities=3, n_sites=2,
            entities_per_txn=(2, 3), hotspot_skew=1.5,
        )
        system = random_system(random.Random(seed), spec)
        sim, result = _checked_run(
            system, "blocking", SimulationConfig(seed=seed)
        )
        if result.deadlocked:
            # The recorded cycle is a real cycle of the final graph.
            cycle = list(result.deadlock_cycle)
            edges = sim._wait_for_edges()
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert v in edges[u]
