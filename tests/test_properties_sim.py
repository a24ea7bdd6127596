"""Property tests linking the simulator to the static theory.

The two headline invariants:

* **soundness of certification** — a system the paper's static test
  certifies safe-and-deadlock-free never deadlocks under the pure
  blocking scheduler, for any arrival order, and every trace it produces
  is serializable;
* **witness realism** — when the simulator does wedge, the static
  machinery must agree a deadlock is reachable.

The conservation classes below sweep the enlarged behaviour space —
random workloads x every policy x every commit protocol x failure
rates, closed and open — and pin the bookkeeping invariants any run
must satisfy: committed schedules pass the D(S) test (for 2PL-shaped
workloads, where the classical theorem guarantees it), lock tables
drain, commit/abort accounting balances.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exhaustive import find_deadlock
from repro.analysis.fixed_k import check_system
from repro.analysis.policies import repair_system
from repro.core.schedule import Schedule
from repro.core.serialization import is_serializable
from repro.core.system import TransactionSystem
from repro.sim.runtime import SimulationConfig, Simulator, simulate
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import small_random_system

pytestmark = pytest.mark.properties

seeds = st.integers(min_value=0, max_value=5_000)
all_policies = st.sampled_from(
    ["blocking", "wound-wait", "wait-die", "timeout", "detect"]
)
all_protocols = st.sampled_from(
    ["instant", "two-phase", "presumed-abort"]
)
failure_rates = st.sampled_from([0.0, 0.05])


def contended_system(seed: int):
    rng = random.Random(seed)
    spec = WorkloadSpec(
        n_transactions=4,
        n_entities=4,
        n_sites=2,
        entities_per_txn=(2, 3),
        actions_per_entity=(0, 1),
        hotspot_skew=1.5,
    )
    return random_system(rng, spec)


class TestCertifiedSystemsNeverDeadlock:
    @given(seeds, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_certified_blocking_run(self, workload_seed, sim_seed):
        system = contended_system(workload_seed)
        if not check_system(system):
            repaired, _ = repair_system(system)
            system = repaired
        assert check_system(system)
        result = simulate(
            system, "blocking", SimulationConfig(seed=sim_seed)
        )
        assert not result.deadlocked
        assert result.committed == len(system)
        assert result.serializable is True


class TestSimulatorDeadlocksAreReal:
    @given(seeds, st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_runtime_deadlock_implies_static_deadlock(
        self, workload_seed, sim_seed
    ):
        system = small_random_system(
            workload_seed, n_transactions=3, n_entities=4
        )
        result = simulate(
            system, "blocking", SimulationConfig(seed=sim_seed)
        )
        if result.deadlocked:
            assert find_deadlock(system, max_states=400_000) is not None


class TestTraceReplayInvariant:
    @given(seeds, st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_committed_trace_is_legal_schedule(
        self, workload_seed, sim_seed
    ):
        system = contended_system(workload_seed)
        sim = Simulator(
            system, "wound-wait", SimulationConfig(seed=sim_seed)
        )
        result = sim.run()
        schedule = sim.committed_schedule()
        # replays through full validation
        Schedule(system, schedule.steps)
        if result.committed == len(system):
            assert schedule.is_complete()


class TestPreventionPoliciesAlwaysFinish:
    @given(seeds, st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_wound_wait_and_wait_die_commit_everything(
        self, workload_seed, sim_seed
    ):
        system = contended_system(workload_seed)
        for policy in ("wound-wait", "wait-die"):
            result = simulate(
                system, policy, SimulationConfig(seed=sim_seed)
            )
            assert not result.deadlocked
            assert result.committed == len(system)


def _check_conservation(sim: Simulator, result) -> None:
    """The bookkeeping invariants every run must satisfy."""
    # (c) committed and aborted are disjoint final states: the commit
    # count, the committed-latency count, and the instance statuses all
    # tell the same story.
    committed_latencies = sum(1 for lat in result.latencies if lat >= 0)
    assert result.committed == committed_latencies
    assert 0 <= result.committed <= result.total
    statuses = [sim.instance(i).status for i in range(result.total)]
    assert sum(1 for s in statuses if s == "committed") == result.committed
    # (d) the per-cause abort counters partition the abort total.
    assert sum(result.aborts_by_cause.values()) == result.aborts
    # (a) the committed trace replays as a legal schedule and passes
    # the D(S) serializability check (the workloads below are 2PL
    # shaped, so the classical theorem promises acyclicity).
    schedule = sim.committed_schedule()
    assert is_serializable(schedule)
    # (b) a complete, untruncated run leaves every lock table drained.
    if result.committed == result.total and not result.truncated:
        for site in sim.lock_tables().values():
            assert site.involved() == [], site


class TestClosedRunConservation:
    @given(seeds, all_policies, all_protocols, failure_rates)
    @settings(max_examples=40, deadline=None)
    def test_invariants_across_the_matrix(
        self, workload_seed, policy, protocol, failure_rate
    ):
        spec = WorkloadSpec(
            n_transactions=5,
            n_entities=5,
            n_sites=3,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            hotspot_skew=1.0,
            shape="two_phase",
        )
        system = random_system(random.Random(workload_seed), spec)
        sim = Simulator(
            system,
            policy,
            SimulationConfig(
                seed=workload_seed,
                commit_protocol=protocol,
                failure_rate=failure_rate,
                repair_time=6.0,
                network_delay=0.25,
            ),
        )
        _check_conservation(sim, sim.run())


class TestOpenRunConservation:
    @given(
        seeds,
        all_policies,
        all_protocols,
        failure_rates,
        st.sampled_from(["two_phase", "ordered_2pl"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants_with_arrivals(
        self, seed, policy, protocol, failure_rate, shape
    ):
        config = SimulationConfig(
            seed=seed,
            arrival_rate=0.8,
            max_transactions=20,
            warmup_time=5.0,
            workload=WorkloadSpec(
                n_entities=8,
                n_sites=3,
                entities_per_txn=(2, 3),
                actions_per_entity=(0, 1),
                shape=shape,
            ),
            commit_protocol=protocol,
            failure_rate=failure_rate,
            repair_time=6.0,
        )
        sim = Simulator(TransactionSystem([]), policy, config)
        result = sim.run()
        assert result.injected <= 20
        assert result.total == result.injected
        assert result.measured_committed <= result.committed
        assert result.inflight_area >= 0.0
        p = result.latency_percentiles("total")
        assert p["p50"] <= p["p95"] <= p["p99"]
        _check_conservation(sim, result)
