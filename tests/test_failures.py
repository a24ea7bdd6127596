"""Tests for the fault-injection layer (repro.sim.failures)."""

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim.failures import FailureInjector
from repro.sim.runtime import (
    _ABORTED,
    _PREPARED,
    _RUNNING,
    SimulationConfig,
    Simulator,
    simulate,
)

from tests.helpers import seq

SCHEMA = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})


def cross_pair() -> TransactionSystem:
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ly", "Ux", "Uy"], SCHEMA),
            seq("T2", ["Ly", "Lx", "Uy", "Ux"], SCHEMA),
        ]
    )


def failure_config(**kw) -> SimulationConfig:
    defaults = dict(failure_rate=0.02, repair_time=5.0)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestWiring:
    def test_zero_rate_creates_no_injector(self):
        sim = Simulator(cross_pair(), "wound-wait", SimulationConfig())
        assert sim.failures is None
        assert sim.site_is_up("s1")

    def test_positive_rate_creates_injector(self):
        sim = Simulator(
            cross_pair(), "wound-wait", failure_config(seed=3)
        )
        assert isinstance(sim.failures, FailureInjector)
        assert sim.failures.down_sites == []

    def test_injector_rejects_zero_rate(self):
        sim = Simulator(cross_pair(), "wound-wait", SimulationConfig())
        with pytest.raises(ValueError):
            FailureInjector(sim)


class TestCrashSemantics:
    def test_crash_aborts_running_holder(self):
        sim = Simulator(cross_pair(), "wound-wait", failure_config())
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)
        # As _request_lock does, the request's sites are recorded.
        sim.instance(0).lock_sites[x] = (s1,)
        assert sim.instance(0).status == _RUNNING
        sim.crash_site("s1")
        assert sim.instance(0).status == _ABORTED
        assert sim.result.crash_aborts == 1
        assert site.holder(x) is None

    def test_crash_aborts_waiters_too(self):
        sim = Simulator(cross_pair(), "wound-wait", failure_config())
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)
        site.request(1, x)
        # As _request_lock does, the requests' sites are recorded.
        sim.instance(0).lock_sites[x] = sim.instance(1).lock_sites[x] = (s1,)
        sim.instance(1).waiting[(x, s1)] = 0.0
        sim.crash_site("s1")
        assert sim.instance(0).status == _ABORTED
        assert sim.instance(1).status == _ABORTED
        assert sim.result.crash_aborts == 2
        assert site.involved() == []

    def test_prepared_transaction_survives_crash(self):
        """PREPARED state is on the write-ahead log: a crash must not
        abort the transaction nor free its retained locks."""
        sim = Simulator(
            cross_pair(),
            "wound-wait",
            failure_config(commit_protocol="two-phase"),
        )
        inst = sim.instance(0)
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)
        sim.mark_prepared(inst)
        inst.retained.add((x, s1))
        sim._retained_total += 1
        sim.crash_site("s1")
        assert inst.status == _PREPARED
        assert site.holder(x) == 0
        assert sim.result.crash_aborts == 0

    def test_issue_to_down_site_aborts(self):
        sim = Simulator(cross_pair(), "wound-wait", failure_config())
        sim.failures.mark_down("s1")
        inst = sim.instance(0)
        inst.issued |= 1
        sim._issue_one(inst, 0)  # T1's Lx lives at the down site s1
        assert inst.status == _ABORTED
        assert sim.result.crash_aborts == 1


class TestEndToEnd:
    def test_deterministic_under_seed(self):
        config = failure_config(
            seed=4, commit_protocol="two-phase", network_delay=0.5
        )
        a = simulate(cross_pair(), "wound-wait", config)
        b = simulate(cross_pair(), "wound-wait", config)
        assert a.end_time == b.end_time
        assert a.crashes == b.crashes
        assert a.aborts == b.aborts
        assert a.latencies == b.latencies
        assert a.commit_messages == b.commit_messages

    def test_failure_stream_does_not_disturb_arrivals(self):
        """The injector draws from a private RNG stream: start times
        and timestamps match the failure-free run exactly."""
        plain = Simulator(
            cross_pair(), "wound-wait", SimulationConfig(seed=9)
        )
        plain.run()
        faulty = Simulator(
            cross_pair(), "wound-wait", failure_config(seed=9)
        )
        faulty.run()
        assert [i.start_time for i in plain._instances] == [
            i.start_time for i in faulty._instances
        ]

    def test_crashes_happen_and_work_still_finishes(self):
        crashes = crash_aborts = 0
        for s in range(10):
            result = simulate(
                cross_pair(),
                "wound-wait",
                failure_config(
                    seed=s, failure_rate=0.05, repair_time=4.0,
                    commit_protocol="two-phase", network_delay=0.5,
                ),
            )
            assert result.committed == 2, f"seed {s}"
            assert result.serializable is True
            crashes += result.crashes
            crash_aborts += result.crash_aborts
        assert crashes > 0
        assert crash_aborts > 0

    def test_two_phase_with_crashes_shows_commit_costs(self):
        """The acceptance-criteria shape: crashes + 2PC produce nonzero
        prepared-blocked time and commit-phase latency."""
        blocked = commit_latency = 0.0
        for s in range(10):
            result = simulate(
                cross_pair(),
                "wound-wait",
                failure_config(
                    seed=s, failure_rate=0.05, repair_time=4.0,
                    commit_protocol="two-phase", network_delay=0.5,
                ),
            )
            blocked += result.prepared_block_time
            commit_latency += result.mean_commit_latency
        assert blocked > 0.0
        assert commit_latency > 0.0

    def test_run_ends_promptly_after_last_commit(self):
        """Trailing crash/recover events scheduled during the run must
        not drag end_time past the last piece of real work (they would
        deflate throughput and inflate the crash count)."""
        result = simulate(
            cross_pair(),
            "wound-wait",
            failure_config(
                seed=11, commit_protocol="two-phase", network_delay=0.5
            ),
        )
        assert result.committed == 2
        # Both transactions finish within ~50 time units; without the
        # early stop this seed ran on to the next crash at t~450.
        assert result.end_time < 100.0

    def test_successful_run_not_truncated_by_trailing_failures(self):
        """A fully committed run under a tight horizon must not be
        flagged truncated just because a future crash event lies past
        max_time."""
        for s in range(10):
            result = simulate(
                cross_pair(),
                "wound-wait",
                failure_config(
                    seed=s, commit_protocol="two-phase",
                    network_delay=0.5, max_time=60.0,
                ),
            )
            if result.committed == 2:
                assert not result.truncated, f"seed {s}"

    def test_instant_commit_unaffected_by_protocol_knobs(self):
        """commit_timeout/repair knobs are inert under instant+0 rate:
        results equal the default-config run bit for bit."""
        base = simulate(
            cross_pair(), "wait-die", SimulationConfig(seed=6)
        )
        tweaked = simulate(
            cross_pair(),
            "wait-die",
            SimulationConfig(
                seed=6, commit_timeout=99.0, repair_time=123.0
            ),
        )
        assert base.latencies == tweaked.latencies
        assert base.end_time == tweaked.end_time
        assert base.aborts == tweaked.aborts


class TestChainContinuation:
    """Every recovery schedules its site's next crash: a crash chain
    never ends itself, and only the run loop's stop rule ends the run
    (``tests/test_stop_rule.py``)."""

    def test_chain_survives_idle_open_system_gaps(self):
        """A recovery landing in an idle gap of a slow arrival process
        (everything injected so far committed, more traffic on the
        clock) must reschedule the site's next crash — otherwise fault
        injection silently dies early in any long low-rate run."""
        from repro.sim.workload import WorkloadSpec

        spec = WorkloadSpec(
            n_entities=8,
            n_sites=3,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            hotspot_skew=0.5,
        )
        config = SimulationConfig(
            seed=2,
            arrival_rate=0.01,  # idle gaps ~100 time units
            max_transactions=12,
            workload=spec,
            failure_rate=0.02,
            repair_time=5.0,
            commit_protocol="two-phase",
            network_delay=0.5,
        )
        sim = Simulator(TransactionSystem([]), "wound-wait", config)
        handlers = sim._registry._handlers
        idle_recoveries: list[float] = []
        crash_times: list[float] = []
        orig_recover = handlers["site_recover"]
        orig_crash = handlers["site_crash"]

        def on_recover(site):
            injected_all_done = (
                sim.result.committed >= sim.result.injected
                and not sim.arrivals.finished
            )
            if injected_all_done:
                idle_recoveries.append(sim._now)
            orig_recover(site)

        def on_crash(site):
            crash_times.append(sim._now)
            orig_crash(site)

        handlers["site_recover"] = on_recover
        handlers["site_crash"] = on_crash
        result = sim.run()
        assert result.committed == result.injected == 12
        # The kill-switch: if an idle-gap recovery ended its site's
        # chain, each of the 3 sites could contribute at most ONE such
        # recovery before fault injection died for the rest of the run.
        # A surviving chain produces them throughout the ~1200-unit
        # span (this seed yields ~80).
        assert len(idle_recoveries) > 3 * len(sim.site_names())
        # And crashes demonstrably continue after early idle gaps.
        assert sum(1 for t in crash_times if t > idle_recoveries[2]) > 10


class TestPartitionInterplay:
    """Partitions (repro.sim.network) and crashes compose: a
    partitioned site is unreachable but *up*, and a crash during a
    partition must still drain cleanly."""

    def _replicated(self):
        import random

        from repro.sim.workload import WorkloadSpec, random_system

        spec = WorkloadSpec(
            n_transactions=25,
            n_entities=10,
            n_sites=4,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            hotspot_skew=0.5,
            read_fraction=0.3,
            replication_factor=3,
        )
        return spec, random_system(random.Random(13), spec)

    def test_partitioned_site_is_not_crashed(self):
        """A partition episode alone marks nothing down: no crashes,
        no crash aborts, and every site reads as up throughout."""
        from repro.sim.network import NetworkConfig

        spec, system = self._replicated()
        sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=2,
                workload=spec,
                network_delay=0.5,
                replica_protocol="quorum",
                commit_protocol="paxos-commit",
                network=NetworkConfig(
                    partition_schedule=((5.0, 30.0, ("s0",)),)
                ),
            ),
        )
        # No failure injection: the up-flag path must never engage.
        assert sim.failures is None
        up_during_cut: list[bool] = []
        handlers = sim._registry._handlers
        orig_stop = handlers["net_partition_stop"]

        def on_stop(idx):
            up_during_cut.append(
                all(sim.site_is_up(s) for s in sim.site_names())
            )
            orig_stop(idx)

        handlers["net_partition_stop"] = on_stop
        result = sim.run()
        assert result.partitions == 1
        assert result.crashes == 0
        # Partition-induced aborts are *unavailability* (a documented
        # subset of crash_aborts), never actual-crash kills.
        assert result.crash_aborts == result.unavailable_aborts
        assert up_during_cut == [True]
        assert result.committed == result.total

    def test_crash_during_partition_still_drains(self):
        """Crashes composed with partition episodes: locks drain, every
        transaction commits, and both fault ledgers are populated."""
        from repro.sim.network import NetworkConfig

        spec, system = self._replicated()
        sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=4,
                workload=spec,
                network_delay=0.5,
                replica_protocol="quorum",
                commit_protocol="paxos-commit",
                failure_rate=0.01,
                repair_time=6.0,
                network=NetworkConfig(
                    loss_rate=0.05,
                    partition_schedule=((5.0, 25.0, ("s1",)),),
                ),
            ),
        )
        result = sim.run()
        assert not result.truncated
        assert result.committed == result.total
        assert result.partitions == 1
        for name, site in sim._sites.items():
            assert site.involved() == [], name
        for inst in sim._instances:
            assert inst.retained == set()
            assert inst.waiting == {}
