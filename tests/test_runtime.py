"""Tests for the discrete-event simulator (repro.sim.runtime)."""

import dataclasses

import pytest

from repro.sim.runtime import (
    _ABORTED,
    _RUNNING,
    SimulationConfig,
    Simulator,
    find_deadlocking_seed,
    simulate,
)
from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem

from tests.helpers import seq


def deadlock_pair() -> TransactionSystem:
    schema = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ly", "Ux", "Uy"], schema),
            seq("T2", ["Ly", "Lx", "Uy", "Ux"], schema),
        ]
    )


def disjoint_pair() -> TransactionSystem:
    schema = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})
    return TransactionSystem(
        [
            seq("T1", ["Lx", "A.x", "Ux"], schema),
            seq("T2", ["Ly", "A.y", "Uy"], schema),
        ]
    )


def _find_deadlock_seed(system, policy="blocking", tries=60) -> int | None:
    """A seed whose arrival order actually triggers the deadlock."""
    for seed in range(tries):
        result = simulate(system, policy, SimulationConfig(seed=seed))
        if result.deadlocked:
            return seed
    return None


class TestConfigValidation:
    """SimulationConfig rejects out-of-range rate/duration parameters
    (mirroring WorkloadSpec's validation)."""

    @pytest.mark.parametrize(
        "field",
        [
            "network_delay", "commit_timeout", "failure_rate", "repair_time",
            "service_time", "arrival_spread", "restart_delay",
            "restart_jitter", "timeout", "arrival_rate", "max_transactions",
        ],
    )
    def test_negative_value_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: -0.5})

    @pytest.mark.parametrize(
        "field", ["commit_timeout", "catchup_time", "detection_interval"]
    )
    def test_zero_period_rejected(self, field):
        # A zero period re-arms its chain at the same instant until
        # max_events runs out.
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            SimulationConfig(**{field: 0.0})

    def test_zero_values_accepted(self):
        config = SimulationConfig(
            network_delay=0.0, failure_rate=0.0, repair_time=0.0,
            service_time=0.0, arrival_spread=0.0, restart_delay=0.0,
            restart_jitter=0.0, timeout=0.0, arrival_rate=0.0,
            max_transactions=0,
        )
        assert config.network_delay == 0.0

    def test_defaults_valid(self):
        SimulationConfig()  # must not raise

    def test_durability_negative_flush_time_rejected(self):
        from repro.sim.durability import DurabilityConfig

        with pytest.raises(ValueError, match="flush_time"):
            DurabilityConfig(flush_time=-0.1)

    @pytest.mark.parametrize(
        "field", ["tail_loss_rate", "torn_write_rate", "amnesia_rate"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_durability_rates_bounded(self, field, value):
        from repro.sim.durability import DurabilityConfig

        with pytest.raises(ValueError, match=field):
            DurabilityConfig(**{field: value})

    def test_durability_defaults_valid(self):
        from repro.sim.durability import DurabilityConfig

        config = DurabilityConfig()
        assert config.flush_time == 0.5
        assert config.tail_loss_rate == 0.0
        # Zero flush time (instant, infallible disk) is legal.
        DurabilityConfig(flush_time=0.0)


class TestBasicRuns:
    def test_disjoint_commits(self):
        result = simulate(disjoint_pair(), "blocking")
        assert result.committed == 2
        assert not result.deadlocked
        assert result.aborts == 0
        assert result.serializable is True
        assert result.throughput > 0

    def test_single_transaction(self):
        system = TransactionSystem([seq("T", ["Lx", "A.x", "Ux"])])
        result = simulate(system, "blocking")
        assert result.committed == 1
        assert result.latencies[0] >= 0

    def test_deterministic_under_seed(self):
        a = simulate(deadlock_pair(), "wound-wait", SimulationConfig(seed=4))
        b = simulate(deadlock_pair(), "wound-wait", SimulationConfig(seed=4))
        assert a.end_time == b.end_time
        assert a.aborts == b.aborts


class TestBlockingDeadlock:
    def test_deadlock_reached_and_reported(self):
        seed = _find_deadlock_seed(deadlock_pair())
        assert seed is not None, "no seed triggered the deadlock"
        result = simulate(
            deadlock_pair(), "blocking", SimulationConfig(seed=seed)
        )
        assert result.deadlocked
        assert set(result.deadlock_cycle) == {0, 1}
        assert result.committed < 2

    def test_trace_of_deadlocked_run_still_legal(self):
        seed = _find_deadlock_seed(deadlock_pair())
        sim = Simulator(
            deadlock_pair(), "blocking", SimulationConfig(seed=seed)
        )
        result = sim.run()
        assert result.deadlocked
        # the partial progress must replay as a legal schedule
        assert result.serializable is not None


class TestPreventionPolicies:
    @pytest.mark.parametrize("policy", ["wound-wait", "wait-die"])
    def test_rsl_policies_always_commit(self, policy):
        for seed in range(25):
            result = simulate(
                deadlock_pair(), policy, SimulationConfig(seed=seed)
            )
            assert not result.deadlocked, f"{policy} seed {seed}"
            assert result.committed == 2, f"{policy} seed {seed}"
            assert result.serializable is True

    def test_wound_wait_counts_wounds(self):
        total = sum(
            simulate(
                deadlock_pair(), "wound-wait", SimulationConfig(seed=s)
            ).wounds
            for s in range(25)
        )
        assert total > 0

    def test_wait_die_counts_deaths(self):
        total = sum(
            simulate(
                deadlock_pair(), "wait-die", SimulationConfig(seed=s)
            ).deaths
            for s in range(25)
        )
        assert total > 0


class TestTimeoutAndDetection:
    def test_timeout_resolves_deadlock(self):
        seed = _find_deadlock_seed(deadlock_pair())
        result = simulate(
            deadlock_pair(), "timeout", SimulationConfig(seed=seed)
        )
        assert not result.deadlocked
        assert result.committed == 2
        assert result.timeouts > 0

    def test_detection_resolves_deadlock(self):
        seed = _find_deadlock_seed(deadlock_pair())
        result = simulate(
            deadlock_pair(), "detect", SimulationConfig(seed=seed)
        )
        assert not result.deadlocked
        assert result.committed == 2
        assert result.detected > 0


class TestFastPathSurface:
    """The interning/caching surface added by the fast-path refactor."""

    def test_entity_and_site_ids_follow_sorted_order(self):
        sim = Simulator(deadlock_pair(), "blocking")
        entities = sorted(sim.system.schema.entities)
        sites = sorted(sim.system.schema.sites)
        assert [sim.entity_id(e) for e in entities] == list(
            range(len(entities))
        )
        assert [sim.site_id(s) for s in sites] == list(range(len(sites)))
        for e in entities:
            assert sim.entity_name(sim.entity_id(e)) == e
        for s_name in sites:
            assert sim.site_name(sim.site_id(s_name)) == s_name

    def test_lock_tables_is_cached_readonly_view(self):
        sim = Simulator(deadlock_pair(), "blocking")
        view = sim.lock_tables()
        assert sim.lock_tables() is view  # no per-call copy
        with pytest.raises(TypeError):
            view["s1"] = None  # read-only
        assert set(view) == set(sim.system.schema.sites)

    def test_site_names_is_cached(self):
        sim = Simulator(deadlock_pair(), "blocking")
        names = sim.site_names()
        assert sim.site_names() is names
        assert list(names) == sorted(sim.system.schema.sites)

    def test_deadlock_free_policies_skip_graph_tracking(self):
        for policy in ("wound-wait", "wait-die", "timeout"):
            assert Simulator(deadlock_pair(), policy)._waits_for is None
        for policy in ("blocking", "detect"):
            assert (
                Simulator(deadlock_pair(), policy)._waits_for is not None
            )

    def test_trace_entries_are_bare_and_replayable(self):
        # The trace is appended in dispatch order — which *is*
        # (time, seq) order — so entries carry only (txn, node,
        # attempt), and the committed replay is a legal Schedule
        # without any re-sorting.
        sim = Simulator(deadlock_pair(), "wound-wait")
        sim.run()
        assert sim._trace
        assert all(len(entry) == 3 for entry in sim._trace)
        n = len(sim.system)
        assert all(0 <= txn < n for txn, _node, _att in sim._trace)
        sim.committed_schedule()  # replays without IllegalScheduleError


class TestTraceReplay:
    def test_committed_schedule_replays(self):
        sim = Simulator(disjoint_pair(), "blocking")
        sim.run()
        schedule = sim.committed_schedule()
        assert schedule.is_complete()

    def test_committed_schedule_after_aborts(self):
        seed = _find_deadlock_seed(deadlock_pair())
        for policy in ("wound-wait", "wait-die", "timeout", "detect"):
            sim = Simulator(
                deadlock_pair(), policy, SimulationConfig(seed=seed)
            )
            result = sim.run()
            assert result.committed == 2
            schedule = sim.committed_schedule()
            assert schedule.is_complete()


class TestStaleGrants:
    """The defensive path of Simulator._on_grant: a grant delivered to
    a transaction that is not actually waiting must hand the lock back
    instead of wedging the site."""

    def test_stale_grant_to_non_waiter_returns_lock(self):
        sim = Simulator(deadlock_pair(), "blocking")
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)  # T0 holds x but never recorded a wait
        sim._on_grant(0, x, s1)
        assert site.holder(x) is None
        assert site.involved() == []

    def test_stale_grant_to_aborted_transaction_returns_lock(self):
        sim = Simulator(deadlock_pair(), "blocking")
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)
        inst = sim.instance(0)
        inst.status = _ABORTED
        # even a recorded wait must not revive it
        inst.waiting[(x, s1)] = 0.0
        sim._on_grant(0, x, s1)
        assert site.holder(x) is None

    def test_stale_grant_passes_lock_to_real_waiter(self):
        sim = Simulator(deadlock_pair(), "blocking")
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(0, x)
        site.request(1, x)  # T1 queues behind the phantom holder
        sim.instance(1).waiting[(x, s1)] = 0.0
        sim._on_grant(0, x, s1)  # stale for T0, re-granted to T1
        assert site.holder(x) == 1
        assert (x, s1) not in sim.instance(1).waiting


class TestReevaluateWaiters:
    """Re-running the conflict rule after a grant: an old waiter must
    wound the young transaction that just inherited the lock."""

    def _three_on_x(self) -> TransactionSystem:
        schema = DatabaseSchema.from_groups({"s1": ["x"]})
        return TransactionSystem(
            [
                seq("T1", ["Lx", "Ux"], schema),
                seq("T2", ["Lx", "Ux"], schema),
                seq("T3", ["Lx", "Ux"], schema),
            ]
        )

    def test_wound_wait_wounds_newly_granted_holder(self):
        sim = Simulator(self._three_on_x(), "wound-wait")
        old, young, holder = (
            sim.instance(0), sim.instance(1), sim.instance(2)
        )
        old.timestamp, young.timestamp, holder.timestamp = 1.0, 9.0, 5.0
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(2, x)
        site.request(1, x)  # FIFO: the young transaction is first
        site.request(0, x)
        young.waiting[(x, s1)] = 0.0
        old.waiting[(x, s1)] = 0.0
        granted = site.release(2, x)
        assert granted == [1]
        sim._on_grant(1, x, s1)
        # The young grantee was wounded by the old waiter behind it and
        # the lock moved on to the old transaction.
        assert young.status == _ABORTED
        assert sim.result.wounds == 1
        assert site.holder(x) == 0
        assert old.status == _RUNNING

    def test_wait_die_kills_young_waiter_behind_new_holder(self):
        sim = Simulator(self._three_on_x(), "wait-die")
        old, young, holder = (
            sim.instance(0), sim.instance(1), sim.instance(2)
        )
        old.timestamp, young.timestamp, holder.timestamp = 1.0, 9.0, 5.0
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(2, x)
        site.request(0, x)  # the old transaction is granted next
        site.request(1, x)
        old.waiting[(x, s1)] = 0.0
        young.waiting[(x, s1)] = 0.0
        granted = site.release(2, x)
        assert granted == [0]
        sim._on_grant(0, x, s1)
        assert young.status == _ABORTED
        assert sim.result.deaths == 1
        assert site.holder(x) == 0


class TestFindDeadlockingSeed:
    def test_base_config_fields_carry_over(self, monkeypatch):
        """Every attempted config must be the base with only the seed
        swapped — spied at the simulate() boundary so a regression to
        field-by-field copying (dropping new fields) is caught."""
        import repro.sim.runtime as runtime

        base = SimulationConfig(
            service_time=0.5, network_delay=0.3, commit_timeout=9.0
        )
        seen: list[SimulationConfig] = []
        real_simulate = runtime.simulate

        def spy(system, policy, config):
            seen.append(config)
            return real_simulate(system, policy, config)

        monkeypatch.setattr(runtime, "simulate", spy)
        found = find_deadlocking_seed(
            deadlock_pair(), max_seeds=40, config=base
        )
        assert found is not None
        _seed, result = found
        assert result.deadlocked
        assert seen
        for i, config in enumerate(seen):
            assert config == dataclasses.replace(base, seed=i)


class TestDetectorRescheduling:
    def test_detector_stops_when_no_progress_is_possible(self):
        """Once every remaining event lies beyond max_time, further
        scans are useless: the detector must stop instead of padding
        the queue with one no-op scan per interval up to the horizon.

        Here the deadlock victim's restart lands far past max_time, so
        after the survivor commits nothing can happen any more — yet
        one transaction stays uncommitted, which under the old rule
        kept the scan chain alive for ~125 intervals.
        """
        seed = _find_deadlock_seed(deadlock_pair())
        config = SimulationConfig(
            seed=seed, max_time=1_000.0, detection_interval=8.0,
            restart_delay=5_000.0,
        )
        sim = Simulator(deadlock_pair(), "detect", config)
        result = sim.run()
        assert result.committed == 1  # the victim can never restart
        assert result.truncated  # the restart event breaches max_time
        assert sim._events_processed < 30
        assert result.end_time < 100.0

    def test_detection_never_reports_permanent_deadlock(self):
        """If the scan chain stops at a tight time budget and the
        queue then drains with a cycle standing, the run is truncated
        — deadlocked stays a blocking-policy-only verdict."""
        for seed in range(40):
            result = simulate(
                deadlock_pair(),
                "detect",
                SimulationConfig(
                    seed=seed, max_time=30.0, detection_interval=8.0
                ),
            )
            assert not result.deadlocked, f"seed {seed}"
            if result.committed < 2:
                assert result.truncated

    def test_detector_still_breaks_cycles(self):
        seed = _find_deadlock_seed(deadlock_pair())
        result = simulate(
            deadlock_pair(), "detect", SimulationConfig(seed=seed)
        )
        assert result.committed == 2
        assert result.detected > 0


class TestBudgets:
    def test_max_events_truncates(self):
        config = SimulationConfig(seed=0, max_events=3)
        result = simulate(deadlock_pair(), "blocking", config)
        assert result.truncated

    def test_max_time_truncates(self):
        config = SimulationConfig(seed=0, max_time=0.5)
        result = simulate(deadlock_pair(), "blocking", config)
        assert result.truncated or result.end_time <= 0.5
