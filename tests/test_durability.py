"""Unit and fault-composition tests for the durability model.

The crash-point conformance battery lives in
``test_recovery_conformance.py``; this file covers the mechanics the
battery relies on (force/flush timing, crash cancellation, the storage
fault draws) and the compositions with the other fault layers the
battery does not reach: a site crashing *again* mid-recovery while its
in-doubt inquiries are still open, and partitions cutting the inquiry
conversation (the ``dur_requery`` chain must ride through on
suspicion-driven retry without ever double-deciding).
"""

import heapq
import random

import pytest

from repro.core.system import TransactionSystem
from repro.sim.commit import protocol_names
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import check_presumptions_count_once

SPEC = WorkloadSpec(
    n_transactions=8,
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.3,
    replication_factor=2,
)

FLUSH = 0.5


def _simulator(protocol="two-phase", replica="rowa", seed=2, **kwargs):
    system = random_system(random.Random(13), SPEC)
    durability = kwargs.pop("durability", DurabilityConfig(flush_time=FLUSH))
    return Simulator(
        system,
        "wound-wait",
        SimulationConfig(
            seed=seed,
            workload=SPEC,
            commit_protocol=protocol,
            replica_protocol=replica,
            network_delay=0.5,
            commit_timeout=6.0,
            durability=durability,
            **kwargs,
        ),
    )


def _dispatch_until(sim, t):
    """Manually drain the event queue up to simulated time ``t``."""
    heap = sim._queue._heap
    while heap and heap[0][0] <= t + 1e-12:
        time, _seq, payload = heapq.heappop(heap)
        if time > sim._now:
            sim._now = time
        sim._registry.dispatch(payload)


def _assert_converged(sim, result):
    assert not result.truncated
    assert result.committed == result.total
    for inst in sim._instances:
        assert inst.status is _COMMITTED
        assert inst.retained == set()
    for name, site in sim._sites.items():
        assert site.involved() == [], name
    assert sim.durability.in_doubt() == set()
    assert sum(result.aborts_by_cause.values()) == result.aborts


class TestWiring:
    def test_unset_config_attaches_nothing(self):
        sim = _simulator(durability=None)
        assert sim.durability is None

    def test_config_attaches_manager(self):
        sim = _simulator()
        assert sim.durability is not None
        assert sim.durability.config.flush_time == FLUSH

    def test_forces_cost_simulated_time(self):
        base = _simulator(durability=None).run()
        forced = _simulator().run()
        assert forced.log_forces > 0
        assert forced.end_time > base.end_time


class TestForceMechanics:
    def test_force_is_durable_after_flush_time(self):
        sim = _simulator()
        dur = sim.durability
        ran = []
        dur.force("s0", ("prepare", 0, 0, ()), lambda: ran.append(1))
        assert dur.log("s0") == ()
        assert dur.flush_pending("s0", ("prepare", 0, 0, ()))
        assert not ran
        _dispatch_until(sim, FLUSH)
        assert dur.log("s0") == (("prepare", 0, 0, ()),)
        assert dur.has_prepare("s0", 0, 0)
        assert ran == [1]
        assert not dur.flush_pending("s0", ("prepare", 0, 0, ()))

    def test_crash_cancels_in_flight_flush(self):
        sim = _simulator()
        dur = sim.durability
        ran, cancelled = [], []
        dur.force(
            "s0", ("prepare", 0, 0, ()),
            lambda: ran.append(1), lambda: cancelled.append(1),
        )
        dur.on_site_crash("s0")
        _dispatch_until(sim, FLUSH)
        # The record never became durable; the cancel hook fired once
        # and the orphaned heap event was swallowed.
        assert dur.log("s0") == ()
        assert ran == []
        assert cancelled == [1]
        assert sim.result.log_forces == 0


class TestFaultDraws:
    def _durable(self, sim, site, records):
        dur = sim.durability
        for record in records:
            dur.force(site, record, lambda: None)
        _dispatch_until(sim, FLUSH)
        assert len(dur.log(site)) == len(records)
        return dur

    RECORDS = (
        ("prepare", 0, 0, ()),
        ("decision", 0, 0, "commit"),
        ("prepare", 1, 0, ()),
    )

    def test_tail_loss_drops_newest_record(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0
            )
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == self.RECORDS[:-1]
        assert sim.result.tail_losses == 1
        assert not dur.has_prepare("s0", 1, 0)

    def test_torn_write_then_tail_loss_compose(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0, torn_write_rate=1.0
            )
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == self.RECORDS[:1]
        assert sim.result.torn_writes == 1
        assert sim.result.tail_losses == 1

    def test_amnesia_wipes_whole_log(self):
        sim = _simulator(
            durability=DurabilityConfig(flush_time=FLUSH, amnesia_rate=1.0)
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == ()
        assert sim.result.amnesia_wipes == 1
        assert not dur.has_prepare("s0", 0, 0)
        assert not dur.has_decision("s0", 0, 0)

    def test_empty_log_draws_nothing(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0, amnesia_rate=1.0
            )
        )
        state = sim.durability._rng.getstate()
        sim.durability.on_site_crash("s0")
        # No log, no draw: the fault stream stays untouched.
        assert sim.durability._rng.getstate() == state


def _open_two_phase(**overrides):
    """An open two-phase run over replicated entities with crashes."""
    config = dict(
        arrival_rate=0.5,
        max_transactions=60,
        workload=WorkloadSpec(
            n_entities=16,
            n_sites=4,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            hotspot_skew=0.4,
            replication_factor=2,
        ),
        seed=1,
        workload_seed=1,
        network_delay=0.5,
        commit_protocol="two-phase",
        replica_protocol="rowa-available",
        durability=DurabilityConfig(flush_time=FLUSH),
        failure_rate=0.05,
        repair_time=1.0,
    )
    config.update(overrides)
    return Simulator(
        TransactionSystem([]), "wound-wait", SimulationConfig(**config)
    )


class TestPresumption:
    def test_each_presumed_state_counts_once(self):
        # Short, frequent outages re-crash sites whose previous replay
        # left in-doubt entries open. A replay that then presumes such
        # an entry resolves one participant state: it counts once.
        sim = _open_two_phase()
        replayed = check_presumptions_count_once(sim)
        result = sim.run()
        assert result.committed == result.total
        assert len(replayed) == result.log_replays
        assert any(report["presumed"] for report in replayed)


class _UnreadableLog(list):
    """A log that appends and pops but refuses to be read whole."""

    def __iter__(self):
        raise AssertionError("the whole log was read")


class TestReplayCost:
    def test_crash_and_recovery_read_no_whole_log(self):
        # Without disk faults no record is ever dropped, so no crash
        # or recovery has a reason to read a site's whole log.
        sim = _open_two_phase(
            failure_rate=0.02, repair_time=5.0, max_transactions=80
        )
        dur = sim.durability
        for sid in range(len(dur._logs)):
            dur._logs[sid] = _UnreadableLog()
        result = sim.run()
        assert result.crashes > 0
        assert result.log_replays > 0
        assert result.committed == result.total


def _crash_at_first_durable_prepare(sim):
    """Arm a crash 1.5 flushes after the first prepare-record force.

    The prepare becomes durable at +1.0 flush and the crash lands at
    +1.5 with the decision still at least a network round trip away:
    recovery is guaranteed an in-doubt participant.
    """
    dur = sim.durability
    orig = dur.force
    armed = [False]

    def arming(site, record, cont, cancel=None):
        if record[0] == "prepare" and not armed[0]:
            armed[0] = True
            sim.schedule(1.5 * FLUSH, ("site_crash", site))
        orig(site, record, cont, cancel)

    dur.force = arming


@pytest.mark.parametrize(
    "protocol", [p for p in protocol_names() if p != "instant"]
)
class TestCrashDuringRecovery:
    """A second crash while the first recovery's inquiries are open."""

    def test_double_crash_still_converges(self, protocol):
        sim = _simulator(protocol, failure_rate=1e-9, repair_time=2.0)
        dur = sim.durability
        _crash_at_first_durable_prepare(sim)
        orig_recover = dur.on_site_recover
        re_crashed = [0]

        def recover_and_recrash(site):
            orig_recover(site)
            if dur.in_doubt(site) and re_crashed[0] < 1:
                # The replay just re-opened in-doubt inquiries: crash
                # again before any answer can arrive (the round trip
                # takes a full network delay).
                re_crashed[0] += 1
                sim.schedule(0.1, ("site_crash", site))

        dur.on_site_recover = recover_and_recrash
        result = sim.run()
        assert result.crashes == 2
        assert re_crashed[0] == 1
        # The interrupted recovery replayed again and resolved.
        assert result.log_replays >= 2
        assert len(dur.recovery_reports) >= 2
        assert result.in_doubt_resolved >= 1
        _assert_converged(sim, result)

    def test_single_crash_resolves_in_doubt(self, protocol):
        sim = _simulator(protocol, failure_rate=1e-9, repair_time=2.0)
        _crash_at_first_durable_prepare(sim)
        result = sim.run()
        assert result.crashes == 1
        assert result.log_replays >= 1
        reports = sim.durability.recovery_reports
        assert any(r["in_doubt"] > 0 for r in reports)
        assert result.in_doubt_resolved >= 1
        _assert_converged(sim, result)


@pytest.mark.parametrize(
    "protocol", [p for p in protocol_names() if p != "instant"]
)
class TestPartitionDuringInquiry:
    """Partitions cut the in-doubt conversation; requeries ride it out."""

    def test_inquiry_survives_partition(self, protocol):
        sim = _simulator(
            protocol,
            "quorum",
            failure_rate=1e-9,
            repair_time=2.0,
            network=NetworkConfig(
                # Poisson cuts throughout the run: some land on the
                # inquiry window, suppressing answers until the heal.
                partition_rate=0.05,
                partition_duration=8.0,
            ),
        )
        _crash_at_first_durable_prepare(sim)
        result = sim.run()
        assert result.crashes == 1
        assert result.log_replays >= 1
        # No split-brain: every transaction decided exactly once and
        # the in-doubt set drained despite the cuts.
        _assert_converged(sim, result)
