"""Recovery conformance: a crash-point harness over the durability
model.

Parametrized over the forcing commit protocols x
``replica_control_names()``. For each cell a fault-free run first
enumerates the forced-write boundaries (every
:meth:`~repro.sim.durability.DurabilityManager.force` call); the
harness then re-runs the same workload, crashing the forcing site at
each sampled boundary twice — once *during* the flush (0.5 x
``flush_time`` after the force was issued, so the record is lost and
the cancel hook must re-arm the protocol) and once *after* it (1.5 x
``flush_time``, so the record is durable and recovery must replay it).
Every crashed run must satisfy the recovery invariants:

* atomicity: every transaction ends committed exactly once, with the
  latency ledgers agreeing — a crash at any force boundary may delay
  but never corrupt the decision;
* recovery replay is exact: before each replay the manager's
  log-implied lock set equals one derived from the site's whole log
  and the instance states (``tests.helpers.log_implied_locks``), and
  each recovery report's re-acquired lock set equals the log-implied
  set (no lock resurrected without a durable prepare record, none
  implied by the log left unheld);
* each replay counts one ``in_doubt_resolved`` per presumed entry;
* in-doubt resolution terminates: the in-doubt set is empty at drain
  and every opened entry was resolved (by decision, status answer, or
  presumption);
* lock tables drain and ``aborts_by_cause`` partitions ``aborts``.

The boundary count is capped per cell (evenly spread over the force
sequence) to keep the battery fast; the cap is generous enough to
cover prepare, decision, release, accept, and ballot records in every
protocol.
"""

import random

import pytest

from repro.sim.commit import protocol_names
from repro.sim.durability import DurabilityConfig
from repro.sim.replication import replica_control_names
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import (
    check_presumptions_count_once,
    log_implied_locks,
)

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
#: crash-point boundaries sampled per (cell, offset); spread evenly.
MAX_CRASH_POINTS = 6
#: crash instants relative to the force call, in flush_time units:
#: mid-flush (record lost, cancel hook fires) and post-flush (record
#: durable, recovery must replay it).
OFFSETS = (0.5, 1.5)

FORCING_PROTOCOLS = [p for p in protocol_names() if p != "instant"]


def _config(protocol, replica, seed=2):
    return SimulationConfig(
        seed=seed,
        workload=SPEC,
        commit_protocol=protocol,
        replica_protocol=replica,
        network_delay=0.5,
        commit_timeout=6.0,
        # Registers the injector (and its site_crash handler) without
        # ever firing a spontaneous crash within the run horizon.
        failure_rate=1e-9,
        repair_time=2.0,
        durability=DurabilityConfig(flush_time=FLUSH),
    )


def _simulator(protocol, replica):
    system = random_system(random.Random(13), SPEC)
    return Simulator(system, "wound-wait", _config(protocol, replica))


def _count_forces(protocol, replica):
    """The fault-free run's force count — the crash-point space."""
    sim = _simulator(protocol, replica)
    calls = [0]
    orig = sim.durability.force

    def counting(site, record, cont, cancel=None):
        calls[0] += 1
        orig(site, record, cont, cancel)

    sim.durability.force = counting
    result = sim.run()
    assert result.committed == result.total
    assert calls[0] > 0, "cell never forced a record"
    return calls[0]


def _crash_points(total):
    """Up to MAX_CRASH_POINTS boundaries, spread over [1, total]."""
    if total <= MAX_CRASH_POINTS:
        return list(range(1, total + 1))
    step = total / MAX_CRASH_POINTS
    points = {round((i + 1) * step) for i in range(MAX_CRASH_POINTS)}
    return sorted(max(1, min(total, p)) for p in points)


def _crash_run(protocol, replica, target, offset):
    """One run, crashing the forcing site at force boundary ``target``."""
    sim = _simulator(protocol, replica)
    dur = sim.durability
    orig = dur.force
    fired = [0]

    def crashing(site, record, cont, cancel=None):
        fired[0] += 1
        if fired[0] == target:
            sim.schedule(offset * FLUSH, ("site_crash", site))
        orig(site, record, cont, cancel)

    dur.force = crashing
    check_presumptions_count_once(sim)
    recover = dur.on_site_recover

    def checked_recover(site):
        assert dur.log_implied_locks(site) == log_implied_locks(
            sim, site
        ), (protocol, replica, target, offset, site)
        recover(site)

    dur.on_site_recover = checked_recover
    result = sim.run()
    assert fired[0] >= target, (protocol, replica, target, offset)
    return sim, result


def crashed_runs(protocol, replica):
    """Yield (sim, result) for every sampled crash point x offset."""
    total = _count_forces(protocol, replica)
    for target in _crash_points(total):
        for offset in OFFSETS:
            yield _crash_run(protocol, replica, target, offset)


@pytest.mark.parametrize("replica", replica_control_names())
@pytest.mark.parametrize("protocol", FORCING_PROTOCOLS)
class TestRecoveryConformance:
    def test_crash_points_hold_invariants(self, protocol, replica):
        saw_recovery = False
        for sim, result in crashed_runs(protocol, replica):
            tag = (protocol, replica, result.crashes)
            assert not result.truncated, tag
            assert not result.deadlocked, tag
            # The final boundary's post-flush crash can land after the
            # run already drained (the last release completed): that
            # is a finished run, not a missed crash.
            assert result.crashes <= 1, tag
            if result.crashes == 0:
                assert sim.durability.recovery_reports == []

            # Atomicity: everything committed exactly once, ledgers
            # agree with the instance states.
            statuses = [inst.status for inst in sim._instances]
            assert all(status is _COMMITTED for status in statuses), tag
            assert result.committed == result.total == len(statuses)
            assert len(result.latencies) == result.committed
            assert len(result.commit_latencies) == result.committed

            # Locks drain: no retained entries, no queued waiters, no
            # re-acquired recovery locks left behind.
            for inst in sim._instances:
                assert inst.retained == set(), tag
                assert inst.waiting == {}, tag
            for name, site in sim._sites.items():
                assert site.involved() == [], tag + (name,)

            # Recovery replay is exact: re-acquired == log-implied.
            dur = sim.durability
            for report in dur.recovery_reports:
                assert report["reacquired"] == report["implied"], (
                    tag, report
                )
                saw_recovery = saw_recovery or report["in_doubt"] > 0

            # In-doubt resolution terminated.
            assert dur.in_doubt() == set(), tag
            assert result.in_doubt_resolved >= 0

            # Abort attribution partitions exactly.
            assert sum(result.aborts_by_cause.values()) == result.aborts

            # The harness exercised the log.
            assert result.log_forces > 0, tag
        # Across the sampled boundaries at least one crash landed on a
        # durable-but-undecided prepare: the in-doubt path ran.
        assert saw_recovery, (protocol, replica)


class TestInstantCommitUnderDurability:
    """Instant commit never forces: attach-but-idle must stay safe."""

    def test_no_forces_and_everything_commits(self):
        sim = _simulator("instant", "rowa")
        result = sim.run()
        assert result.committed == result.total
        assert result.log_forces == 0
        assert result.log_replays == 0
        assert sim.durability.in_doubt() == set()
