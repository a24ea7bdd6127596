"""Property tests for the replication subsystem.

Four invariant families from the PR's contract:

* lock-mode safety — shared grants never coexist with an exclusive
  grant, whatever request/release/cancel interleaving the lock table
  sees;
* quorum intersection — every write quorum the protocol can hand out
  intersects every read quorum it can hand out, whatever the up-sets
  (this is what lets quorum reads mask staleness);
* drained lock tables per mode — complete replicated runs (any
  protocol, shared and exclusive locks in play) leave every site's
  table empty;
* no stale reads — ``rowa-available`` never chooses a replica that
  missed a committed write, under arbitrary crash/recover/catch-up
  /write interleavings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim.locks import EXCLUSIVE, SHARED, SiteLockManager
from repro.sim.replication import make_replica_control
from repro.sim.replication.protocols import majority
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import seq

pytestmark = pytest.mark.properties

replica_protocols = st.sampled_from(["rowa", "rowa-available", "quorum"])


# ----------------------------------------------------------------------
# lock-mode safety
# ----------------------------------------------------------------------

lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "release", "cancel"]),
        st.integers(min_value=0, max_value=5),  # txn
        st.sampled_from(["x", "y"]),
        st.sampled_from([SHARED, EXCLUSIVE]),
    ),
    max_size=60,
)


def _check_lock_invariants(mgr: SiteLockManager) -> None:
    for entity in ("x", "y"):
        holders = mgr.holders(entity)
        mode = mgr.mode(entity)
        if mode == EXCLUSIVE:
            # An exclusive grant is always sole: no shared coexistence.
            assert len(holders) == 1
        waiters = mgr.waiters(entity)
        # FIFO queue holds no duplicates, and (upgrades aside) no
        # current holder waits for its own entity in shared mode.
        assert len(waiters) == len(set(waiters))


class TestLockModeSafety:
    @given(lock_ops)
    @settings(max_examples=60, deadline=None)
    def test_shared_never_coexists_with_exclusive(self, ops):
        mgr = SiteLockManager("s0")
        for action, txn, entity, mode in ops:
            try:
                if action == "request":
                    mgr.request(txn, entity, mode)
                elif action == "release":
                    mgr.release(txn, entity)
                else:
                    mgr.cancel_wait(txn, entity)
            except ValueError:
                pass  # double requests / foreign releases are caller bugs
            _check_lock_invariants(mgr)

    @given(lock_ops)
    @settings(max_examples=40, deadline=None)
    def test_releasing_everything_drains_the_table(self, ops):
        mgr = SiteLockManager("s0")
        for action, txn, entity, mode in ops:
            try:
                if action == "request":
                    mgr.request(txn, entity, mode)
                elif action == "release":
                    mgr.release(txn, entity)
                else:
                    mgr.cancel_wait(txn, entity)
            except ValueError:
                pass
        for txn in range(6):
            for entity in ("x", "y"):
                mgr.cancel_wait(txn, entity)
            mgr.release_all(txn)
        assert mgr.involved() == []


# ----------------------------------------------------------------------
# quorum intersection
# ----------------------------------------------------------------------

class TestQuorumIntersection:
    @given(
        st.integers(min_value=1, max_value=9),
        st.sets(st.integers(min_value=0, max_value=8)),
        st.sets(st.integers(min_value=0, max_value=8)),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_write_quorum_meets_any_read_quorum(
        self, n, up_at_write, up_at_read
    ):
        replicas = tuple(f"s{i}" for i in range(n))
        control = make_replica_control("quorum")
        write = control.write_sites(
            replicas, {f"s{i}" for i in up_at_write}
        )
        read = control.read_sites(
            replicas, {f"s{i}" for i in up_at_read}, frozenset()
        )
        if write is not None:
            assert len(write) == majority(n)
        if write is not None and read is not None:
            # The intersection property: a read quorum always contains
            # a replica of every earlier committed write.
            assert set(write) & set(read)

    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(
            st.sets(st.integers(min_value=0, max_value=6)), max_size=8
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_committed_writes_visible_to_all_later_reads(
        self, n, up_sets
    ):
        """Every committed write's quorum intersects every subsequent
        read quorum, across an arbitrary up/down history."""
        replicas = tuple(f"s{i}" for i in range(n))
        control = make_replica_control("quorum")
        committed: list[set[str]] = []
        for up_ids in up_sets:
            up = {f"s{i}" for i in up_ids}
            write = control.write_sites(replicas, up)
            if write is not None:
                committed.append(set(write))
            read = control.read_sites(replicas, up, frozenset())
            if read is not None:
                for write_quorum in committed:
                    assert write_quorum & set(read)


# ----------------------------------------------------------------------
# lock tables drain per mode (end to end)
# ----------------------------------------------------------------------

class TestReplicatedRunsDrain:
    @given(
        st.integers(min_value=0, max_value=2_000),
        replica_protocols,
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lock_tables_drain_and_accounting_balances(
        self, seed, protocol, factor, read_fraction
    ):
        spec = WorkloadSpec(
            n_transactions=5,
            n_entities=5,
            n_sites=3,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            shape="two_phase",
            read_fraction=read_fraction,
            replication_factor=factor,
        )
        system = random_system(random.Random(seed), spec)
        sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=seed, workload=spec, replica_protocol=protocol,
            ),
        )
        result = sim.run()
        assert result.committed == len(system)
        assert not result.deadlocked
        assert sum(result.aborts_by_cause.values()) == result.aborts
        assert result.serializable is True
        for site in sim.lock_tables().values():
            assert site.involved() == [], (protocol, factor, site)
        # Failure-free runs are fully available under every protocol
        # (up to float accumulation in the time integral).
        assert result.availability >= 1.0 - 1e-9


# ----------------------------------------------------------------------
# rowa-available never reads a stale replica
# ----------------------------------------------------------------------

def _manager_sim():
    schema = DatabaseSchema.from_groups(
        {"s0": ["x"], "s1": ["y"], "s2": ["z"]}
    )
    # One single-entity writer per entity, so a simulated write to any
    # entity can ride the real on_commit bookkeeping of its writer.
    system = TransactionSystem([
        seq("Tx", ["Lx", "Ux"], schema),
        seq("Ty", ["Ly", "Uy"], schema),
        seq("Tz", ["Lz", "Uz"], schema),
    ])
    spec = WorkloadSpec(n_sites=3, n_entities=3, replication_factor=3)
    return Simulator(
        system,
        "wound-wait",
        SimulationConfig(
            workload=spec,
            replica_protocol="rowa-available",
            failure_rate=0.0001,  # create the injector; never fires
            max_time=1.0,
        ),
    )


manager_events = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover", "catchup", "write"]),
        st.sampled_from(["s0", "s1", "s2"]),
        st.sampled_from(["x", "y", "z"]),
    ),
    max_size=40,
)


class TestRowaAvailableNeverReadsStale:
    @given(manager_events)
    @settings(max_examples=60, deadline=None)
    def test_read_choice_never_missed_a_write(self, events):
        sim = _manager_sim()
        manager = sim.replicas
        injector = sim.failures
        down: set[str] = set()
        for kind, site, entity in events:
            if kind == "crash" and site not in down:
                manager.on_crash(site)
                injector.mark_down(site)
                down.add(site)
            elif kind == "recover" and site in down:
                manager.on_recover(site)
                injector.mark_up(site)
                down.discard(site)
            elif kind == "catchup" and site not in down:
                manager._on_catchup(site)
            elif kind == "write":
                reached = manager.write_sites(entity)
                if reached is None:
                    continue
                writer = {"x": 0, "y": 1, "z": 2}[entity]
                inst = sim.instance(writer)
                inst.lock_sites = {
                    sim.entity_id(entity): tuple(
                        sim.site_id(s) for s in reached
                    )
                }
                # Commit the write through the real bookkeeping hook.
                manager.on_commit(inst)
            for probe in ("x", "y", "z"):
                chosen = manager.read_sites(probe)
                if chosen is None:
                    continue
                missed = manager.missed_replicas(probe)
                stale = manager.stale_replicas(probe)
                assert not (set(chosen) & missed), (probe, chosen, missed)
                assert not (set(chosen) & stale), (probe, chosen, stale)
                assert all(s not in down for s in chosen)
