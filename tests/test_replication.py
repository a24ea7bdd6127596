"""Tests for repro.sim.replication: schema, protocols, manager,
runtime integration."""

import random

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.sim.replication import (
    MajorityQuorum,
    ReadOneWriteAll,
    ReplicatedSchema,
    WriteAllAvailable,
    make_replica_control,
    replica_control_names,
)
from repro.sim.replication.protocols import majority
from repro.sim.runtime import SimulationConfig, Simulator, simulate
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import seq

BASE = DatabaseSchema.from_groups(
    {"s0": ["a", "b"], "s1": ["c"], "s2": ["d"]}
)


class TestReplicatedSchema:
    def test_round_robin_primary_first(self):
        schema = ReplicatedSchema.round_robin(BASE, 2)
        for entity in BASE.entities:
            replicas = schema.replicas_of(entity)
            assert replicas[0] == BASE.site_of(entity)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2

    def test_factor_clamped_to_site_count(self):
        schema = ReplicatedSchema.round_robin(BASE, 10)
        for entity in BASE.entities:
            assert len(schema.replicas_of(entity)) == 3
        assert schema.replication_factor == 10  # declared, not clamped

    def test_factor_one_is_the_base_placement(self):
        schema = ReplicatedSchema.round_robin(BASE, 1)
        assert not schema.is_replicated()
        for entity in BASE.entities:
            assert schema.replicas_of(entity) == (BASE.site_of(entity),)

    def test_deterministic(self):
        a = ReplicatedSchema.round_robin(BASE, 3)
        b = ReplicatedSchema.round_robin(BASE, 3)
        for entity in BASE.entities:
            assert a.replicas_of(entity) == b.replicas_of(entity)

    def test_hosted_at_inverts_replicas(self):
        schema = ReplicatedSchema.round_robin(BASE, 2)
        for entity in BASE.entities:
            for site in schema.replicas_of(entity):
                assert entity in schema.hosted_at(site)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            ReplicatedSchema.round_robin(BASE, 0)

    def test_rejects_wrong_primary(self):
        with pytest.raises(ValueError, match="primary"):
            ReplicatedSchema(BASE, {
                "a": ("s1",), "b": ("s0",), "c": ("s1",), "d": ("s2",)
            })

    def test_rejects_duplicate_replica(self):
        with pytest.raises(ValueError, match="repeats"):
            ReplicatedSchema(BASE, {
                "a": ("s0", "s0"), "b": ("s0",), "c": ("s1",),
                "d": ("s2",),
            })

    def test_rejects_missing_entity(self):
        with pytest.raises(ValueError, match="no replica set"):
            ReplicatedSchema(BASE, {"a": ("s0",)})

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="not in"):
            ReplicatedSchema(BASE, {
                "a": ("s0", "s9"), "b": ("s0",), "c": ("s1",),
                "d": ("s2",),
            })


class TestProtocolRegistry:
    def test_names(self):
        assert replica_control_names() == [
            "quorum", "rowa", "rowa-available"
        ]

    def test_make(self):
        assert isinstance(make_replica_control("rowa"), ReadOneWriteAll)
        assert isinstance(
            make_replica_control("rowa-available"), WriteAllAvailable
        )
        assert isinstance(make_replica_control("quorum"), MajorityQuorum)

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown replica protocol"):
            make_replica_control("primary-copy")


class TestSiteSelection:
    REPLICAS = ("s0", "s1", "s2")

    def test_rowa_reads_first_up(self):
        rowa = ReadOneWriteAll()
        assert rowa.read_sites(self.REPLICAS, {"s0", "s1", "s2"}, ()) == (
            "s0",
        )
        assert rowa.read_sites(self.REPLICAS, {"s1"}, ()) == ("s1",)
        assert rowa.read_sites(self.REPLICAS, set(), ()) is None

    def test_rowa_writes_all_or_nothing(self):
        rowa = ReadOneWriteAll()
        assert rowa.write_sites(self.REPLICAS, {"s0", "s1", "s2"}) == (
            "s0", "s1", "s2",
        )
        assert rowa.write_sites(self.REPLICAS, {"s0", "s2"}) is None

    def test_rowa_available_routes_around_crashes(self):
        wa = WriteAllAvailable()
        assert wa.write_sites(self.REPLICAS, {"s0", "s2"}) == ("s0", "s2")
        assert wa.write_sites(self.REPLICAS, {"s2"}) == ("s2",)
        assert wa.write_sites(self.REPLICAS, set()) is None

    def test_rowa_available_reads_skip_stale(self):
        wa = WriteAllAvailable()
        up = {"s0", "s1", "s2"}
        assert wa.read_sites(self.REPLICAS, up, {"s0"}) == ("s1",)
        assert wa.read_sites(self.REPLICAS, up, {"s0", "s1", "s2"}) is None
        assert wa.read_sites(self.REPLICAS, {"s1"}, {"s1"}) is None

    def test_quorum_majorities(self):
        q = MajorityQuorum()
        assert q.read_sites(self.REPLICAS, {"s0", "s1", "s2"}, ()) == (
            "s0", "s1",
        )
        assert q.write_sites(self.REPLICAS, {"s1", "s2"}) == ("s1", "s2")
        assert q.write_sites(self.REPLICAS, {"s2"}) is None

    def test_majority_sizes(self):
        assert [majority(n) for n in range(1, 6)] == [1, 2, 2, 3, 3]

    def test_quorums_always_intersect(self):
        for n in range(1, 8):
            replicas = tuple(f"s{i}" for i in range(n))
            q = MajorityQuorum()
            write = q.write_sites(replicas, set(replicas))
            read = q.read_sites(replicas, set(replicas), ())
            assert set(write) & set(read)


def _replicated_sim(protocol="rowa", factor=2, failure_rate=0.0,
                    read_entities=(), **cfg):
    schema = DatabaseSchema.from_groups(
        {"s0": ["x"], "s1": ["y"], "s2": ["z"]}
    )
    t1 = Transaction(
        "T1",
        [op for e in ("x", "y") for op in seq_ops(e)],
        [(0, 1), (2, 3), (1, 2)],
        schema,
        read_set=[e for e in read_entities if e in ("x", "y")],
    )
    system = TransactionSystem([t1])
    spec = WorkloadSpec(replication_factor=factor)
    config = SimulationConfig(
        workload=spec, replica_protocol=protocol,
        failure_rate=failure_rate, **cfg,
    )
    return Simulator(system, "wound-wait", config)


def seq_ops(entity):
    from repro.core.operations import Operation

    return [Operation.lock(entity), Operation.unlock(entity)]


def lock_sites_at_commit(sim) -> dict[int, dict[int, tuple[int, ...]]]:
    """Record each transaction's ``lock_sites`` as its commit finds them
    (a committed instance sheds them); fills as ``sim`` runs."""
    at_commit = {}
    finish_commit = sim.finish_commit

    def recording(inst):
        at_commit[inst.index] = dict(inst.lock_sites)
        finish_commit(inst)

    sim.finish_commit = recording
    return at_commit


class TestRuntimeIntegration:
    def test_write_locks_every_replica(self):
        sim = _replicated_sim(factor=3)
        lock_sites = lock_sites_at_commit(sim)
        result = sim.run()
        assert result.committed == 1
        x = sim.entity_id("x")
        locked = tuple(sim.site_name(s) for s in lock_sites[0][x])
        assert locked == sim.replicas.schema.replicas_of("x")
        assert len(lock_sites[0][x]) == 3

    def test_read_locks_one_replica_under_rowa(self):
        sim = _replicated_sim(factor=3, read_entities=("x",))
        lock_sites = lock_sites_at_commit(sim)
        result = sim.run()
        assert result.committed == 1
        assert len(lock_sites[0][sim.entity_id("x")]) == 1

    def test_quorum_read_locks_majority(self):
        sim = _replicated_sim("quorum", factor=3, read_entities=("x",))
        lock_sites = lock_sites_at_commit(sim)
        result = sim.run()
        assert result.committed == 1
        assert len(lock_sites[0][sim.entity_id("x")]) == 2

    def test_commit_participants_include_write_replicas(self):
        sim = _replicated_sim(factor=3)
        sim.run()
        coordinator, participants = sim.transaction_sites(0)
        assert coordinator == "s0"
        assert participants == ["s0", "s1", "s2"]

    def test_result_records_protocol_and_factor(self):
        sim = _replicated_sim("quorum", factor=3)
        result = sim.run()
        assert result.replica_protocol == "quorum"
        assert result.replication_factor == 3
        assert result.availability == 1.0
        assert result.read_availability == 1.0
        assert result.write_availability == 1.0

    def test_lock_tables_drain_with_replicas(self):
        spec = WorkloadSpec(
            n_transactions=6, n_entities=6, n_sites=3,
            entities_per_txn=(2, 3), read_fraction=0.5,
            replication_factor=2, shape="two_phase",
        )
        system = random_system(random.Random(3), spec)
        for protocol in replica_control_names():
            sim = Simulator(
                system, "wound-wait",
                SimulationConfig(workload=spec, replica_protocol=protocol),
            )
            result = sim.run()
            assert result.committed == len(system)
            for site in sim.lock_tables().values():
                assert site.involved() == [], (protocol, site)

    def test_shared_readers_overlap_but_conflict_with_writers(self):
        schema = DatabaseSchema.from_groups({"s0": ["x"]})
        readers = [
            Transaction(
                f"R{i}",
                seq(f"R{i}", ["Lx", "A.x", "Ux"], schema).ops,
                [(0, 1), (1, 2)],
                schema,
                ["x"],
            )
            for i in range(2)
        ]
        writer = seq("W", ["Lx", "A.x", "Ux"], schema)
        system = TransactionSystem(readers + [writer])
        result = simulate(system, "wound-wait", SimulationConfig(seed=2))
        assert result.committed == 3
        assert result.serializable is True

    def test_replication_reduces_to_seed_at_factor_one(self):
        """Factor 1 + exclusive-only: identical results whatever the
        protocol — the reduction the golden matrix pins, spot-checked
        here on a fresh workload."""
        spec = WorkloadSpec(
            n_transactions=5, n_entities=6, n_sites=3,
            entities_per_txn=(2, 3), hotspot_skew=0.8,
        )
        system = random_system(random.Random(11), spec)
        baseline = simulate(
            system, "wound-wait",
            SimulationConfig(seed=4, failure_rate=0.05, repair_time=6.0),
        )
        for protocol in replica_control_names():
            config = SimulationConfig(
                seed=4, failure_rate=0.05, repair_time=6.0,
                workload=spec, replica_protocol=protocol,
            )
            result = simulate(system, "wound-wait", config)
            assert result.committed == baseline.committed
            assert result.aborts == baseline.aborts
            assert result.end_time == baseline.end_time
            assert result.latencies == baseline.latencies
            assert result.wait_time == baseline.wait_time


class TestFailureInteraction:
    def _crash(self, sim, site):
        # Drive the injector's state directly for a deterministic
        # crash schedule.
        sim.replicas.on_crash(site)
        sim.failures.mark_down(site)
        sim.result.crashes += 1
        sim.crash_site(site)

    def _recover(self, sim, site):
        sim.replicas.on_recover(site)
        sim.failures.mark_up(site)

    def _sim(self, protocol):
        spec = WorkloadSpec(replication_factor=3, n_sites=3, n_entities=3)
        schema = DatabaseSchema.from_groups(
            {"s0": ["x"], "s1": ["y"], "s2": ["z"]}
        )
        system = TransactionSystem([seq("T1", ["Lx", "Ux"], schema)])
        return Simulator(
            system, "wound-wait",
            SimulationConfig(
                workload=spec, replica_protocol=protocol,
                failure_rate=0.0001, max_time=10.0,
            ),
        )

    def test_rowa_write_blocks_on_crashed_replica(self):
        sim = self._sim("rowa")
        self._crash(sim, "s1")
        assert sim.replicas.write_sites("x") is None
        assert sim.replicas.read_sites("x") == ("s0",)

    def test_rowa_available_routes_writes_around_crash(self):
        sim = self._sim("rowa-available")
        self._crash(sim, "s1")
        sites = sim.replicas.write_sites("x")
        assert sites is not None and "s1" not in sites

    def _reader_writer_reader(self, policy):
        schema = DatabaseSchema.from_groups({"s0": ["x"]})
        txns = [
            Transaction(
                name, seq(name, ["Lx", "Ux"], schema).ops, [(0, 1)],
                schema, reads,
            )
            for name, reads in (
                ("Rold", ["x"]), ("Ryoung", ["x"]), ("W", []),
            )
        ]
        sim = Simulator(
            TransactionSystem(txns), policy, SimulationConfig()
        )
        old, young, writer = (
            sim.instance(0), sim.instance(1), sim.instance(2)
        )
        old.timestamp, young.timestamp, writer.timestamp = 1.0, 9.0, 5.0
        x, s0 = sim.entity_id("x"), sim.site_id("s0")
        site = sim.lock_tables()["s0"]
        site.request(1, x, "S")  # the young reader holds S
        site.request(2, x, "X")  # the writer queues
        writer.waiting[(x, s0)] = 0.0
        return sim, old, young, writer, site

    def test_shared_request_wounds_the_blocking_writer_not_readers(self):
        """An older reader queued behind a writer is in conflict with
        the *writer*, not with the compatible shared holders: under
        wound-wait it wounds the writer and is granted with the read
        batch; the holders are untouched (regression: the policy round
        used to run mode-blind against every holder)."""
        sim, old, young, writer, site = self._reader_writer_reader(
            "wound-wait"
        )
        sim._request_lock(old, sim.system[0].lock_node("x"))
        assert young.status == "running"  # compatible holder untouched
        assert writer.status == "aborted"  # the real blocker, wounded
        assert sim.result.wounds == 1
        # read batch granted
        assert sorted(site.holders(sim.entity_id("x"))) == [0, 1]

    def test_young_shared_request_waits_behind_older_writer(self):
        """The dual: a *young* reader behind an older writer just
        waits (wound-wait), preserving FIFO writer fairness."""
        sim, old, young, writer, site = self._reader_writer_reader(
            "wound-wait"
        )
        old.timestamp = 7.0  # now younger than the writer (5.0)
        sim._request_lock(old, sim.system[0].lock_node("x"))
        assert writer.status == "running"
        assert sim.result.wounds == 0
        assert site.waiters(sim.entity_id("x")) == [2, 0]

    def test_commits_through_a_crashed_primary(self):
        """Routing around a down primary must carry through the whole
        transaction: Actions and Unlocks execute at the replica sites
        actually locked, not at the primary (regression: the non-LOCK
        site check used to abort on the down primary)."""
        for protocol in ("rowa-available", "quorum"):
            sim = self._sim(protocol)
            self._crash(sim, "s0")  # the primary of x
            lock_sites = lock_sites_at_commit(sim)
            result = sim.run()
            assert result.committed == 1, protocol
            assert result.crash_aborts == 0, protocol
            locked = lock_sites[0][sim.entity_id("x")]
            assert sim.site_id("s0") not in locked
            # The commit round is coordinated by a site the attempt
            # actually locked — never the crashed primary.
            coordinator, participants = sim.transaction_sites(0)
            assert coordinator != "s0"
            assert coordinator in participants

    def test_quorum_masks_minority_crash(self):
        sim = self._sim("quorum")
        self._crash(sim, "s1")
        assert sim.replicas.write_sites("x") is not None
        assert sim.replicas.read_sites("x") is not None
        self._crash(sim, "s2")
        assert sim.replicas.write_sites("x") is None

    def test_recovering_site_catches_up_before_serving_reads(self):
        sim = self._sim("rowa-available")
        self._crash(sim, "s0")
        self._recover(sim, "s0")
        # Recovery alone does not revalidate: the site waits for its
        # anti-entropy scan.
        assert "s0" in sim.replicas.stale_replicas("x")
        assert sim.replicas.read_sites("x") is not None  # peers serve
        sim.replicas._on_catchup("s0")
        assert "s0" not in sim.replicas.stale_replicas("x")

    def test_missed_write_keeps_replica_stale_through_catchup(self):
        sim = self._sim("rowa-available")
        self._crash(sim, "s0")
        # A write to x commits while s0 is down: s0 misses it.
        inst = sim.instance(0)
        inst.lock_sites[sim.entity_id("x")] = (
            sim.site_id("s1"), sim.site_id("s2"),
        )
        sim.replicas.on_commit(inst)
        assert "s0" in sim.replicas.missed_replicas("x")
        self._recover(sim, "s0")
        sim.replicas._on_catchup("s0")
        # Catch-up *can* repair it here because a current copy (s1) is
        # up — the copy syncs rather than staying stale.
        assert "s0" not in sim.replicas.missed_replicas("x")

    def test_missed_write_without_source_stays_stale(self):
        sim = self._sim("rowa-available")
        self._crash(sim, "s0")
        inst = sim.instance(0)
        inst.lock_sites[sim.entity_id("x")] = (
            sim.site_id("s1"), sim.site_id("s2"),
        )
        sim.replicas.on_commit(inst)
        self._crash(sim, "s1")
        self._crash(sim, "s2")
        self._recover(sim, "s0")
        sim.replicas._on_catchup("s0")
        # Both current copies are down: the stale copy must not serve.
        assert "s0" in sim.replicas.missed_replicas("x")
        assert sim.replicas.read_sites("x") is None
