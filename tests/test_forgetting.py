"""What an open run keeps of the arrivals it has committed.

A run that builds its own arrival stream (a *private* one) reads each
arrival without caching it and keeps only its compiled form; after the
run, ``sim.system`` generates each arrival again from the stream on
request. A stream handed in (shared by
several runs) keeps every transaction, so the two kinds of run inject
the same transactions and their frozen systems answer alike.
"""

import random
import sys

import pytest

from repro.core.prefix import SystemPrefix
from repro.core.system import GlobalNode, TransactionSystem
from repro.io.dot import system_to_dot
from repro.sim.arrivals import ArrivalStream
from repro.sim.durability import DurabilityConfig
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import CompiledWorkload, WorkloadSpec, random_system
from tests.test_shedding import REPLICATED

READS = WorkloadSpec(
    n_transactions=6, n_entities=12, n_sites=3,
    entities_per_txn=(2, 4), actions_per_entity=(0, 2),
    hotspot_skew=0.3, read_fraction=0.3,
)


def count_generate(monkeypatch) -> list[str]:
    """Record the name of every transaction ``CompiledWorkload.generate``
    builds from now on."""
    names: list[str] = []
    real = CompiledWorkload.generate

    def generate(self, name, rng, entities=None):
        names.append(name)
        return real(self, name, rng, entities)

    monkeypatch.setattr(CompiledWorkload, "generate", generate)
    return names


def durable_crashes(protocol: str) -> tuple[TransactionSystem, SimulationConfig]:
    """An open run whose recovered participants ask, after the commit,
    about transactions the run has forgotten."""
    return random_system(random.Random(13), REPLICATED), SimulationConfig(
        seed=0, workload=REPLICATED, commit_protocol=protocol,
        network_delay=0.5, commit_timeout=6.0, failure_rate=0.03,
        repair_time=5.0, arrival_rate=0.3, max_transactions=40,
        durability=DurabilityConfig(
            flush_time=0.5, tail_loss_rate=0.5, torn_write_rate=0.25,
        ),
    )


class TestWhatAnOpenRunForgets:
    """Each arrival is generated once while the run lasts; the bytes a
    run keeps per arrival are bounded by
    tests/test_runtime.py::TestWhatARunKeeps."""

    @pytest.mark.parametrize("protocol", ["two-phase", "paxos-commit"])
    def test_each_arrival_is_generated_once(self, monkeypatch, protocol):
        # Durability, crashes and in-doubt inquiries included: a
        # recovered participant's inquiry after the commit is answered
        # from the instance, and the verdict reads the step record, so
        # neither regenerates a forgotten arrival.
        batch, config = durable_crashes(protocol)
        generated = count_generate(monkeypatch)
        sim = Simulator(batch, "wound-wait", config)
        asked_after_commit = []
        transaction_sites = sim.transaction_sites

        def spy(txn):
            if sim.instance(txn).status == _COMMITTED:
                asked_after_commit.append(txn)
            return transaction_sites(txn)

        sim.transaction_sites = spy
        result = sim.run()
        assert result.committed == result.total
        assert result.crashes and result.log_replays
        assert result.in_doubt_resolved
        assert any(txn >= len(batch) for txn in asked_after_commit)
        assert len(generated) == result.injected == 40
        assert generated == [f"TX{i + 1}" for i in range(40)]

    def test_a_plain_open_run_generates_each_arrival_once(self, monkeypatch):
        generated = count_generate(monkeypatch)
        config = SimulationConfig(
            arrival_rate=0.5, max_transactions=60, workload=READS, seed=2,
            workload_seed=2,
        )
        sim = Simulator(TransactionSystem([]), "wound-wait", config)
        finish_commit = sim.finish_commit
        forgotten = []

        def committing(inst):
            finish_commit(inst)
            forgotten.append(inst.index)

        sim.finish_commit = committing
        result = sim.run()
        assert result.committed == result.total
        assert len(generated) == result.injected == 60
        assert sorted(forgotten) == list(range(60))

    def test_a_private_run_takes_no_reference_to_an_arrival(self):
        # A Transaction has __slots__ and takes no weakref, so its
        # reference count tells what keeps it: injecting adds nothing.
        sim = Simulator(random_system(random.Random(5), READS),
                        "wound-wait", OPEN)
        add_transaction = sim.add_transaction
        counts = []

        def injecting(txn):
            before = sys.getrefcount(txn)
            index = add_transaction(txn)
            counts.append((before, sys.getrefcount(txn)))
            return index

        sim.add_transaction = injecting
        result = sim.run()
        assert len(counts) == result.injected == 50
        assert all(before == after for before, after in counts), counts


def open_runs(config: SimulationConfig) -> tuple[Simulator, Simulator]:
    """The same open run with a private stream and with a shared one."""
    batch = random_system(random.Random(5), READS)
    private = Simulator(batch, "wound-wait", config)
    shared = Simulator(
        batch, "wound-wait", config, stream=ArrivalStream(batch, config)
    )
    return private, shared


OPEN = SimulationConfig(
    arrival_rate=0.5, max_transactions=50, workload=READS, seed=5,
    workload_seed=5,
)


class TestRegeneratedMembers:
    def test_members_equal_a_shared_stream_runs(self, monkeypatch):
        private, shared = open_runs(OPEN)
        assert private.run() == shared.run()
        generated = count_generate(monkeypatch)
        members = list(private.system)
        # Freezing regenerated nothing; the first request regenerated
        # each forgotten arrival once, and a second request reads it.
        assert len(generated) == 50
        assert list(private.system) == members
        assert all(a is b for a, b in zip(private.system, members))
        assert len(generated) == 50
        assert len(members) == len(shared.system) == 56
        for t, s in zip(members, shared.system):
            assert t.name == s.name
            assert t.ops == s.ops
            assert list(t.dag.arcs) == list(s.dag.arcs)
            assert t.read_set == s.read_set
        assert any(t.read_set for t in members)

    def test_static_queries_answer_alike(self):
        private, shared = open_runs(OPEN)
        private.run()
        shared.run()
        mine, theirs = private.system, shared.system
        assert isinstance(mine, TransactionSystem)
        assert mine.entities == theirs.entities
        for entity in theirs.entities:
            assert mine.accessors(entity) == theirs.accessors(entity)
        assert mine.interaction_edges() == theirs.interaction_edges()
        assert [
            mine.describe_node(GlobalNode(i, n))
            for i, t in enumerate(mine) for n in range(t.node_count)
        ] == [
            theirs.describe_node(GlobalNode(i, n))
            for i, t in enumerate(theirs) for n in range(t.node_count)
        ]
        assert system_to_dot(mine) == system_to_dot(theirs)
        assert (
            SystemPrefix.complete(mine).masks
            == SystemPrefix.complete(theirs).masks
        )
        assert mine[-1].name == theirs[-1].name
        assert [t.name for t in mine[-3:]] == [
            t.name for t in theirs.transactions[-3:]
        ]
        assert list(private._final_steps(False)) == list(
            shared._final_steps(False)
        )
