"""The runtime's one serializability verdict.

``Simulator._check_serializability`` tests Lemma 1's D(S') over the
final attempts' trace in one pass, with shared reads. These tests check
it against :func:`tests.helpers.reference_serializable`, which
recomputes the verdict from the definitions, over a grid of run kinds,
and pin the two histories whose verdict it corrects: a deadlock whose
verdict must not depend on an unrelated read, and a write that two
transactions held at once across a partition.
"""

import dataclasses
import itertools
import random

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.operations import OpKind
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.sim.network import NetworkConfig
from repro.sim.runtime import (
    SimulationConfig,
    Simulator,
    find_deadlocking_seed,
    simulate,
)
from repro.sim.workload import WorkloadSpec, random_system
from tests.helpers import (
    conflicting_overlap,
    pair_system,
    reference_serializable,
    seq,
)
from tests.test_chaos_conformance import SPEC, chaos_configs

FAULTS = {
    "none": (0.0, None),
    "failures": (0.02, None),
    "partition": (
        0.0, NetworkConfig(partition_schedule=((4.0, 20.0, ("s0",)),))
    ),
}


def grid_runs():
    """Yield (cell, sim, result) over the verdict grid."""
    for mode, policy, protocol, replica, factor, reads, fault in (
        itertools.product(
            ("closed", "open"),
            ("blocking", "wound-wait", "wait-die", "detect"),
            ("instant", "two-phase"),
            ("rowa", "rowa-available", "quorum"),
            (1, 3),
            (0.0, 0.3),
            FAULTS,
        )
    ):
        spec = WorkloadSpec(
            n_transactions=8,
            n_entities=6,
            n_sites=3,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            read_fraction=reads,
            replication_factor=factor,
        )
        failure_rate, network = FAULTS[fault]
        config = SimulationConfig(
            seed=1,
            workload=spec,
            commit_protocol=protocol,
            replica_protocol=replica,
            failure_rate=failure_rate,
            network=network,
            network_delay=0.5,
            max_time=400.0,
        )
        if mode == "closed":
            system = random_system(random.Random(3), spec)
        else:
            system = TransactionSystem([])
            config = dataclasses.replace(
                config, arrival_rate=0.5, max_transactions=12
            )
        sim = Simulator(system, policy, config)
        cell = (mode, policy, protocol, replica, factor, reads, fault)
        yield cell, sim, sim.run()


class TestOneVerdict:
    def test_matches_the_reference_over_the_grid(self):
        reached = dict.fromkeys((
            "deadlocked", "truncated", "shared", "overlap", "True",
            "False",
        ), 0)
        wrong = []
        for cell, sim, result in grid_runs():
            if result.serializable != reference_serializable(sim):
                wrong.append(cell)
            reached["deadlocked"] += result.deadlocked
            reached["truncated"] += result.truncated
            reached["shared"] += any(t.read_set for t in sim.system)
            reached["overlap"] += conflicting_overlap(sim)
            reached[str(result.serializable)] += 1
        assert wrong == []
        assert all(reached.values()), reached

    def test_a_deadlock_verdict_ignores_an_unrelated_read(self):
        # T1 only touches z before the x/y lock cycle it closes with
        # T2. Lemma 1 rejects the deadlocked history whether T1 reads
        # or writes z.
        schema = DatabaseSchema.from_groups({"s1": ["x", "z"], "s2": ["y"]})
        t1_ops = ["Lz", "Uz", "Lx", "Ly", "Ux", "Uy"]
        t2 = seq("T2", ["Ly", "Lx", "Uy", "Ux"], schema)
        written = TransactionSystem([seq("T1", t1_ops, schema), t2])
        seed, result = find_deadlocking_seed(written)
        assert seed == 1
        assert result.serializable is False
        read = TransactionSystem([
            Transaction.sequential("T1", t1_ops, schema, read_set={"z"}), t2
        ])
        result = simulate(read, "blocking", SimulationConfig(seed=seed))
        assert result.deadlocked
        assert result.serializable is False

    def test_a_split_brain_write_is_not_serializable(self):
        # rowa-available writes the replicas it can reach: while the
        # scripted partition cuts s0 off, T14 write-locks e0's copy on
        # s0 and T9 its copies on s1 and s2, so two writers hold e0 at
        # once.
        network = dict(
            (name, net) for name, net, _rate in chaos_configs()
        )["partitioned"]
        sim = Simulator(
            random_system(random.Random(7), SPEC),
            "wound-wait",
            SimulationConfig(
                seed=1,
                workload=SPEC,
                commit_protocol="two-phase",
                replica_protocol="rowa-available",
                network_delay=0.5,
                commit_timeout=6.0,
                repair_time=8.0,
                network=network,
            ),
        )
        result = sim.run()
        assert result.committed == result.total
        writers, overlaps = set(), []
        for txn, node in sim._final_steps(False):
            t = sim.system[txn]
            op = t.ops[node]
            if op.entity != "e0" or "e0" in t.read_set:
                continue
            if op.kind is OpKind.LOCK:
                overlaps += [(sim.system[h].name, t.name) for h in writers]
                writers.add(txn)
            elif op.kind is OpKind.UNLOCK:
                writers.discard(txn)
        assert overlaps == [("T14", "T9")]
        assert result.serializable is False
        assert reference_serializable(sim) is False

    @pytest.mark.parametrize("fault", ["repeat", "reorder"])
    def test_an_illegal_trace_raises(self, fault):
        # Either corruption means the runtime broke its own order, not
        # that the history is not serializable.
        sim = Simulator(pair_system(["Lx", "Ux"], ["Ly", "Uy"]))
        assert sim.run().serializable is True
        trace = sim._trace
        lock, unlock = (i for i in range(0, len(trace), 3) if trace[i] == 0)
        if fault == "repeat":
            trace.extend(trace[lock:lock + 3])
            message = "repeats L1x"
        else:
            trace[lock + 1], trace[unlock + 1] = (
                trace[unlock + 1], trace[lock + 1]
            )
            message = "runs U1x before a predecessor"
        with pytest.raises(RuntimeError, match=message):
            sim._check_serializability()
