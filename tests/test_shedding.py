"""What a run keeps of a committed transaction, and of its history.

Once a transaction commits and retains no lock, its ``_Instance``
sheds its per-attempt containers and compiled data, keeping the
commit round's sites as one interned answer (``Simulator._shed``);
recovery replay that re-acquires one of its locks goes through
``Simulator.retain`` and the instance sheds again once the lock is
released. The run's trace keeps only the steps from the oldest
undecided one on, each with its access code: an aborted attempt's
steps are dropped and a committed transaction's move to the packed
final-step log, so ``_final_steps`` reads exactly the final attempts'
steps it read when the trace kept every step.
"""

import random
from types import MappingProxyType

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim.durability import DurabilityConfig
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system
from tests.helpers import (
    access_code,
    final_attempt_steps,
    record_trace,
    seq,
)

SPEC = WorkloadSpec(
    n_transactions=8,
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.3,
)

REPLICATED = WorkloadSpec(
    n_transactions=8,
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.3,
    replication_factor=2,
)


def deadlock_pair() -> TransactionSystem:
    schema = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ly", "Ux", "Uy"], schema),
            seq("T2", ["Ly", "Lx", "Uy", "Ux"], schema),
        ]
    )


def _open_wound_wait() -> Simulator:
    return Simulator(
        random_system(random.Random(3), SPEC),
        "wound-wait",
        SimulationConfig(
            arrival_rate=0.5, max_transactions=60, workload=SPEC, seed=3,
            workload_seed=3,
        ),
    )


def _closed_two_phase() -> Simulator:
    return Simulator(
        random_system(random.Random(5), SPEC),
        "wound-wait",
        SimulationConfig(
            commit_protocol="two-phase", network_delay=0.5, seed=5,
        ),
    )


def _paxos_durable_crashes(seed: int = 0) -> Simulator:
    return Simulator(
        random_system(random.Random(13), REPLICATED),
        "wound-wait",
        SimulationConfig(
            seed=seed, workload=REPLICATED, commit_protocol="paxos-commit",
            network_delay=0.5, commit_timeout=6.0, failure_rate=0.03,
            repair_time=5.0, arrival_rate=0.3, max_transactions=40,
            durability=DurabilityConfig(
                flush_time=0.5, tail_loss_rate=0.5, torn_write_rate=0.25,
            ),
        ),
    )


RUNS = {
    "open-wound-wait": _open_wound_wait,
    "closed-two-phase": _closed_two_phase,
    "paxos-durable-crashes": _paxos_durable_crashes,
}


SHED_CONTAINERS = (
    "waiting", "pending_replicas", "retained", "lock_node_of", "lock_sites",
)


def _assert_shed(inst) -> None:
    # Immutable empties in place of the containers, nothing compiled.
    for name in SHED_CONTAINERS:
        value = getattr(inst, name)
        assert type(value) in (MappingProxyType, frozenset), name
        assert not value, name
    assert inst.eids == () and inst.kinds == () and inst.write_eids == ()
    assert inst.codes == () and inst.preds == () and inst.succ == ()
    assert inst.commit_sites is not None


class TestCommittedInstancesShed:
    @pytest.mark.parametrize("run", RUNS)
    def test_every_committed_instance_holds_only_what_stays(self, run):
        sim = RUNS[run]()
        at_commit = {}
        finish_commit = sim.finish_commit

        def recording(inst):
            at_commit[inst.index] = sim.transaction_sites(inst.index)
            finish_commit(inst)

        sim.finish_commit = recording
        result = sim.run()
        assert result.committed == result.total and not result.truncated
        assert len(at_commit) == result.total
        for inst in sim._instances:
            assert inst.status == _COMMITTED
            _assert_shed(inst)
            # What stays answers as it did at the commit.
            assert sim.transaction_sites(inst.index) == at_commit[inst.index]
        for name in SHED_CONTAINERS:
            # One shared empty value each, not one per transaction.
            assert len({id(getattr(i, name)) for i in sim._instances}) == 1
        # One interned answer per distinct commit round.
        answers = [inst.commit_sites for inst in sim._instances]
        assert len({id(answer) for answer in answers}) == len(set(answers))
        # Every step is decided: the trace holds none.
        assert len(sim._trace) == 0
        # Existing callers compare the shared empties with fresh ones.
        assert sim.instance(0).retained == set()
        assert sim.instance(0).waiting == {}

    def test_replay_retains_through_the_simulator_and_sheds_again(self):
        sim = _paxos_durable_crashes()
        retained_by_replay = []
        retain = sim.retain

        def spy(inst, eid, sid):
            retained_by_replay.append(
                (inst.index, inst.status, type(inst.retained) is frozenset)
            )
            retain(inst, eid, sid)
            assert (eid, sid) in inst.retained

        sim.retain = spy
        result = sim.run()
        assert result.committed == result.total
        assert result.log_replays > 0
        # Replay re-acquired locks of transactions that had committed,
        # some of them already shed, each into a fresh set ...
        assert any(
            status == _COMMITTED and shed
            for _txn, status, shed in retained_by_replay
        )
        # ... and every one of them shed again once released.
        for txn, _status, _shed in retained_by_replay:
            _assert_shed(sim.instance(txn))
        assert sim._retained_total == 0

    def test_retain_gives_a_shed_instance_a_fresh_set(self):
        sim = Simulator(
            deadlock_pair(), "wound-wait",
            SimulationConfig(commit_protocol="two-phase"),
        )
        inst = sim.instance(0)
        sim.mark_prepared(inst)
        sim.finish_commit(inst)
        _assert_shed(inst)
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        assert site.request(0, x)
        sim.retain(inst, x, s1)
        assert inst.retained == {(x, s1)}
        assert type(inst.retained) is set
        assert sim._retained_total == 1
        sim.release_retained(inst)
        assert site.holder(x) is None
        assert sim._retained_total == 0
        _assert_shed(inst)

    def test_a_timeout_after_the_commit_is_a_no_op(self):
        sim = Simulator(
            random_system(random.Random(3), SPEC),
            "timeout",
            SimulationConfig(
                arrival_rate=0.5, max_transactions=60, workload=SPEC,
                seed=3, workload_seed=3, timeout=6.0,
            ),
        )
        handlers = sim._registry._handlers
        on_timeout = handlers["timeout"]
        after_commit = []

        def spy(txn, node, attempt):
            inst = sim.instance(txn)
            if inst.status == _COMMITTED:
                _assert_shed(inst)
                after_commit.append(txn)
                aborts = sim.result.aborts
                on_timeout(txn, node, attempt)
                assert inst.status == _COMMITTED
                assert sim.result.aborts == aborts
                return
            on_timeout(txn, node, attempt)

        handlers["timeout"] = spy
        result = sim.run()
        assert result.committed == result.total
        assert after_commit


def trace_grid():
    """Yield (label, sim) over runs that end complete, truncated and
    deadlocked, closed and open, with aborts and crashes."""
    deadlocking = next(
        seed for seed in range(60)
        if Simulator(
            deadlock_pair(), "blocking", SimulationConfig(seed=seed)
        ).run().deadlocked
    )
    yield "deadlocked", Simulator(
        deadlock_pair(), "blocking", SimulationConfig(seed=deadlocking)
    )
    yield "truncated", Simulator(
        random_system(random.Random(2), SPEC), "wound-wait",
        SimulationConfig(seed=2, max_events=40),
    )
    for policy in ("wound-wait", "wait-die", "timeout", "detect"):
        yield f"open-{policy}", Simulator(
            random_system(random.Random(4), SPEC), policy,
            SimulationConfig(
                arrival_rate=0.6, max_transactions=40, workload=SPEC,
                seed=4, workload_seed=4,
            ),
        )
    yield "two-phase-failures", Simulator(
        random_system(random.Random(6), REPLICATED), "wound-wait",
        SimulationConfig(
            commit_protocol="two-phase", network_delay=0.5,
            failure_rate=0.03, repair_time=5.0, workload=REPLICATED,
            seed=6,
        ),
    )
    yield "paxos-durable-crashes", _paxos_durable_crashes(seed=1)


class TestTraceKeepsOnlyUndecidedSteps:
    def test_final_steps_equal_the_recorded_final_attempts(self):
        kinds = set()
        for label, sim in trace_grid():
            recorded = record_trace(sim)
            result = sim.run()
            kinds.add(
                "deadlocked" if result.deadlocked
                else "truncated" if result.truncated
                else "complete"
            )
            assert result.aborts or label in ("deadlocked", "truncated")
            final = final_attempt_steps(sim, recorded)
            assert list(sim._final_steps(False)) == final, label
            committed = [
                (txn, node) for txn, node in final
                if sim.instance(txn).status == _COMMITTED
            ]
            assert list(sim._final_steps(True)) == committed, label
            assert sim.executed_steps == len(recorded) // 4, label

            # Each step carries its op's access code.
            entries = list(zip(*(recorded[k::4] for k in range(4))))
            assert all(
                code == access_code(sim, txn, node)
                for txn, node, _attempt, code in entries
            ), label
            # The trace holds the recorded steps from the oldest
            # undecided one on; the log, the committed steps before it,
            # as (txn, node, code).
            head = next(
                (
                    k for k, (txn, _node, attempt, _code) in enumerate(entries)
                    if attempt == sim.instance(txn).attempt
                    and sim.instance(txn).status != _COMMITTED
                ),
                len(entries),
            )
            assert list(sim._trace) == recorded[4 * head:], label
            log = sim._final_log
            assert list(zip(log[::3], log[1::3], log[2::3])) == [
                (txn, node, code) for txn, node, attempt, code in entries[:head]
                if attempt == sim.instance(txn).attempt
            ], label
            if result.committed == result.total:
                assert len(sim._trace) == 0, label
        assert kinds == {"complete", "truncated", "deadlocked"}
