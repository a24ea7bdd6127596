"""Shared builders for the test suite."""

from __future__ import annotations

import random

from repro.core.entity import DatabaseSchema
from repro.core.operations import OpKind
from repro.core.schedule import IllegalScheduleError, Schedule
from repro.core.serialization import is_serializable
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.sim.runtime import _COMMITTED, _PREPARED
from repro.sim.workload import WorkloadSpec, random_system
from repro.util.graphs import Digraph

TWO_SITES = DatabaseSchema.from_groups({"s1": ["x", "y"], "s2": ["z", "w"]})


def seq(name: str, ops: list[str], schema: DatabaseSchema | None = None) -> (
        Transaction):
    """Shorthand for a sequential transaction from op labels."""
    return Transaction.sequential(name, ops, schema)


def pair_system(
    ops1: list[str],
    ops2: list[str],
    schema: DatabaseSchema | None = None,
) -> TransactionSystem:
    """A two-transaction system of sequential transactions."""
    if schema is None:
        entities = {
            label.split(".")[-1] if label.startswith("A.") else label[1:]
            for label in ops1 + ops2
        }
        schema = DatabaseSchema.single_site(entities)
    return TransactionSystem(
        [seq("T1", ops1, schema), seq("T2", ops2, schema)]
    )


def small_random_system(
    seed: int,
    n_transactions: int = 2,
    n_entities: int = 4,
    n_sites: int = 2,
    shape: str = "random",
) -> TransactionSystem:
    """A small random system for oracle-vs-algorithm comparisons."""
    rng = random.Random(seed)
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        n_entities=n_entities,
        n_sites=n_sites,
        entities_per_txn=(2, 3),
        actions_per_entity=(0, 0),
        cross_arc_p=0.3,
        shape=shape,
    )
    return random_system(rng, spec)


def log_replay_state(log) -> tuple[set, dict]:
    """A site's replay state derived from its whole log.

    The reference the durability model's per-append state is checked
    against. Returns the ``(kind, txn, attempt)`` key of every record
    and the open prepares: txn -> ``(attempt, locks)`` of its latest
    prepare record, kept only while no decision record for that
    attempt is in the log.
    """
    keys = set()
    prepared = {}
    decided = set()
    for record in log:
        kind, txn, attempt = record[:3]
        keys.add((kind, txn, attempt))
        if kind == "prepare":
            prepared[txn] = (attempt, record[3])
        elif kind == "decision":
            decided.add((txn, attempt))
    open_prepares = {
        txn: entry
        for txn, entry in prepared.items()
        if (txn, entry[0]) not in decided
    }
    return keys, open_prepares


def log_implied_locks(sim, site: str) -> set:
    """``(txn, eid)`` locks ``site``'s whole log implies it retains.

    The open prepares of :func:`log_replay_state`, minus those whose
    attempt is stale or whose transaction is no longer prepared or
    committed (presumption releases them).
    """
    sid = sim.site_id(site)
    _keys, open_prepares = log_replay_state(sim.durability.log(site))
    implied = set()
    for txn, (attempt, locks) in open_prepares.items():
        inst = sim.instance(txn)
        if inst.attempt != attempt or inst.status not in (
            _PREPARED, _COMMITTED
        ):
            continue
        implied.update((txn, eid) for eid, held in locks if held == sid)
    return implied


def check_presumptions_count_once(sim) -> list:
    """Wrap ``sim.durability.on_site_recover`` with a counting check.

    Each replay must add exactly its report's ``presumed`` count to
    ``in_doubt_resolved``: a presumption resolves one in-doubt
    participant state, even one an interrupted replay left open.
    Returns the list the wrapper extends with each replay's report.
    """
    dur = sim.durability
    recover = dur.on_site_recover
    replayed = []

    def checked(site):
        reports = len(dur.recovery_reports)
        before = sim.result.in_doubt_resolved
        recover(site)
        new = dur.recovery_reports[reports:]
        presumed = sum(report["presumed"] for report in new)
        assert sim.result.in_doubt_resolved - before == presumed, site
        replayed.extend(new)

    dur.on_site_recover = checked
    return replayed


def conflicting_overlap(sim) -> bool:
    """Whether a finished run granted some lock while another final
    attempt held its entity in a conflicting mode (not both reads)."""
    system = sim.system
    holders: dict[str, set[int]] = {}
    for txn, node in sim._final_steps(False):
        op = system[txn].ops[node]
        held = holders.setdefault(op.entity, set())
        if op.kind is OpKind.LOCK:
            reads = op.entity in system[txn].read_set
            if any(
                not (reads and op.entity in system[h].read_set)
                for h in held
            ):
                return True
            held.add(txn)
        elif op.kind is OpKind.UNLOCK:
            held.discard(txn)
    return False


def reference_serializable(sim) -> bool:
    """A finished run's serializability, recomputed from the definitions.

    The reference the runtime's one-pass verdict is checked against.
    Without reads in the system, the final attempts' steps replay as a
    :class:`Schedule` and D(S') decides; a step sequence the replay
    rejects is not serializable. With reads, a
    :func:`conflicting_overlap` is not serializable, and otherwise the
    pairwise conflict graph decides: an arc from every locker of an
    entity to every later locker and to every accessor that has not
    locked it yet (Lemma 1), unless both only read it, with no
    reduction.
    """
    system = sim.system
    steps = list(sim._final_steps(False))
    if not any(t.read_set for t in system):
        try:
            return is_serializable(Schedule(system, steps))
        except IllegalScheduleError:
            return False
    if conflicting_overlap(sim):
        return False
    masks = [0] * len(system)
    lockers: dict[str, list[int]] = {}
    for txn, node in steps:
        masks[txn] |= 1 << node
        op = system[txn].ops[node]
        if op.kind is OpKind.LOCK:
            lockers.setdefault(op.entity, []).append(txn)
    graph = Digraph()
    for entity in system.entities:
        order = lockers.get(entity, [])
        not_locked = [
            j for j in system.accessors(entity)
            if not masks[j] >> system[j].lock_node(entity) & 1
        ]
        for a, i in enumerate(order):
            for j in order[a + 1:] + not_locked:
                if not (
                    entity in system[i].read_set
                    and entity in system[j].read_set
                ):
                    graph.add_arc(i, j)
    return graph.is_acyclic()
