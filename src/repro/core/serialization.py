"""Serialization digraphs D(S), D(S') and serializability tests.

Section 2: for a complete schedule S, D(S) has a node per transaction and
an arc ``Ti -> Tj`` labelled x whenever both access x and Ti acts on
(equivalently: locks) x first. S is serializable iff D(S) is acyclic.

Section 5 (Lemma 1) extends this to partial schedules: D(S') has an arc
``Ti -> Tj`` labelled x if both access x and Ti locks x in S' before Tj
does — **including** the case where Tj has not locked x in S' at all. A
system is safe and deadlock-free iff D(S') is acyclic for every partial
schedule S'.
"""

from __future__ import annotations

from repro.core.schedule import Schedule
from repro.util.graphs import Digraph

__all__ = [
    "d_graph",
    "equivalent_serial_order",
    "is_serializable",
]


def d_graph(schedule: Schedule, full: bool = True) -> Digraph:
    """Build the digraph D(S') of a (partial) schedule.

    Args:
        schedule: a validated (partial) schedule.
        full: when True, emit every pairwise arc exactly as the paper
            defines D; when False, emit the reachability-equivalent sparse
            form (consecutive lockers, plus arcs from the last locker to
            the accessors that have not locked yet). Both forms have a
            cycle under exactly the same circumstances.
    """
    system = schedule.system
    graph = Digraph()
    for i in range(len(system)):
        graph.add_node(i)
    prefix = schedule.prefix()
    lock_orders = schedule.lock_sequences()
    for entity in system.entities:
        accessors = system.accessors(entity)
        if len(accessors) < 2:
            continue
        lockers = lock_orders.get(entity, [])
        not_locked = [
            j
            for j in accessors
            if not prefix.masks[j] >> system[j].lock_node(entity) & 1
        ]
        if full:
            for a in range(len(lockers)):
                for b in range(a + 1, len(lockers)):
                    graph.add_arc(lockers[a], lockers[b], label=entity)
                for j in not_locked:
                    graph.add_arc(lockers[a], j, label=entity)
        else:
            for a, b in zip(lockers, lockers[1:]):
                graph.add_arc(a, b, label=entity)
            if lockers:
                for j in not_locked:
                    graph.add_arc(lockers[-1], j, label=entity)
    return graph


def is_serializable(schedule: Schedule) -> bool:
    """True iff D(S) is acyclic (the §2 criterion).

    Meaningful for complete schedules; for partial schedules this is the
    Lemma 1 acyclicity condition on D(S').
    """
    return d_graph(schedule, full=False).is_acyclic()


def equivalent_serial_order(schedule: Schedule) -> list[int] | None:
    """A serial transaction order equivalent to the schedule, or None.

    Returns a topological order of D(S) when acyclic, else None.
    """
    graph = d_graph(schedule, full=False)
    if not graph.is_acyclic():
        return None
    from repro.util.graphs import topological_sort

    return topological_sort(sorted(graph.nodes), graph.successors)
