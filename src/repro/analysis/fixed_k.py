"""Theorem 4: safety-and-deadlock-freedom for a fixed number of
transactions, polynomial in the input for each fixed k.

The algorithm (Section 5, "Many Transactions"):

1. Check every pair with Theorem 3; any failing pair refutes the system.
2. Otherwise, a violation — a partial schedule S' with cyclic D(S') —
   exists iff some *normal form* witness exists: a directed cycle
   T1 → T2 → ... → Tk → T1 of the interaction graph G(A), a designated
   last transaction (Tk after rotation), and prefixes T'_1, ..., T'_k
   such that

   (1) R(T'_1) ∩ R(T_k) = ∅, and R(T'_i) ∩ Y(T'_{i-1}) = ∅ for i ≥ 2,
       where Y(T') = entities of the transaction without their Unlock in
       T' (still held or untouched);
   (2) R(T'_i) ∩ R(T_j) = ∅ whenever T_j is not the cycle-predecessor of
       T_i (nor T_i itself, nor — for entities that produce the wanted
       arcs — its successor);
   (3) T'_i contains the step L x_i, where x_i is the unique entity of
       R(T_i) ∩ R(T_{i+1}) whose Lock precedes all common Locks in both
       (it exists because all pairs passed Theorem 3).

   The greedy *maximal* prefixes T*_i (computed in cycle order) dominate
   every admissible choice, so testing property (3) on them decides the
   existence of a witness for this oriented, rooted cycle.
3. If some oriented rooted cycle passes (1)-(3), the serial partial
   schedule S* = T*_1 ... T*_k is legal and D(S*) contains the cycle —
   the system is not safe-and-deadlock-free, with S* as certificate.

Every simple cycle of G(A) is enumerated in both directions and with
every rotation; the count is O(k! ) for complete interaction graphs,
which is the "constant depending on the number of transactions" of
Corollary 4.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.pairs import check_pair, common_first_locked_entity
from repro.analysis.witnesses import SerializationViolation, Verdict
from repro.core.prefix import SystemPrefix
from repro.core.schedule import Schedule
from repro.core.serialization import d_graph
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.util.bitset import from_indices
from repro.util.graphs import simple_cycles_undirected

__all__ = ["check_system", "normal_form_witness", "oriented_rooted_cycles"]


def oriented_rooted_cycles(
    system: TransactionSystem, max_cycles: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every simple cycle of G(A), oriented and rooted.

    Each yielded tuple ``(i1, ..., ik)`` lists transaction indices in
    traversal order with the convention that the *last* element plays the
    role of Tk (the designated last transaction). Every undirected simple
    cycle of length k contributes 2k variants.
    """
    adjacency = system.interaction_neighbors()
    nodes = sorted(adjacency)
    for cycle in simple_cycles_undirected(
        nodes, lambda u: sorted(adjacency[u]), min_length=3,
        max_cycles=max_cycles,
    ):
        k = len(cycle)
        for direction in (cycle, [cycle[0]] + cycle[:0:-1]):
            for shift in range(k):
                yield tuple(direction[shift:] + direction[:shift])


def _held_or_untouched(t: Transaction, mask: int) -> frozenset[str]:
    """Y(T'): entities of T whose Unlock is not in the prefix mask."""
    return frozenset(
        entity
        for entity in t.entities
        if not mask >> t.unlock_node(entity) & 1
    )


def _maximal_prefix_avoiding(t: Transaction, forbidden: frozenset[str]) -> (
        int):
    """Largest prefix of T that locks no entity of ``forbidden``."""
    locks = from_indices(
        t.lock_node(entity) for entity in forbidden & t.entities
    )
    return t.dag.maximal_down_set_avoiding(locks)


def normal_form_witness(
    system: TransactionSystem, cycle: tuple[int, ...]
) -> SystemPrefix | None:
    """Try to build the Theorem 4 prefixes for one oriented rooted cycle.

    Args:
        system: the transaction system (pairs assumed to pass Theorem 3).
        cycle: transaction indices ``(i1, ..., ik)``, last one designated.

    Returns:
        The violating :class:`SystemPrefix` (empty prefixes off the
        cycle), or None if property (3) fails for this cycle.
    """
    k = len(cycle)
    txns = [system[i] for i in cycle]

    # x_i for each consecutive pair (including the closing pair k -> 1).
    first_locked: list[str] = []
    for pos in range(k):
        a, b = txns[pos], txns[(pos + 1) % k]
        x = common_first_locked_entity(a, b)
        if x is None:
            return None  # pair would have failed Theorem 3; caller handles
        first_locked.append(x)

    entity_sets = [t.entities for t in txns]
    masks: list[int] = []
    for pos in range(k):
        allowed = {pos, (pos - 1) % k, (pos + 1) % k}
        if pos == 0:
            # T1 additionally may not touch its cycle-predecessor Tk:
            # it runs first, and locking an entity of Tk would reverse or
            # chord the wanted arc Tk -> T1.
            allowed = {0, 1}
        forbidden: set[str] = set()
        for other in range(k):
            if other not in allowed:
                forbidden |= entity_sets[other]
        if pos > 0:
            forbidden |= _held_or_untouched(txns[pos - 1], masks[pos - 1])
        masks.append(_maximal_prefix_avoiding(txns[pos], frozenset(forbidden)))

    for pos in range(k):
        lock = txns[pos].lock_node(first_locked[pos])
        if not masks[pos] >> lock & 1:
            return None

    full_masks = [0] * len(system)
    for pos, index in enumerate(cycle):
        full_masks[index] = masks[pos]
    return SystemPrefix(system, full_masks)


def check_system(
    system: TransactionSystem, max_cycles: int | None = None
) -> Verdict:
    """Decide safety-and-deadlock-freedom of a transaction system.

    Polynomial for fixed ``len(system)`` (Theorem 4 / Corollary 4).

    Args:
        system: the system to analyse (actions are ignored).
        max_cycles: optional safety cap on interaction-graph cycles
            enumerated; ``None`` enumerates all (required for a sound
            "safe" verdict).

    Returns:
        Verdict whose witness, when failing via a cycle, is a
        :class:`SerializationViolation` carrying the normal-form partial
        schedule S* and the cycle of D(S*).
    """
    skeleton = system.lock_skeleton()
    n = len(skeleton)
    for i in range(n):
        for j in range(i + 1, n):
            pair = check_pair(skeleton[i], skeleton[j])
            if not pair:
                return Verdict(
                    False,
                    f"pair ({system[i].name}, {system[j].name}) fails "
                    f"Theorem 3: {pair.reason}",
                    witness=pair.witness,
                    details={"pair": (i, j)},
                )

    for cycle in oriented_rooted_cycles(skeleton, max_cycles=max_cycles):
        prefix = normal_form_witness(skeleton, cycle)
        if prefix is None:
            continue
        order = list(cycle)
        schedule = Schedule.serial_prefixes(prefix, order)
        digraph_cycle = d_graph(schedule, full=False).find_cycle()
        if digraph_cycle is None:  # pragma: no cover - guarded by theory
            raise AssertionError(
                "normal-form prefixes produced an acyclic D(S*); "
                "this contradicts Theorem 4"
            )
        return Verdict(
            False,
            "a normal-form partial schedule has a cyclic digraph "
            f"(cycle through {[system[i].name for i in cycle]})",
            witness=SerializationViolation(schedule, tuple(digraph_cycle)),
            details={"cycle": cycle},
        )
    return Verdict(True, "safe and deadlock-free (Theorem 4)")
