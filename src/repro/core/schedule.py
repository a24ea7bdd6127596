"""Schedules: lock-respecting merges of transaction (prefix) executions.

Section 2: a sequence S is a *schedule* of A = {T1,...,Tn} if it merges
one linear extension of each transaction and between every two ``Lx``
operations there is a ``Ux``. A *partial schedule* executes a prefix of
each transaction under the same rules (Section 3).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from repro.core.entity import Entity
from repro.core.operations import OpKind
from repro.core.prefix import SystemPrefix
from repro.core.system import GlobalNode, TransactionSystem

__all__ = ["IllegalScheduleError", "Schedule"]


class IllegalScheduleError(ValueError):
    """The step sequence violates precedence or the locks."""


class Schedule:
    """A validated (partial) schedule of a transaction system.

    Args:
        system: the transaction system.
        steps: global nodes (or plain ``(txn, node)`` pairs) in
            execution order; any iterable, read once.

    Raises:
        IllegalScheduleError: if a step repeats, violates its transaction's
            partial order, or locks an entity currently held by another
            transaction.

    The schedule keeps the steps it validated as flat ints, ``txn0,
    node0, txn1, node1, ...``, and builds the :class:`GlobalNode` view
    of :attr:`steps` only when it is read, so a long schedule whose
    masks and lock orders are all a caller reads holds neither a tuple
    nor a GlobalNode per step.
    """

    __slots__ = (
        "system", "_flat", "_steps_cache", "_masks", "_lock_orders",
    )

    def __init__(
        self,
        system: TransactionSystem,
        steps: Iterable[GlobalNode | tuple[int, int]],
    ):
        self.system = system
        # Each accepted step is recorded here as it validates: a fresh
        # list, so the schedule never aliases a caller list that could
        # be mutated after validation, and a generator is read once.
        flat: list[int] = []
        record = flat.append
        n_txns = len(system)
        masks = [0] * n_txns
        holder: dict[Entity, int] = {}
        # Entity -> lockers in lock order, recorded as a by-product of
        # the holder bookkeeping: the D(S) construction starts from
        # exactly this table, so it needs no second pass over the
        # steps.
        lock_orders: dict[Entity, list[int]] = {}
        # Per-transaction hot data, fetched once per transaction
        # instead of once per step.
        preds: list[list[int] | None] = [None] * n_txns
        ops_of: list[tuple | None] = [None] * n_txns
        lock_kind = OpKind.LOCK
        unlock_kind = OpKind.UNLOCK
        for position, step in enumerate(steps):
            txn, node = step
            if not 0 <= txn < n_txns:
                raise IllegalScheduleError(
                    f"step {position}: transaction index {txn} out of range"
                )
            pred = preds[txn]
            if pred is None:
                t = system[txn]
                pred = preds[txn] = t.dag.predecessor_masks()
                ops_of[txn] = t.ops
            ops = ops_of[txn]
            if not 0 <= node < len(ops):
                raise IllegalScheduleError(
                    f"step {position}: node {node} out of range for "
                    f"{system[txn].name}"
                )
            mask = masks[txn]
            if mask >> node & 1:
                label = system.describe_node(GlobalNode(txn, node))
                raise IllegalScheduleError(
                    f"step {position}: {label} executed twice"
                )
            # Direct-predecessor check, equivalent to the historical
            # ancestors-mask check by induction: every accepted step
            # had its predecessors executed, so the executed set is
            # always a down-set, and then "some ancestor missing" and
            # "some direct predecessor missing" coincide — at the same
            # step index, which the property suite pins. This keeps
            # validation O(steps + arcs) and — via
            # ``Dag.predecessor_masks`` — free of the transitive
            # closure trusted transactions never materialize.
            if pred[node] & ~mask:
                label = system.describe_node(GlobalNode(txn, node))
                raise IllegalScheduleError(
                    f"step {position}: {label} runs "
                    f"before one of its predecessors in {system[txn].name}"
                )
            op = ops[node]
            kind = op.kind
            if kind is lock_kind:
                entity = op.entity
                current = holder.get(entity)
                if current is not None and current != txn:
                    label = system.describe_node(GlobalNode(txn, node))
                    raise IllegalScheduleError(
                        f"step {position}: {label} "
                        f"while T{current + 1} holds {entity!r}"
                    )
                holder[entity] = txn
                order = lock_orders.get(entity)
                if order is None:
                    lock_orders[entity] = [txn]
                else:
                    order.append(txn)
            elif kind is unlock_kind:
                holder.pop(op.entity, None)
            masks[txn] = mask | (1 << node)
            record(txn)
            record(node)
        self._flat = flat
        self._steps_cache: tuple[GlobalNode, ...] | None = None
        self._masks = tuple(masks)
        self._lock_orders = lock_orders

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """The validated steps as plain ``(txn, node)`` pairs."""
        ends = iter(self._flat)
        return zip(ends, ends)

    @property
    def steps(self) -> tuple[GlobalNode, ...]:
        """The validated steps as :class:`GlobalNode` tuples."""
        cached = self._steps_cache
        if cached is None:
            cached = self._steps_cache = tuple(
                map(GlobalNode._make, self._pairs())
            )
        return cached

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def serial(
        cls, system: TransactionSystem, order: Iterable[int] | None = None
    ) -> "Schedule":
        """The serial schedule running whole transactions in ``order``."""
        if order is None:
            order = range(len(system))
        steps: list[GlobalNode] = []
        for txn in order:
            for node in system[txn].dag.topological_order():
                steps.append(GlobalNode(txn, node))
        return cls(system, steps)

    @classmethod
    def serial_prefixes(
        cls, prefix: SystemPrefix, order: Iterable[int] | None = None
    ) -> "Schedule":
        """Run each prefix to completion serially in ``order``.

        This is the normal form S* used in the proof of Theorem 4.
        """
        system = prefix.system
        if order is None:
            order = range(len(system))
        steps: list[GlobalNode] = []
        for txn in order:
            mask = prefix.masks[txn]
            for node in system[txn].dag.topological_order():
                if mask >> node & 1:
                    steps.append(GlobalNode(txn, node))
        return cls(system, steps)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flat) >> 1

    def __iter__(self):
        return iter(self.steps)

    def prefix(self) -> SystemPrefix:
        """The system prefix executed by this (partial) schedule.

        The masks are down-sets by construction — validation accepted
        every step only after its predecessors — so the prefix is built
        on the trusted path, without re-proving that per transaction.
        """
        return SystemPrefix.trusted(self.system, self._masks)

    def is_complete(self) -> bool:
        return self.prefix().is_complete()

    def is_serial(self) -> bool:
        """True if the transactions appear consecutively, no interleaving."""
        seen: list[int] = []
        for gnode in self.steps:
            if not seen or seen[-1] != gnode.txn:
                if gnode.txn in seen:
                    return False
                seen.append(gnode.txn)
        return True

    def lock_sequence(self, entity: Entity) -> list[int]:
        """Transaction indices in the order they lock ``entity``."""
        return list(self._lock_orders.get(entity, ()))

    def lock_sequences(self) -> dict[Entity, list[int]]:
        """All entities' lock sequences (a fresh copy).

        Equivalent to ``{e: lock_sequence(e) for e in entities}``; the
        table itself was recorded while the schedule validated, so this
        is a copy, not a rescan.
        """
        return {
            entity: list(order)
            for entity, order in self._lock_orders.items()
        }

    def subsequence_of(self, txn: int) -> list[int]:
        """Node ids of transaction ``txn`` in schedule order."""
        return [g.node for g in self.steps if g.txn == txn]

    def extended(self, steps: Iterable[GlobalNode | tuple[int, int]]) -> (
            "Schedule"):
        """A new schedule with ``steps`` appended (revalidated)."""
        return Schedule(self.system, chain(self._pairs(), steps))

    def describe(self) -> str:
        """Space-separated paper-style step labels."""
        return " ".join(self.system.describe_node(g) for g in self.steps)

    def __repr__(self) -> str:
        return f"Schedule({self.describe()})"
