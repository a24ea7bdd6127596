"""Transaction systems and their interaction graphs.

A *transaction system* A = {T1, ..., Tn} is a finite set of transactions
(Section 2). Nodes are addressed globally by :class:`GlobalNode` — the
paper's superscript notation ``L¹x`` becomes ``GlobalNode(txn=0, node=...)``
rendered as ``"L1x"``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

from repro.core.entity import DatabaseSchema, Entity
from repro.core.transaction import Transaction

__all__ = ["GlobalNode", "TransactionSystem"]


class GlobalNode(NamedTuple):
    """A node of a specific transaction inside a system."""

    txn: int
    node: int


class TransactionSystem:
    """An immutable set of transactions over a merged schema.

    Args:
        transactions: the member transactions; names must be distinct.

    The entity -> accessors index waits for the first query that reads
    it, so a finished open run's system builds no arrival's tables.
    :meth:`over` builds a system over a member sequence and a merged
    schema that the caller vouches for, checking and copying nothing.

    Raises:
        ValueError: on duplicate names or conflicting entity placement.
    """

    __slots__ = ("transactions", "schema", "_accessors")

    def __init__(self, transactions: Sequence[Transaction]):
        names = [t.name for t in transactions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate transaction names in {names}")
        self.transactions = tuple(transactions)
        first_schema = transactions[0].schema if transactions else None
        if first_schema is not None and all(
            t.schema is first_schema for t in transactions
        ):
            # One shared schema object (the generated-workload and
            # open-system case): the merge is the identity, and n
            # schema rebuilds vanish from system construction.
            schema = first_schema
        else:
            schema = DatabaseSchema({})
            for t in transactions:
                schema = schema.merged_with(t.schema)
        self.schema = schema
        self._accessors: dict[Entity, tuple[int, ...]] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def over(
        cls, members: Sequence[Transaction], schema: DatabaseSchema
    ) -> "TransactionSystem":
        """A system whose member sequence is ``members`` itself.

        Nothing is copied, checked or read: the caller vouches for
        distinct names and for ``schema`` covering every member
        consistently, so no per-transaction schema merge runs (the
        open-system runtime passes the run schema it merged at
        construction, which makes a long run's system O(1) to build).
        Every query reads a member through the sequence, so it may
        produce one on request (a finished open run reads each arrival
        back from its stream).
        """
        system = cls.__new__(cls)
        system.transactions = members
        system.schema = schema
        system._accessors = None
        return system

    @classmethod
    def of_copies(cls, transaction: Transaction, count: int) -> (
            "TransactionSystem"):
        """A system of ``count`` copies of one transaction.

        Copies share the same entities (the paper's Theorem 5 setting);
        they are distinguished only by name suffixes.
        """
        copies = [
            transaction.renamed(f"{transaction.name}#{i + 1}")
            for i in range(count)
        ]
        return cls(copies)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def _accessor_index(self) -> dict[Entity, tuple[int, ...]]:
        """Entity -> indices of its accessors, built on first use."""
        if self._accessors is None:
            accessors: dict[Entity, list[int]] = {}
            for i, t in enumerate(self.transactions):
                for entity in t.entities:
                    accessors.setdefault(entity, []).append(i)
            self._accessors = {e: tuple(ix) for e, ix in accessors.items()}
        return self._accessors

    @property
    def entities(self) -> frozenset[Entity]:
        return frozenset(self._accessor_index())

    def accessors(self, entity: Entity) -> tuple[int, ...]:
        """Indices of transactions accessing ``entity``."""
        return self._accessor_index().get(entity, ())

    def common_entities(self, i: int, j: int) -> frozenset[Entity]:
        """R(Ti) ∩ R(Tj)."""
        return self.transactions[i].entities & self.transactions[j].entities

    def interaction_edges(self) -> set[tuple[int, int]]:
        """Edges of the interaction graph G(A): pairs sharing an entity."""
        edges: set[tuple[int, int]] = set()
        for indices in self._accessor_index().values():
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    edges.add((indices[a], indices[b]))
        return edges

    def interaction_neighbors(self) -> dict[int, set[int]]:
        """Adjacency map of the interaction graph."""
        adjacency: dict[int, set[int]] = {
            i: set() for i in range(len(self.transactions))
        }
        for a, b in self.interaction_edges():
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency

    def describe_node(self, gnode: GlobalNode) -> str:
        """Paper-style node label, e.g. ``"L1z"`` for L¹z."""
        op = self.transactions[gnode.txn].ops[gnode.node]
        prefix = op.kind.value
        if op.kind.value == "A":
            return f"A{gnode.txn + 1}.{op.entity}"
        return f"{prefix}{gnode.txn + 1}{op.entity}"

    def total_nodes(self) -> int:
        return sum(t.node_count for t in self.transactions)

    def lock_skeleton(self) -> "TransactionSystem":
        """The system of lock skeletons (actions stripped)."""
        return TransactionSystem([t.lock_skeleton() for t in self.transactions])

    def __repr__(self) -> str:
        names = ", ".join(t.name for t in self.transactions)
        return f"TransactionSystem([{names}])"
