"""Distributed locked transactions as validated partial orders.

Section 2 of the paper defines a locked transaction ``T = (V, A)`` as a
partial order of operations subject to:

* for each accessed entity ``x`` there is exactly one ``Lx`` node, exactly
  one ``Ux`` node, with ``Lx`` preceding ``Ux``, and any ``A.x`` action
  nodes falling between them;
* nodes whose entities reside at the same site are **totally ordered**
  (with one site this degenerates to the classical centralized model of
  transactions as sequences).

:class:`Transaction` enforces all of this at construction time, and the
rest of the library can therefore take well-formedness for granted.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.core.entity import DatabaseSchema, Entity
from repro.core.operations import Operation, OpKind
from repro.util.bitset import bits_of
from repro.util.dag import Dag

__all__ = ["Transaction", "TransactionBuilder", "MalformedTransactionError"]


class MalformedTransactionError(ValueError):
    """The node set or arcs violate the paper's well-formedness rules."""


class Transaction:
    """An immutable locked transaction.

    Args:
        name: identifier used in rendering and system-level addressing.
        ops: operation labels; index in this sequence is the node id.
        arcs: precedence arcs between node ids.
        schema: entity placement; defaults to one site per entity (the
            weakest placement — every distributed placement refines it).
        read_set: entities the transaction only *reads* (shared locks in
            the simulator's replication layer); everything else is a
            write. Empty by default — the paper's model treats every
            lock as exclusive, and all analyses ignore the distinction.

    Raises:
        MalformedTransactionError: if locking discipline or the per-site
            total-order requirement is violated, or if the read set
            names an entity the transaction does not access.
    """

    __slots__ = ("name", "ops", "dag", "schema", "read_set", "_lock_node",
                 "_unlock_node", "_entities", "_site_nodes")

    def __init__(
        self,
        name: str,
        ops: Sequence[Operation],
        arcs: Iterable[tuple[int, int]],
        schema: DatabaseSchema | None = None,
        read_set: Iterable[Entity] = (),
    ):
        self.name = name
        self.ops = tuple(ops)
        if schema is None:
            schema = DatabaseSchema.site_per_entity(
                {op.entity for op in self.ops}
            )
        self.schema = schema
        try:
            self.dag = Dag(len(self.ops), arcs)
        except ValueError as exc:
            raise MalformedTransactionError(
                f"{name}: precedence arcs invalid: {exc}"
            ) from exc
        self.read_set: frozenset[Entity] = frozenset(read_set)
        accessed = {op.entity for op in self.ops}
        if not self.read_set <= accessed:
            extra = sorted(self.read_set - accessed)
            raise MalformedTransactionError(
                f"{name}: read set names unaccessed entities {extra}"
            )
        self._site_nodes = None
        self._tables()
        self._validate_lock_discipline()
        self._validate_site_total_order()

    # ------------------------------------------------------------------
    # name-keyed tables
    # ------------------------------------------------------------------

    def _tables(self) -> "Transaction":
        """This transaction with R(T), each entity's Lock and Unlock node
        and each site's nodes (in id order) built: at once by the
        validating constructor, on the first static query if trusted."""
        if self._site_nodes is not None:
            return self
        lock_node: dict[Entity, int] = {}
        unlock_node: dict[Entity, int] = {}
        groups: dict[str, list[int]] = {}
        schema = self.schema
        for node, op in enumerate(self.ops):
            entity = op.entity
            if entity not in schema:
                raise MalformedTransactionError(
                    f"{self.name}: entity {entity!r} missing from schema"
                )
            if op.kind is OpKind.LOCK:
                if entity in lock_node:
                    raise MalformedTransactionError(
                        f"{self.name}: two Lock nodes for {entity!r}"
                    )
                lock_node[entity] = node
            elif op.kind is OpKind.UNLOCK:
                if entity in unlock_node:
                    raise MalformedTransactionError(
                        f"{self.name}: two Unlock nodes for {entity!r}"
                    )
                unlock_node[entity] = node
            groups.setdefault(schema.site_of(entity), []).append(node)
        self._lock_node = lock_node
        self._unlock_node = unlock_node
        self._entities = frozenset(op.entity for op in self.ops)
        self._site_nodes = groups
        return self

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate_lock_discipline(self) -> None:
        for entity in self._entities:
            if entity not in self._lock_node:
                raise MalformedTransactionError(
                    f"{self.name}: entity {entity!r} has no Lock node"
                )
            if entity not in self._unlock_node:
                raise MalformedTransactionError(
                    f"{self.name}: entity {entity!r} has no Unlock node"
                )
            lock = self._lock_node[entity]
            unlock = self._unlock_node[entity]
            if not self.dag.precedes(lock, unlock):
                raise MalformedTransactionError(
                    f"{self.name}: L{entity} does not precede U{entity}"
                )
        for node, op in enumerate(self.ops):
            if op.kind is OpKind.ACTION:
                lock = self._lock_node[op.entity]
                unlock = self._unlock_node[op.entity]
                if not self.dag.precedes(lock, node):
                    raise MalformedTransactionError(
                        f"{self.name}: action on {op.entity!r} not preceded "
                        f"by its Lock"
                    )
                if not self.dag.precedes(node, unlock):
                    raise MalformedTransactionError(
                        f"{self.name}: action on {op.entity!r} not followed "
                        f"by its Unlock"
                    )

    def _validate_site_total_order(self) -> None:
        # A subset is totally ordered iff, listed in topological order,
        # each consecutive pair is ordered (transitivity gives the
        # rest) — an O(k) check per site instead of the historical
        # all-pairs scan, using the order the Dag already computed.
        position = [0] * self.dag.n
        for rank, node in enumerate(self.dag.cached_topological_order()):
            position[node] = rank
        for site, nodes in self._site_nodes.items():
            ordered = sorted(nodes, key=position.__getitem__)
            for u, v in zip(ordered, ordered[1:]):
                if not self.dag.precedes(u, v):
                    raise MalformedTransactionError(
                        f"{self.name}: nodes {self.describe_node(u)} and "
                        f"{self.describe_node(v)} share site {site!r} "
                        f"but are unordered"
                    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.ops)

    @property
    def entities(self) -> frozenset[Entity]:
        """R(T): the set of entities accessed by the transaction."""
        return self._tables()._entities

    def op(self, node: int) -> Operation:
        return self.ops[node]

    def lock_node(self, entity: Entity) -> int:
        """Node id of ``L entity``.

        Raises:
            KeyError: if the transaction does not access the entity.
        """
        return self._tables()._lock_node[entity]

    def unlock_node(self, entity: Entity) -> int:
        """Node id of ``U entity``."""
        return self._tables()._unlock_node[entity]

    def action_nodes(self, entity: Entity) -> list[int]:
        """Node ids of the ``A.entity`` actions, in id order."""
        return [
            node
            for node, op in enumerate(self.ops)
            if op.kind is OpKind.ACTION and op.entity == entity
        ]

    def precedes(self, u: int, v: int) -> bool:
        """True if node ``u`` strictly precedes node ``v`` in T."""
        return self.dag.precedes(u, v)

    def describe_node(self, node: int) -> str:
        """Human-readable node label, e.g. ``"Lx"``."""
        return str(self.ops[node])

    def sites_touched(self) -> frozenset[str]:
        return frozenset(self._tables()._site_nodes)

    def nodes_at_site(self, site: str) -> list[int]:
        """Node ids at ``site`` in execution (total) order."""
        nodes = list(self._tables()._site_nodes.get(site, []))
        nodes.sort(key=lambda u: self.dag.ancestors(u).bit_count())
        return nodes

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------

    def is_sequential(self) -> bool:
        """True if the partial order is total (a centralized transaction)."""
        n = self.node_count
        for u in range(n):
            for v in range(u + 1, n):
                if not self.dag.comparable(u, v):
                    return False
        return True

    def is_two_phase(self) -> bool:
        """True if no Unlock precedes a Lock (2PL, [EGLT]).

        For partial orders the natural reading is: there is no path from
        any Unlock node to any Lock node.
        """
        for u, op in enumerate(self.ops):
            if op.kind is OpKind.UNLOCK:
                for v in bits_of(self.dag.descendants(u)):
                    if self.ops[v].kind is OpKind.LOCK:
                        return False
        return True

    # ------------------------------------------------------------------
    # derived transactions
    # ------------------------------------------------------------------

    def lock_skeleton(self) -> "Transaction":
        """The transaction with action nodes removed.

        Section 2: the positions of actions play no role in safety or
        deadlock analysis, so the analyses all run on the skeleton. Node
        ids are renumbered; use :meth:`lock_node` / :meth:`unlock_node` on
        the result.
        """
        keep = [
            node
            for node, op in enumerate(self.ops)
            if op.kind is not OpKind.ACTION
        ]
        if len(keep) == len(self.ops):
            return self
        index = {node: i for i, node in enumerate(keep)}
        ops = [self.ops[node] for node in keep]
        # Project the closure onto kept nodes, then reduce: this preserves
        # the induced partial order even when an arc ran through an action.
        arcs = [
            (index[u], index[v])
            for u in keep
            for v in bits_of(self.dag.descendants(u))
            if v in index
        ]
        return Transaction(self.name, ops, arcs, self.schema, self.read_set)

    def renamed(self, name: str) -> "Transaction":
        """Identical transaction under a different name."""
        return Transaction(
            name, self.ops, self.dag.arcs, self.schema, self.read_set
        )

    def relabeled(self, mapping: Mapping[Entity, Entity]) -> "Transaction":
        """Rename entities via ``mapping`` (identity where missing).

        The schema is re-derived by carrying each entity's site over to
        its new name.
        """
        ops = [
            Operation(op.kind, mapping.get(op.entity, op.entity))
            for op in self.ops
        ]
        placement = {
            mapping.get(entity, entity): self.schema.site_of(entity)
            for entity in self.entities
        }
        read_set = {
            mapping.get(entity, entity) for entity in self.read_set
        }
        return Transaction(
            self.name, ops, self.dag.arcs, DatabaseSchema(placement),
            read_set,
        )

    def linear_extensions(self) -> Iterator["Transaction"]:
        """Yield each total order t ∈ T as a sequential Transaction."""
        for order in self.dag.linear_extensions():
            ops = [self.ops[node] for node in order]
            arcs = [(i, i + 1) for i in range(len(ops) - 1)]
            yield Transaction(self.name, ops, arcs, self.schema,
                              self.read_set)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def trusted(
        cls,
        name: str,
        ops: Sequence[Operation],
        arcs: Dag | Iterable[tuple[int, int]],
        schema: DatabaseSchema,
        read_set: Iterable[Entity] = (),
    ) -> "Transaction":
        """Construct without validation — for generator-produced input.

        The workload generator builds transactions that are valid *by
        construction* (see :mod:`repro.sim.workload`): exactly one
        Lock/Unlock pair per accessed entity with the actions between
        them, per-site total orders, every arc forward in node-id
        order, and a read set drawn from the accessed entities. For
        such input this constructor skips the locking-discipline and
        site-total-order validation, producing an object equal to what
        the validating constructor returns — every generated
        transaction, closed batch or open-system arrival, is built
        here. ``arcs`` is the trusted Dag itself (the generator's, from
        :meth:`Dag.from_masks <repro.util.dag.Dag.from_masks>`) or
        ``(u, v)`` pairs for :meth:`Dag.trusted <repro.util.dag.Dag.
        trusted>`. ``schema`` is required: deriving a default would
        need the validation pass this path exists to skip. Only the
        name, ops, schema, read set and Dag are stored; the name-keyed
        tables wait for the first static query that reads one (the
        simulator reads none, and an open run keeps every arrival).

        Feeding input that violates the invariants produces a malformed
        transaction, silently or at its first static query; use the
        normal constructor whenever the input is not proven valid by
        construction.
        """
        t = object.__new__(cls)
        t.name = name
        t.ops = tuple(ops)
        t.schema = schema
        t.dag = arcs if type(arcs) is Dag else Dag.trusted(len(t.ops), arcs)
        t.read_set = (
            read_set if type(read_set) is frozenset else frozenset(read_set)
        )
        t._lock_node = t._unlock_node = t._entities = t._site_nodes = None
        return t

    @classmethod
    def sequential(
        cls,
        name: str,
        ops: Sequence[Operation | str],
        schema: DatabaseSchema | None = None,
        read_set: Iterable[Entity] = (),
    ) -> "Transaction":
        """A totally ordered (centralized-style) transaction.

        Args:
            ops: operations, either :class:`Operation` or parseable strings
                like ``"Lx"``, ``"A.x"``, ``"Ux"``.
        """
        parsed = [
            op if isinstance(op, Operation) else Operation.parse(op)
            for op in ops
        ]
        arcs = [(i, i + 1) for i in range(len(parsed) - 1)]
        return cls(name, parsed, arcs, schema, read_set)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return (
            self.name == other.name
            and self.ops == other.ops
            and self.dag == other.dag
            and self.schema == other.schema
            and self.read_set == other.read_set
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ops, self.dag))

    def __repr__(self) -> str:
        labels = " ".join(str(op) for op in self.ops)
        return f"Transaction({self.name!r}: {labels})"


class TransactionBuilder:
    """Fluent construction of distributed transactions.

    Example::

        b = TransactionBuilder("T1", schema)
        lx, ux = b.lock("x"), b.unlock("x")
        ly, uy = b.lock("y"), b.unlock("y")
        b.chain(lx, ux, ly, uy)          # site-1 sequence
        lz, uz = b.lock("z"), b.unlock("z")
        b.chain(lz, uz)                  # site-2 sequence
        b.arc(ly, lz)                    # cross-site dependency
        t1 = b.build()

    ``lock``/``unlock``/``action`` return node ids to wire with
    :meth:`arc` / :meth:`chain`. Lock-before-unlock arcs are **not**
    implicit; add them (or call :meth:`auto_close`).
    """

    def __init__(self, name: str, schema: DatabaseSchema | None = None):
        self.name = name
        self.schema = schema
        self._ops: list[Operation] = []
        self._arcs: list[tuple[int, int]] = []

    def _add(self, op: Operation) -> int:
        self._ops.append(op)
        return len(self._ops) - 1

    def lock(self, entity: Entity) -> int:
        """Append an ``L entity`` node; returns its node id."""
        return self._add(Operation.lock(entity))

    def unlock(self, entity: Entity) -> int:
        """Append a ``U entity`` node; returns its node id."""
        return self._add(Operation.unlock(entity))

    def action(self, entity: Entity) -> int:
        """Append an ``A.entity`` node; returns its node id."""
        return self._add(Operation.action(entity))

    def arc(self, u: int, v: int) -> "TransactionBuilder":
        """Record that node ``u`` precedes node ``v``."""
        self._arcs.append((u, v))
        return self

    def chain(self, *nodes: int) -> "TransactionBuilder":
        """Record a total order over the given nodes."""
        for u, v in zip(nodes, nodes[1:]):
            self._arcs.append((u, v))
        return self

    def sequence(self, ops: Sequence[Operation | str]) -> list[int]:
        """Append a chain of operations; returns their node ids."""
        nodes = []
        for op in ops:
            parsed = op if isinstance(op, Operation) else Operation.parse(op)
            nodes.append(self._add(parsed))
        self.chain(*nodes)
        return nodes

    def auto_close(self) -> "TransactionBuilder":
        """Add the ``Lx -> Ux`` arc for every accessed entity."""
        lock_of: dict[Entity, int] = {}
        unlock_of: dict[Entity, int] = {}
        for node, op in enumerate(self._ops):
            if op.kind is OpKind.LOCK:
                lock_of[op.entity] = node
            elif op.kind is OpKind.UNLOCK:
                unlock_of[op.entity] = node
        for entity, lock in lock_of.items():
            if entity in unlock_of:
                self._arcs.append((lock, unlock_of[entity]))
        return self

    def build(self, read_set: Iterable[Entity] = ()) -> Transaction:
        """Validate and return the immutable Transaction."""
        return Transaction(
            self.name, self._ops, self._arcs, self.schema, read_set
        )
