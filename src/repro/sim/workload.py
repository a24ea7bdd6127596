"""Random workload generation: schemas, transactions, systems.

The generator, :class:`CompiledWorkload`, builds *valid* distributed
transactions by construction:

1. choose the accessed entities and, per entity, an optional number of
   action steps;
2. lay the per-entity chains ``Lx (A.x)* Ux`` down in a random riffle —
   this reference sequence is a legal total order;
3. emit per-site chains (the reference order restricted to each site)
   as arcs, which satisfies the per-site total-order requirement;
4. sprinkle extra cross-site arcs consistent with the reference order
   (probability ``cross_arc_p``), making the partial order tighter.

Because every arc follows the reference order, the result is acyclic
and has the reference sequence as a linear extension. ``shape``
controls the locking style:

* ``"random"`` — arbitrary riffle of the entity chains;
* ``"two_phase"`` — all Locks before any Unlock (2PL);
* ``"sequential"`` — the transaction is the reference total order
  itself (a centralized-style transaction);
* ``"ordered_2pl"`` — 2PL with Locks acquired in the global entity
  order: statically safe and deadlock-free by construction.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, chain

from repro.core.entity import DatabaseSchema, Entity
from repro.core.operations import Operation, OpKind
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.util.dag import Dag

__all__ = [
    "CompiledWorkload",
    "SHAPES",
    "WorkloadSpec",
    "random_schema",
    "random_system",
    "random_transaction",
]

#: The locking styles ``WorkloadSpec.shape`` accepts (see the module
#: docstring).
SHAPES = ("random", "two_phase", "sequential", "ordered_2pl")

#: The one empty read set that every all-write generated transaction
#: (and every simulator instance without shared-mode locks) shares:
#: ``frozenset()`` is not a singleton, and each one costs 216 bytes.
NO_READS: frozenset = frozenset()


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a random workload.

    Attributes:
        n_transactions: number of transactions.
        n_entities: size of the entity pool.
        n_sites: number of sites the pool is spread over.
        entities_per_txn: inclusive (lo, hi) range of entities accessed.
        actions_per_entity: inclusive (lo, hi) range of A-steps per
            accessed entity.
        cross_arc_p: probability of each admissible extra cross-site arc.
        shape: locking style (see module docstring).
        hotspot_skew: 0 = uniform entity choice; larger values
            concentrate accesses on low-numbered entities
            (P(i) ∝ 1/(1+i)^skew).
        read_fraction: probability that an accessed entity is only
            *read* (shared lock on one/a quorum of replicas) rather
            than written (exclusive locks). 0 (the default) keeps the
            paper's all-exclusive model and draws no extra randomness,
            so historical workloads are reproduced bit for bit.
        replication_factor: copies of each entity, spread over distinct
            sites by :class:`~repro.sim.replication.ReplicatedSchema`
            (clamped to the site count). 1 (the default) is the
            paper's single-copy model.
    """

    n_transactions: int = 4
    n_entities: int = 8
    n_sites: int = 3
    entities_per_txn: tuple[int, int] = (2, 4)
    actions_per_entity: tuple[int, int] = (0, 1)
    cross_arc_p: float = 0.25
    shape: str = "random"
    hotspot_skew: float = 0.0
    read_fraction: float = 0.0
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(
                f"unknown shape {self.shape!r}; choose from {SHAPES}"
            )
        if self.n_transactions < 0:
            raise ValueError(
                f"n_transactions must be >= 0, got {self.n_transactions}"
            )
        if self.n_entities < 1:
            raise ValueError(f"n_entities must be >= 1, got {self.n_entities}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        for label, (lo, hi) in (
            ("entities_per_txn", self.entities_per_txn),
            ("actions_per_entity", self.actions_per_entity),
        ):
            if lo < 0:
                raise ValueError(
                    f"{label} bounds must be non-negative, got ({lo}, {hi})"
                )
            if lo > hi:
                raise ValueError(
                    f"{label} range ({lo}, {hi}) is empty: lo > hi"
                )
        if not 0.0 <= self.cross_arc_p <= 1.0:
            raise ValueError(
                f"cross_arc_p must be in [0, 1], got {self.cross_arc_p}"
            )
        if self.hotspot_skew < 0:
            raise ValueError(
                f"hotspot_skew must be >= 0, got {self.hotspot_skew}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, "
                f"got {self.replication_factor}"
            )


def random_schema(
    rng: random.Random, n_entities: int, n_sites: int
) -> DatabaseSchema:
    """Spread ``n_entities`` entities over ``n_sites`` sites.

    Every site receives at least one entity when possible; the remainder
    is assigned uniformly.
    """
    entities = [f"e{i}" for i in range(n_entities)]
    sites = [f"s{i}" for i in range(min(n_sites, n_entities))]
    placement: dict[Entity, str] = {}
    shuffled = entities[:]
    rng.shuffle(shuffled)
    for i, site in enumerate(sites):
        placement[shuffled[i]] = site
    for entity in shuffled[len(sites):]:
        placement[entity] = rng.choice(sites)
    return DatabaseSchema(placement)


def _structural_arcs(
    spec: WorkloadSpec, sequence: list[Operation], flat: list[int],
    succ: list[int], pred: list[int],
) -> None:
    """Lay down the arcs that make the *partial order* match the shape.

    The per-site chains alone leave cross-site operations unordered, so
    a "two-phase" reference sequence would not yield a two-phase partial
    order (an Unlock at one site could run before a Lock at another).
    For the 2PL shapes we therefore add every Lock -> Unlock arc, and
    for ``ordered_2pl`` we additionally chain the Locks in the global
    entity order — making the lock-ordering prevention argument hold
    across sites, not just within them. Each arc is laid down as
    :meth:`CompiledWorkload.generate` lays down its own.
    """
    if spec.shape not in ("two_phase", "ordered_2pl"):
        return
    lock_ids = [
        i for i, op in enumerate(sequence) if op.kind is OpKind.LOCK
    ]
    unlock_ids = [
        i for i, op in enumerate(sequence) if op.kind is OpKind.UNLOCK
    ]
    arcs = ((u, v) for u in lock_ids for v in unlock_ids)
    if spec.shape == "ordered_2pl":
        arcs = chain(arcs, zip(lock_ids, lock_ids[1:]))
    push = flat.append
    for u, v in arcs:
        push(u)
        push(v)
        succ[u] |= 1 << v
        pred[v] |= 1 << u


class CompiledWorkload:
    """One spec's generation tables over one schema: the generator.

    Compiling hoists every spec/schema constant out of the per-call
    work: the sorted entity pool and its hotspot weights are computed
    once, the per-entity ``Lx``/``A.x``/``Ux`` :class:`Operation`
    objects are built once and reused (they are immutable), and
    entity-to-site routing is one dict hit. :meth:`generate` builds
    every generated transaction — closed batches through
    :func:`random_system`, one-off calls through
    :func:`random_transaction`, and open-system arrivals — and the
    sequence of its RNG draws is part of a workload's identity. Its
    output is valid by construction (see the module docstring), so it
    is assembled through ``Transaction.trusted`` over ``Dag.from_masks``,
    whose masks it sets as it draws each arc: re-validation would only
    re-prove the invariants.
    """

    __slots__ = (
        "spec", "schema", "pool", "weights", "site_of", "lock_op",
        "unlock_op", "action_op",
    )

    def __init__(self, spec: WorkloadSpec, schema: DatabaseSchema):
        self.spec = spec
        self.schema = schema
        self.pool: list[Entity] = list(schema.entities_sorted())
        # Zipf-style: P(i) ∝ 1/(1+i)^skew.
        self.weights: tuple[float, ...] | None = (
            tuple(
                1.0 / (1 + i) ** spec.hotspot_skew
                for i in range(len(self.pool))
            )
            if spec.hotspot_skew > 0
            else None
        )
        self.site_of: dict[Entity, str] = {
            entity: schema.site_of(entity) for entity in self.pool
        }
        self.lock_op = {e: Operation.lock(e) for e in self.pool}
        self.unlock_op = {e: Operation.unlock(e) for e in self.pool}
        self.action_op = {e: Operation.action(e) for e in self.pool}

    def _pick_entities(self, rng: random.Random) -> list[Entity]:
        # Weighted sampling without replacement: each pick draws a
        # point up to the total weight and takes the first candidate
        # whose prefix sum reaches it (bisect_left over the prefix
        # sums).
        pool = self.pool
        lo, hi = self.spec.entities_per_txn
        count = min(rng.randint(lo, hi), len(pool))
        weights = self.weights
        if weights is None:
            return rng.sample(pool, count)
        cand_e = list(pool)
        cand_w = list(weights)
        chosen: list[Entity] = []
        uniform = rng.uniform
        for _ in range(count):
            prefix = list(accumulate(cand_w))
            point = uniform(0, prefix[-1])
            index = bisect_left(prefix, point)
            if index < len(cand_e):
                chosen.append(cand_e[index])
                del cand_e[index]
                del cand_w[index]
        return chosen

    def _checked(self, entities: Iterable[Entity]) -> list[Entity]:
        """A caller's fixed entities, rejecting unknown or repeated ones."""
        accessed = list(entities)
        seen: set[Entity] = set()
        for entity in accessed:
            if entity not in self.site_of:
                raise ValueError(f"entity {entity!r} is not in the schema")
            if entity in seen:
                raise ValueError(f"entity {entity!r} is listed twice")
            seen.add(entity)
        return accessed

    def _reference_sequence(
        self, rng: random.Random, entities: list[Entity]
    ) -> list[Operation]:
        """A legal total order over the chosen entities' operations."""
        spec = self.spec
        lo, hi = spec.actions_per_entity
        lock_op = self.lock_op
        unlock_op = self.unlock_op
        action_op = self.action_op
        chains = {}
        for entity in entities:
            n_actions = rng.randint(lo, hi)
            chain = [lock_op[entity]]
            if n_actions:
                chain.extend([action_op[entity]] * n_actions)
            chain.append(unlock_op[entity])
            chains[entity] = chain

        if spec.shape in ("two_phase", "ordered_2pl"):
            ordered = sorted(entities) if spec.shape == "ordered_2pl" else (
                rng.sample(entities, len(entities))
            )
            sequence = [lock_op[entity] for entity in ordered]
            middles = [op for e in ordered for op in chains[e][1:-1]]
            rng.shuffle(middles)
            sequence.extend(middles)
            release = ordered[:]
            if spec.shape != "ordered_2pl":
                rng.shuffle(release)
            sequence.extend(
                unlock_op[entity] for entity in reversed(release)
            )
            return sequence

        # Random riffle of the per-entity chains: each entity's
        # iterator yields its chain in order as the shuffled slots
        # name it.
        cursors = {entity: iter(chains[entity]) for entity in entities}
        remaining = [entity for entity in entities for _ in chains[entity]]
        rng.shuffle(remaining)
        return [next(cursors[entity]) for entity in remaining]

    def generate(
        self,
        name: str,
        rng: random.Random,
        entities: Iterable[Entity] | None = None,
    ) -> Transaction:
        """One random valid transaction over the compiled schema.

        Args:
            name: transaction name.
            rng: seeded randomness source.
            entities: fix the accessed entities instead of sampling
                them (an empty list falls back to one random entity).

        Raises:
            ValueError: if ``entities`` names an entity twice or one
                outside the schema (checked before any draw).
        """
        spec = self.spec
        if entities is None:
            accessed = self._pick_entities(rng)
        else:
            accessed = self._checked(entities)
        if not accessed:
            accessed = [rng.choice(self.pool)]
        # Reads are drawn before the sequence so the RNG stream position
        # is well defined; read_fraction == 0 draws nothing, which is
        # what keeps historical all-write workloads bit-identical.
        read_set: frozenset[Entity] = NO_READS
        if spec.read_fraction > 0:
            read_fraction = spec.read_fraction
            read_set = frozenset(
                entity
                for entity in accessed
                if rng.random() < read_fraction
            )
        sequence = self._reference_sequence(rng, accessed)

        # Each arc goes straight into the Dag's trusted form: the flat
        # node ids and both direct masks. Per-site chains come first,
        # from the reference order; the sequential shape is one chain.
        n_ops = len(sequence)
        flat: list[int] = []
        push = flat.append
        succ = [0] * n_ops
        pred = [0] * n_ops
        site_of = self.site_of
        op_sites = (
            [None] * n_ops if spec.shape == "sequential"
            else [site_of[op.entity] for op in sequence]
        )
        last_at_site: dict[str | None, int] = {}
        for v, site in enumerate(op_sites):
            u = last_at_site.get(site)
            if u is not None:
                push(u)
                push(v)
                succ[u] |= 1 << v
                pred[v] |= 1 << u
            last_at_site[site] = v

        # Cross-site arcs: one draw per cross-site (u, v) pair, in
        # (u, v) order — the draw sequence is workload identity, so the
        # loop shape must not change.
        cross_p = spec.cross_arc_p
        random_draw = rng.random
        for u in range(n_ops):
            site_u = op_sites[u]
            for v in range(u + 1, n_ops):
                if site_u != op_sites[v] and random_draw() < cross_p:
                    push(u)
                    push(v)
                    succ[u] |= 1 << v
                    pred[v] |= 1 << u

        # Shape-defining arcs (2PL closure, global lock chain).
        _structural_arcs(spec, sequence, flat, succ, pred)
        # Packed, 4 bytes per node id: an open run keeps every arrival's
        # arc list, read only by a static query of ``Dag.arcs``.
        return Transaction.trusted(
            name, sequence,
            Dag.from_masks(n_ops, array("I", flat), succ, pred),
            self.schema, read_set,
        )


def random_transaction(
    name: str,
    rng: random.Random,
    schema: DatabaseSchema,
    spec: WorkloadSpec,
    entities: list[Entity] | None = None,
) -> Transaction:
    """Generate one random valid transaction over ``schema``.

    One call of :meth:`CompiledWorkload.generate`, which documents
    ``name``, ``rng`` and ``entities``; to generate many transactions
    over one spec and schema, compile once and call ``generate``, as
    :func:`random_system` does.
    """
    return CompiledWorkload(spec, schema).generate(name, rng, entities)


def random_system(
    rng: random.Random, spec: WorkloadSpec | None = None
) -> TransactionSystem:
    """Generate a random transaction system per ``spec``."""
    spec = spec or WorkloadSpec()
    schema = random_schema(rng, spec.n_entities, spec.n_sites)
    generate = CompiledWorkload(spec, schema).generate
    return TransactionSystem(
        [generate(f"T{i + 1}", rng) for i in range(spec.n_transactions)]
    )
