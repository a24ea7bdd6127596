"""Random workload generation: schemas, transactions, systems.

The generator builds *valid* distributed transactions by construction:

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
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

from repro.core.entity import DatabaseSchema, Entity
from repro.core.operations import Operation, OpKind
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction

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


@lru_cache(maxsize=64)
def _hotspot_weights(n: int, skew: float) -> tuple[float, ...]:
    """Zipf-style weights, memoized (recomputed per arrival otherwise)."""
    return tuple(1.0 / (1 + i) ** skew for i in range(n))


def _pick_entities(
    rng: random.Random, spec: WorkloadSpec, pool: list[Entity]
) -> list[Entity]:
    lo, hi = spec.entities_per_txn
    count = min(rng.randint(lo, hi), len(pool))
    if spec.hotspot_skew <= 0:
        return rng.sample(pool, count)
    weights = _hotspot_weights(len(pool), spec.hotspot_skew)
    chosen: list[Entity] = []
    candidates = list(zip(pool, weights))
    for _ in range(count):
        total = sum(w for _e, w in candidates)
        point = rng.uniform(0, total)
        acc = 0.0
        for index, (entity, weight) in enumerate(candidates):
            acc += weight
            if point <= acc:
                chosen.append(entity)
                del candidates[index]
                break
    return chosen


def _reference_sequence(
    rng: random.Random,
    spec: WorkloadSpec,
    entities: list[Entity],
) -> list[Operation]:
    """A legal total order over the chosen entities' operations."""
    lo, hi = spec.actions_per_entity
    chains = {}
    for entity in entities:
        n_actions = rng.randint(lo, hi)
        chains[entity] = (
            [Operation.lock(entity)]
            + [Operation.action(entity) for _ in range(n_actions)]
            + [Operation.unlock(entity)]
        )

    if spec.shape in ("two_phase", "ordered_2pl"):
        ordered = sorted(entities) if spec.shape == "ordered_2pl" else (
            rng.sample(entities, len(entities))
        )
        sequence = [Operation.lock(entity) for entity in ordered]
        middles = [op for e in ordered for op in chains[e][1:-1]]
        rng.shuffle(middles)
        sequence.extend(middles)
        release = ordered[:]
        if spec.shape != "ordered_2pl":
            rng.shuffle(release)
        sequence.extend(
            Operation.unlock(entity) for entity in reversed(release)
        )
        return sequence

    # Random riffle of the per-entity chains.
    cursors = {entity: 0 for entity in entities}
    remaining = [entity for entity in entities for _ in chains[entity]]
    rng.shuffle(remaining)
    sequence = []
    for entity in remaining:
        sequence.append(chains[entity][cursors[entity]])
        cursors[entity] += 1
    return sequence


def _structural_arcs(
    spec: WorkloadSpec, sequence: list[Operation]
) -> list[tuple[int, int]]:
    """Arcs that make the *partial order* match the declared shape.

    The per-site chains alone leave cross-site operations unordered, so
    a "two-phase" reference sequence would not yield a two-phase partial
    order (an Unlock at one site could run before a Lock at another).
    For the 2PL shapes we therefore add every Lock -> Unlock arc, and
    for ``ordered_2pl`` we additionally chain the Locks in the global
    entity order — making the lock-ordering prevention argument hold
    across sites, not just within them.
    """
    arcs: list[tuple[int, int]] = []
    if spec.shape not in ("two_phase", "ordered_2pl"):
        return arcs
    lock_ids = [
        i for i, op in enumerate(sequence) if op.kind is OpKind.LOCK
    ]
    unlock_ids = [
        i for i, op in enumerate(sequence) if op.kind is OpKind.UNLOCK
    ]
    arcs.extend((u, v) for u in lock_ids for v in unlock_ids)
    if spec.shape == "ordered_2pl":
        arcs.extend(zip(lock_ids, lock_ids[1:]))
    return arcs


def random_transaction(
    name: str,
    rng: random.Random,
    schema: DatabaseSchema,
    spec: WorkloadSpec,
    entities: list[Entity] | None = None,
) -> Transaction:
    """Generate one random valid transaction over ``schema``.

    Args:
        name: transaction name.
        rng: seeded randomness source.
        schema: entity placement; accessed entities are drawn from it.
        spec: workload parameters.
        entities: fix the accessed entities instead of sampling them.
    """
    pool = list(schema.entities_sorted())
    accessed = entities if entities is not None else _pick_entities(
        rng, spec, pool
    )
    if not accessed:
        accessed = [rng.choice(pool)]
    # Reads are drawn before the sequence so the RNG stream position is
    # well defined; read_fraction == 0 draws nothing, which is what
    # keeps historical all-write workloads bit-identical.
    read_set: frozenset[Entity] = frozenset()
    if spec.read_fraction > 0:
        read_set = frozenset(
            entity
            for entity in accessed
            if rng.random() < spec.read_fraction
        )
    sequence = _reference_sequence(rng, spec, list(accessed))

    if spec.shape == "sequential":
        return Transaction.sequential(name, sequence, schema, read_set)

    # Per-site chains from the reference order. The per-node site list
    # is computed once: the cross-arc double loop below used to call
    # schema.site_of twice per pair.
    op_sites = [schema.site_of(op.entity) for op in sequence]
    arcs: list[tuple[int, int]] = []
    last_at_site: dict[str, int] = {}
    for index, site in enumerate(op_sites):
        if site in last_at_site:
            arcs.append((last_at_site[site], index))
        last_at_site[site] = index

    # Extra cross-site arcs consistent with the reference order (the
    # RNG is drawn for each cross-site pair in (u, v) order — the draw
    # sequence is part of the workload's identity, so the loop shape
    # must not change).
    for u in range(len(sequence)):
        site_u = op_sites[u]
        for v in range(u + 1, len(sequence)):
            if site_u != op_sites[v] and rng.random() < spec.cross_arc_p:
                arcs.append((u, v))

    # Shape-defining arcs (2PL closure, global lock chain).
    arcs.extend(_structural_arcs(spec, sequence))

    # The Lock -> Unlock arc is implied by the same-site chain when the
    # entity's nodes are colocated (they always are — same entity), so
    # the construction is already well formed.
    return Transaction(name, sequence, arcs, schema, read_set)


class CompiledWorkload:
    """One spec's generation tables, precomputed once per run.

    ``random_transaction`` recomputes several spec/schema constants on
    every call — the sorted entity pool, the hotspot weights, each
    operation label, every ``site_of`` lookup — which dominates
    per-arrival cost in open-system runs. Compiling the spec hoists all
    of it: the pool and weights become shared tuples, the per-entity
    ``Lx``/``A.x``/``Ux`` :class:`Operation` objects are built once and
    reused (they are immutable), and entity-to-site routing is one dict
    hit. :meth:`generate` then draws from the RNG in *exactly* the
    sequence ``random_transaction`` does — the draw stream is part of a
    workload's identity, so a compiled generator reproduces the naive
    one bit for bit — and assembles the result through
    ``Transaction.trusted`` (the construction invariants hold by the
    same argument as for ``random_transaction``, so re-validation would
    only re-prove them).
    """

    __slots__ = (
        "spec", "schema", "pool", "weights", "site_of", "lock_op",
        "unlock_op", "action_op",
    )

    def __init__(self, spec: WorkloadSpec, schema: DatabaseSchema):
        self.spec = spec
        self.schema = schema
        self.pool: list[Entity] = list(schema.entities_sorted())
        self.weights: tuple[float, ...] | None = (
            _hotspot_weights(len(self.pool), spec.hotspot_skew)
            if spec.hotspot_skew > 0
            else None
        )
        self.site_of: dict[Entity, str] = {
            entity: schema.site_of(entity) for entity in self.pool
        }
        self.lock_op = {e: Operation.lock(e) for e in self.pool}
        self.unlock_op = {e: Operation.unlock(e) for e in self.pool}
        self.action_op = {e: Operation.action(e) for e in self.pool}

    # ------------------------------------------------------------------
    # draw-identical ports of the module-level helpers
    # ------------------------------------------------------------------

    def _pick_entities(self, rng: random.Random) -> list[Entity]:
        # Mirrors module-level _pick_entities. The linear accumulate
        # scan becomes prefix sums + bisect: the prefix sums are the
        # same left-to-right float additions the scan performed, and
        # bisect_left finds the first index with ``point <=
        # prefix[index]`` — the scan's stopping rule — so every pick
        # (and every draw) is bit-identical.
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

    def _reference_sequence(
        self, rng: random.Random, entities: list[Entity]
    ) -> list[Operation]:
        # Mirrors module-level _reference_sequence with precompiled
        # Operation objects (reused — they are immutable).
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

        # Per-entity iterators replace the cursor dict: next() on a
        # list iterator is one C call, and each chain is consumed
        # exactly once in order — the same sequence the cursor walk
        # produced.
        cursors = {entity: iter(chains[entity]) for entity in entities}
        remaining = [entity for entity in entities for _ in chains[entity]]
        rng.shuffle(remaining)
        return [next(cursors[entity]) for entity in remaining]

    def generate(self, name: str, rng: random.Random) -> Transaction:
        """One arrival's transaction; equal to ``random_transaction``'s.

        Given the same ``rng`` state, the result compares equal to
        ``random_transaction(name, rng, self.schema, self.spec)`` —
        ops, arcs, schema, read set, and site grouping included (the
        property suite pins this).
        """
        spec = self.spec
        accessed = self._pick_entities(rng)
        if not accessed:
            accessed = [rng.choice(self.pool)]
        read_set: frozenset[Entity] = frozenset()
        if spec.read_fraction > 0:
            read_fraction = spec.read_fraction
            read_set = frozenset(
                entity
                for entity in accessed
                if rng.random() < read_fraction
            )
        sequence = self._reference_sequence(rng, list(accessed))

        if spec.shape == "sequential":
            arcs = [(i, i + 1) for i in range(len(sequence) - 1)]
            return Transaction.trusted(
                name, sequence, arcs, self.schema, read_set
            )

        site_of = self.site_of
        op_sites = [site_of[op.entity] for op in sequence]
        arcs = []
        append_arc = arcs.append
        last_at_site: dict[str, int] = {}
        for index, site in enumerate(op_sites):
            prev = last_at_site.get(site)
            if prev is not None:
                append_arc((prev, index))
            last_at_site[site] = index

        # Cross-site arcs: one draw per cross-site (u, v) pair, in
        # (u, v) order — the draw sequence is workload identity.
        cross_p = spec.cross_arc_p
        random_draw = rng.random
        n_ops = len(sequence)
        for u in range(n_ops):
            site_u = op_sites[u]
            for v in range(u + 1, n_ops):
                if site_u != op_sites[v] and random_draw() < cross_p:
                    append_arc((u, v))

        arcs.extend(_structural_arcs(spec, sequence))
        return Transaction.trusted(
            name, sequence, arcs, self.schema, read_set, op_sites
        )


def random_system(
    rng: random.Random, spec: WorkloadSpec | None = None
) -> TransactionSystem:
    """Generate a random transaction system per ``spec``."""
    spec = spec or WorkloadSpec()
    schema = random_schema(rng, spec.n_entities, spec.n_sites)
    transactions = [
        random_transaction(f"T{i + 1}", rng, schema, spec)
        for i in range(spec.n_transactions)
    ]
    return TransactionSystem(transactions)
