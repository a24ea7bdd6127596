"""Per-site lock tables with shared/exclusive modes and FIFO queues.

Each site manages locks on the entity replicas it stores — the
distributed aspect of the model. Grant decisions are purely local;
global phenomena (deadlock among sites) emerge from the composition,
exactly as in the paper's setting.

Two lock modes exist:

* ``"X"`` (exclusive) — the classical mode of the paper: at most one
  holder, everything else queues. This is the default, and with only
  exclusive requests the manager behaves exactly like the historical
  exclusive-only table.
* ``"S"`` (shared) — read locks: any number of shared holders coexist.
  A shared request joins the FIFO queue whenever the queue is
  non-empty, even if the current holders are all shared — writers are
  therefore never starved by a stream of late readers.

Grant policy on release: when the last holder leaves, the queue's
front request is granted, and if it is shared, the maximal prefix of
consecutive shared requests is granted with it (a read batch).

Upgrade path (``S`` -> ``X``): a shared holder may re-request the
entity exclusively. If it is the sole holder the upgrade is immediate;
otherwise the upgrade waits at the *front* of the queue and is granted
when the other shared holders release. Two simultaneous upgrades on
one entity would deadlock against each other, so the second raises
``ValueError`` — callers must abort one of the transactions instead.

Performance notes (the fast-path PR): the wait queue is an
insertion-ordered dict (FIFO by dict order, O(1) membership and
cancellation instead of deque scans), and two per-transaction indexes
— ``_txn_held`` and ``_txn_wait`` — make :meth:`release_all`,
:meth:`involved`, :meth:`held_by`, and :meth:`waiting_for` proportional
to the transaction's own lock state rather than to the site's whole
table. ``release_all`` replays the exact historical release order (the
``_holders`` key insertion order) via per-entity slot counters, so
grant cascades — and therefore whole simulations — stay bit-identical
to the pre-index implementation. An optional ``observer``
(:class:`~repro.sim.waitsfor.SiteCellObserver`) receives the four
primitive cell mutations — wait, unwait, hold, unhold — which is how
the runtime maintains the waits-for graph incrementally at O(edge
delta) cost per lock operation.

Entity keys are opaque hashables: the simulator interns entities to
dense integer ids, while direct users (tests, examples) may keep
strings — the table never inspects the keys beyond hashing/sorting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.entity import Entity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.waitsfor import SiteCellObserver

__all__ = ["EXCLUSIVE", "SHARED", "SiteLockManager"]

SHARED = "S"
EXCLUSIVE = "X"
_MODES = (SHARED, EXCLUSIVE)


class SiteLockManager:
    """Shared/exclusive locks for the entity replicas of one site.

    Lock requests are granted immediately when compatible (see module
    docstring), otherwise queued FIFO. Waiters can be cancelled (policy
    aborts) and holders force-released (wounds, aborts).
    """

    __slots__ = (
        "site", "_holders", "_queue", "_txn_held", "_txn_wait",
        "_slot", "_next_slot", "observer",
    )

    def __init__(self, site: str):
        self.site = site
        # entity -> {txn: mode}; insertion order is grant order, and the
        # *key* order (which entity became continuously held first) is
        # the historical release_all order.
        self._holders: dict[Entity, dict[int, str]] = {}
        # entity -> {txn: mode}; dict order is FIFO queue order.
        self._queue: dict[Entity, dict[int, str]] = {}
        # txn -> entities it holds / waits for at this site.
        self._txn_held: dict[int, set[Entity]] = {}
        self._txn_wait: dict[int, set[Entity]] = {}
        # entity -> monotone counter stamped when its _holders key was
        # created; orders release_all like the _holders dict scan did.
        self._slot: dict[Entity, int] = {}
        self._next_slot = 0
        # Receives wait/unwait/hold/unhold cell mutations (None = no
        # observer; the runtime attaches one for the policies that
        # consume the waits-for graph).
        self.observer: "SiteCellObserver | None" = None

    # ------------------------------------------------------------------
    # index upkeep
    # ------------------------------------------------------------------

    def _new_holder_cell(self, entity: Entity) -> dict[int, str]:
        holders = self._holders.get(entity)
        if holders is None:
            holders = self._holders[entity] = {}
            self._slot[entity] = self._next_slot
            self._next_slot += 1
        return holders

    def _drop_holder_cell_if_empty(self, entity: Entity) -> None:
        if not self._holders.get(entity, True):
            del self._holders[entity]
            del self._slot[entity]

    def _index_add(
        self, index: dict[int, set[Entity]], txn: int, entity: Entity
    ) -> None:
        entities = index.get(txn)
        if entities is None:
            entities = index[txn] = set()
        entities.add(entity)

    def _index_discard(
        self, index: dict[int, set[Entity]], txn: int, entity: Entity
    ) -> None:
        entities = index.get(txn)
        if entities is not None:
            entities.discard(entity)
            if not entities:
                del index[txn]

    # ------------------------------------------------------------------
    # requests and releases
    # ------------------------------------------------------------------

    def request(self, txn: int, entity: Entity, mode: str = EXCLUSIVE) -> bool:
        """Request the lock in ``mode``; True if granted now.

        Raises:
            ValueError: if ``mode`` is unknown, if ``txn`` already holds
                or waits for the entity (the model's one-Lock-per-entity
                rule makes this a caller bug) — except for the defined
                S -> X upgrade — or on a second concurrent upgrade
                (which would deadlock the upgraders against each other).
        """
        if mode not in _MODES:
            raise ValueError(f"unknown lock mode {mode!r}")
        holders = self._holders.get(entity)
        if holders is None:
            # Free entity — the common case: the queue is empty by
            # invariant (waiters exist only under a holder), so grant
            # immediately with the cell bookkeeping inlined.
            self._slot[entity] = self._next_slot
            self._next_slot += 1
            self._holders[entity] = {txn: mode}
            held = self._txn_held.get(txn)
            if held is None:
                self._txn_held[txn] = {entity}
            else:
                held.add(entity)
            if self.observer is not None:
                self.observer.hold(entity, txn)
            return True
        if holders and txn in holders:
            if mode == SHARED or holders[txn] == EXCLUSIVE:
                raise ValueError(f"T{txn} already holds {entity!r}")
            return self._request_upgrade(txn, entity, holders)
        waited = self._txn_wait.get(txn)
        if waited is not None and entity in waited:
            raise ValueError(f"T{txn} already waits for {entity!r}")
        if not holders:
            # A transiently empty cell (mid-grant): reuse it.
            self._new_holder_cell(entity)[txn] = mode
            self._index_add(self._txn_held, txn, entity)
            if self.observer is not None:
                self.observer.hold(entity, txn)
            return True
        queue = self._queue.get(entity)
        if (
            mode == SHARED
            and not queue
            and all(m == SHARED for m in holders.values())
        ):
            holders[txn] = SHARED
            self._index_add(self._txn_held, txn, entity)
            if self.observer is not None:
                self.observer.hold(entity, txn)
            return True
        if queue is None:
            queue = self._queue[entity] = {}
        queue[txn] = mode
        self._index_add(self._txn_wait, txn, entity)
        if self.observer is not None:
            self.observer.wait(entity, txn)
        return False

    def _request_upgrade(
        self, txn: int, entity: Entity, holders: dict[int, str]
    ) -> bool:
        """S -> X upgrade of a current shared holder."""
        if len(holders) == 1:
            holders[txn] = EXCLUSIVE  # membership unchanged: no event
            return True
        queue = self._queue.get(entity)
        if queue:
            front_txn, front_mode = next(iter(queue.items()))
            if front_mode == EXCLUSIVE and front_txn in holders:
                raise ValueError(
                    f"T{txn} and T{front_txn} would deadlock upgrading "
                    f"{entity!r}"
                )
        # The upgrade waits at the *front* of the queue.
        rebuilt = {txn: EXCLUSIVE}
        if queue:
            rebuilt.update(queue)
        self._queue[entity] = rebuilt
        self._index_add(self._txn_wait, txn, entity)
        if self.observer is not None:
            self.observer.wait(entity, txn)
        return False

    def release(self, txn: int, entity: Entity) -> list[int]:
        """Release a held lock; returns the waiters granted by it.

        Zero, one, or many waiters can be granted: none while other
        shared holders remain, one for an exclusive (or upgrade) grant,
        many for a batch of consecutive shared requests.

        Raises:
            ValueError: if ``txn`` does not hold the entity.
        """
        holders = self._holders.get(entity)
        if not holders or txn not in holders:
            raise ValueError(f"T{txn} does not hold {entity!r}")
        del holders[txn]
        self._index_discard(self._txn_held, txn, entity)
        if self.observer is not None:
            self.observer.unhold(entity, txn)
        queue = self._queue.get(entity)
        if queue is None:
            # No waiters: nothing to cancel, nothing to grant.
            if not holders:
                del self._holders[entity]
                del self._slot[entity]
            return []
        # A pending upgrade of the releaser dies with its shared grant.
        if txn in queue:
            self._cancel_queued(txn, entity)
        granted = self._grant_from_queue(entity)
        self._drop_holder_cell_if_empty(entity)
        return granted

    def _grant_from_queue(self, entity: Entity) -> list[int]:
        """Grant whatever the queue's front is now entitled to."""
        queue = self._queue.get(entity)
        if not queue:
            return []
        holders = self._new_holder_cell(entity)
        granted: list[int] = []
        front_txn, front_mode = next(iter(queue.items()))
        if holders:
            if (
                front_mode == EXCLUSIVE
                and len(holders) == 1
                and front_txn in holders
            ):
                # A front-of-queue upgrade whose owner is now the sole
                # holder proceeds (already a holder: unwait only).
                del queue[front_txn]
                self._index_discard(self._txn_wait, front_txn, entity)
                if self.observer is not None:
                    self.observer.unwait(entity, front_txn)
                holders[front_txn] = EXCLUSIVE
                granted.append(front_txn)
            # A cancelled (or upgraded-away) writer can expose a front
            # read batch compatible with all-shared holders.
            share_batch = front_mode == SHARED and all(
                mode == SHARED for mode in holders.values()
            )
        else:
            del queue[front_txn]
            self._index_discard(self._txn_wait, front_txn, entity)
            holders[front_txn] = front_mode
            self._index_add(self._txn_held, front_txn, entity)
            if self.observer is not None:
                self.observer.unwait(entity, front_txn)
                self.observer.hold(entity, front_txn)
            granted.append(front_txn)
            share_batch = front_mode == SHARED
        if share_batch:
            while queue:
                txn, mode = next(iter(queue.items()))
                if mode != SHARED:
                    break
                del queue[txn]
                self._index_discard(self._txn_wait, txn, entity)
                holders[txn] = SHARED
                self._index_add(self._txn_held, txn, entity)
                if self.observer is not None:
                    self.observer.unwait(entity, txn)
                    self.observer.hold(entity, txn)
                granted.append(txn)
        if not queue:
            del self._queue[entity]
        self._drop_holder_cell_if_empty(entity)
        return granted

    def _cancel_queued(self, txn: int, entity: Entity) -> None:
        queue = self._queue.get(entity)
        if not queue or txn not in queue:
            return
        del queue[txn]
        self._index_discard(self._txn_wait, txn, entity)
        if self.observer is not None:
            self.observer.unwait(entity, txn)
        if not queue:
            del self._queue[entity]

    def cancel_wait(self, txn: int, entity: Entity) -> list[int]:
        """Remove ``txn`` from the wait queue of ``entity``.

        Returns the waiters granted by the removal: cancelling a
        queued writer can expose a front batch of shared requests that
        is compatible with the current shared holders (with exclusive
        grants nothing ever unblocks this way, matching the historical
        no-op). No-op for an absent ``txn``.
        """
        queue = self._queue.get(entity)
        if not queue or txn not in queue:
            return []
        self._cancel_queued(txn, entity)
        return self._grant_from_queue(entity)

    def release_all(self, txn: int) -> list[tuple[Entity, list[int]]]:
        """Release every lock ``txn`` holds at this site.

        O(1) when the transaction holds nothing here; otherwise
        proportional to its own held set. The release order is the
        ``_holders`` key order (slot order), matching the historical
        full-table scan exactly — grant cascades depend on it.

        Returns:
            ``(entity, granted_txns)`` for each released entity.
        """
        held = self._txn_held.get(txn)
        if not held:
            return []
        slot = self._slot
        ordered = sorted(held, key=slot.__getitem__)
        return [(entity, self.release(txn, entity)) for entity in ordered]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def holder(self, entity: Entity) -> int | None:
        """The sole holder of ``entity``, or None.

        With shared locks an entity can have many holders; this
        single-holder view (used by exclusive-only callers) answers
        None whenever the holder is not unique — use :meth:`holders`
        for the full list.
        """
        holders = self._holders.get(entity)
        if holders and len(holders) == 1:
            return next(iter(holders))
        return None

    def holders(self, entity: Entity) -> list[int]:
        """Every current holder of ``entity``, sorted."""
        return sorted(self._holders.get(entity, ()))

    def holders_map(self, entity: Entity) -> dict[int, str] | None:
        """The internal holder cell ``{txn: mode}`` (None when free).

        Hot-path accessor for the runtime: grant order preserved, no
        copy. Callers must not mutate it.
        """
        return self._holders.get(entity)

    def queue_map(self, entity: Entity) -> dict[int, str] | None:
        """The internal wait queue ``{txn: mode}`` in FIFO order.

        Hot-path accessor for the runtime; callers must not mutate it.
        """
        return self._queue.get(entity)

    def mode(self, entity: Entity) -> str | None:
        """The granted mode of ``entity`` (None when free)."""
        holders = self._holders.get(entity)
        if not holders:
            return None
        for m in holders.values():
            if m == EXCLUSIVE:
                return EXCLUSIVE
        return SHARED

    def waiters(self, entity: Entity) -> list[int]:
        return list(self._queue.get(entity, ()))

    def involved(self) -> list[int]:
        """Every transaction holding or waiting for a lock at this site.

        Used by the failure injector: a site crash touches exactly the
        transactions with lock state here.
        """
        txns = set(self._txn_held)
        txns.update(self._txn_wait)
        return sorted(txns)

    def held_by(self, txn: int) -> list[Entity]:
        return sorted(self._txn_held.get(txn, ()))

    def waiting_for(self, txn: int) -> list[Entity]:
        return sorted(self._txn_wait.get(txn, ()))

    def __repr__(self) -> str:
        held = {e: dict(h) for e, h in self._holders.items()}
        queued = {e: list(q.items()) for e, q in self._queue.items()}
        return f"SiteLockManager({self.site!r}, held={held}, queued={queued})"
