"""Run-time replica state: placement, staleness, availability.

The :class:`ReplicaManager` is the simulator's single point of contact
with the replication layer. It owns

* the :class:`~repro.sim.replication.schema.ReplicatedSchema` derived
  from the run's workload spec (deterministic round-robin placement —
  no RNG stream is consumed, preserving run-level determinism);
* the protocol instance chosen by ``SimulationConfig.replica_protocol``;
* the *staleness* table, split into the two ways a copy can be unfit
  to serve reads under write-all-available:

  - **missed** — the copy provably missed a committed write: the write
    locked the replicas it could reach and this site was not among
    them. Only a later write that reaches the site clears it.
  - **unvalidated** — the site is freshly recovered and has not yet
    finished catching up. Its durable data may well be the latest
    version, but a recovering site cannot know what it missed, so it
    must *catch up before serving reads*: recovery starts an
    anti-entropy scan (one ``replica_catchup`` event per
    ``config.catchup_time``) that validates each copy against an up,
    fully current replica of the same entity — or, when no copy of an
    entity is fully current anywhere, by full-set reconciliation among
    the up copies that missed nothing (durable version stamps make the
    maximal version identifiable). Copies with no live source stay
    unvalidated and the scan retries; a fresh write (which targets
    every available replica, recovering ones included) also refreshes
    a copy early.

  A copy serves reads only when it is in neither set. Under strict
  ``rowa`` no committed write can ever skip a replica, so reads ignore
  the table; ``quorum`` masks staleness by version intersection
  instead of avoiding it. Catch-up events exist only when the schema
  is actually replicated *and* the protocol consults staleness
  (``rowa-available``): a single copy can never miss a write — a write
  to its entity needs the copy up — so single-copy recovery is
  trivially valid and the seed event stream is untouched;

* the availability integral: the fraction of entities whose read rule
  / write rule / both are currently satisfiable, integrated over
  simulated time. ``rowa`` loses write availability as soon as one
  replica site is down, ``rowa-available`` loses read availability
  while every current copy of an entity is crashed or awaiting
  catch-up, and ``quorum`` stays up through every minority failure.

Internally everything is keyed on the simulator's interned entity and
site ids (:meth:`~repro.sim.runtime.Simulator.entity_id` /
:meth:`~repro.sim.runtime.Simulator.site_id`): the hot per-lock calls
are :meth:`read_sids`/:meth:`write_sids`, and without fault injection
:meth:`constant_routes` precomputes every answer so the per-request
protocol call disappears entirely. The historical name-based methods
(``read_sites``, ``stale_replicas``, ...) remain as thin wrappers.

With ``replication_factor=1`` every entity has exactly its primary
replica, all protocols pick that single site, and the manager adds no
events, consumes no randomness, and changes no seed-era result field —
the bit-identical reduction the golden digest matrix pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.entity import Entity, Site
from repro.sim.replication.protocols import make_replica_control
from repro.sim.replication.schema import ReplicatedSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runtime import Simulator, _Instance

__all__ = ["ReplicaManager"]


class ReplicaManager:
    """Replica placement, staleness, and availability for one run."""

    __slots__ = (
        "sim", "schema", "control", "_replica_sids", "_hosted_eids",
        "_n_entities", "_missed", "_unvalidated", "_catchup_active",
        "_const_read", "_const_write",
        "_last_time", "_read_area", "_write_area", "_service_area",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        spec = sim.config.workload
        factor = spec.replication_factor if spec is not None else 1
        self.schema = ReplicatedSchema.round_robin(sim.schema, factor)
        self.control = make_replica_control(sim.config.replica_protocol)
        # Interned placement: eid -> ordered replica sids (primary
        # first), sid -> eids hosted there.
        site_id = sim.site_id
        self._replica_sids: list[tuple[int, ...]] = [
            tuple(site_id(s) for s in self.schema.replicas_of(name))
            for name in sim._entity_names
        ]
        self._hosted_eids: list[tuple[int, ...]] = [
            tuple(sorted(
                sim.entity_id(e) for e in self.schema.hosted_at(name)
            ))
            for name in sim._site_names
        ]
        self._n_entities = len(sim._entity_names)
        self._missed: dict[int, set[int]] = {}  # sid -> eids
        self._unvalidated: dict[int, set[int]] = {}  # sid -> eids
        self._catchup_active = (
            self.schema.is_replicated() and self.control.uses_staleness
        )
        if self._catchup_active:
            sim.register_handler("replica_catchup", self._on_catchup)
        # Routes valid whenever every site is up and nothing is stale
        # — the common state even in failure-enabled runs.
        self._const_read, self._const_write = self.constant_routes()
        self._last_time = 0.0
        self._read_area = 0.0
        self._write_area = 0.0
        self._service_area = 0.0

    # ------------------------------------------------------------------
    # site selection (called on every Lock issue)
    # ------------------------------------------------------------------

    def _up(self, sid: int) -> bool:
        # The failure injector is the single source of up/down truth;
        # its crash/recover handlers call the hooks below *before*
        # flipping state, so availability integration always covers the
        # pre-event interval with the pre-event state.
        sim = self.sim
        return sim.failures is None or sim._site_up[sid]

    def _is_stale(self, sid: int, eid: int) -> bool:
        return (
            eid in self._missed.get(sid, ())
            or eid in self._unvalidated.get(sid, ())
        )

    def _stale_sids(self, eid: int) -> tuple[int, ...]:
        if not self._missed and not self._unvalidated:
            return ()
        return tuple(
            sid
            for sid in self._replica_sids[eid]
            if self._is_stale(sid, eid)
        )

    def read_sids(
        self, eid: int, from_sid: int = -1
    ) -> tuple[int, ...] | None:
        """Replica sids a read of entity ``eid`` must lock now.

        ``from_sid`` is the requesting client's home site: during a
        partition episode only replicas on the client's side of the
        cut are eligible (a real client cannot reach the others).
        With ``from_sid < 0`` — availability integration, name-based
        wrappers — the rule counts as satisfiable if *some* side of
        the cut satisfies it.
        """
        sim = self.sim
        network = sim.network
        if network is not None and network.cut is not None:
            return self._route_under_cut(eid, from_sid, network, True)
        if sim.failures is None or (
            sim._down_count == 0
            and not self._missed
            and not self._unvalidated
        ):
            return self._const_read[eid]
        replicas = self._replica_sids[eid]
        site_up = sim._site_up
        up = [sid for sid in replicas if site_up[sid]]
        return self.control.read_sites(replicas, up, self._stale_sids(eid))

    def write_sids(
        self, eid: int, from_sid: int = -1
    ) -> tuple[int, ...] | None:
        """Replica sids a write of entity ``eid`` must lock now.

        ``from_sid`` as in :meth:`read_sids`.
        """
        sim = self.sim
        network = sim.network
        if network is not None and network.cut is not None:
            return self._route_under_cut(eid, from_sid, network, False)
        if sim.failures is None or sim._down_count == 0:
            return self._const_write[eid]
        replicas = self._replica_sids[eid]
        site_up = sim._site_up
        up = [sid for sid in replicas if site_up[sid]]
        return self.control.write_sites(replicas, up)

    def _route_under_cut(
        self, eid: int, from_sid: int, network, read: bool
    ) -> tuple[int, ...] | None:
        """Protocol routing restricted to one side of an active cut.

        Unreachable replicas are withheld from the protocol's ``up``
        list exactly as crashed ones are — so ``rowa`` writes fail
        fast (abort and retry rather than wedge on a fan-out that
        cannot arrive), ``rowa-available`` writes reach their side and
        mark the far side missed, and ``quorum`` keeps committing on
        whichever side holds a majority.
        """
        replicas = self._replica_sids[eid]
        control = self.control
        stale = self._stale_sids(eid) if read else ()
        if from_sid >= 0:
            probes: tuple[int, ...] = (from_sid,)
        else:
            # No client perspective: satisfiable if some side is.
            side = network.cut
            n_sites = len(self.sim._site_names)
            probes = (
                min(side),
                min(sid for sid in range(n_sites) if sid not in side),
            )
        for probe in probes:
            up = [
                sid
                for sid in replicas
                if self._up(sid) and network.reachable(probe, sid)
            ]
            sites = (
                control.read_sites(replicas, up, stale)
                if read
                else control.write_sites(replicas, up)
            )
            if sites is not None:
                return sites
        return None

    def constant_routes(
        self,
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Per-entity ``(read, write)`` routes valid while every site
        is up and no copy is stale.

        Without fault injection that is the whole run: every protocol's
        choice is a constant of the schema, and :meth:`read_sids`/
        :meth:`write_sids` index these tables instead of calling the
        protocol per request.
        """
        control = self.control
        reads: list[tuple[int, ...]] = []
        writes: list[tuple[int, ...]] = []
        for replicas in self._replica_sids:
            reads.append(control.read_sites(replicas, replicas, ()))
            writes.append(control.write_sites(replicas, replicas))
        return reads, writes

    # ------------------------------------------------------------------
    # name-based wrappers (tests, external callers)
    # ------------------------------------------------------------------

    def _names(
        self, sids: tuple[int, ...] | None
    ) -> tuple[Site, ...] | None:
        if sids is None:
            return None
        site_name = self.sim.site_name
        return tuple(site_name(sid) for sid in sids)

    def read_sites(self, entity: Entity) -> tuple[Site, ...] | None:
        """Replica site names a read of ``entity`` must lock (or None)."""
        return self._names(self.read_sids(self.sim.entity_id(entity)))

    def write_sites(self, entity: Entity) -> tuple[Site, ...] | None:
        """Replica site names a write of ``entity`` must lock (or None)."""
        return self._names(self.write_sids(self.sim.entity_id(entity)))

    def primary_of(self, entity: Entity) -> Site:
        return self.schema.primary_of(entity)

    def stale_replicas(self, entity: Entity) -> frozenset[Site]:
        """The replica sites of ``entity`` currently unfit for reads."""
        eid = self.sim.entity_id(entity)
        site_name = self.sim.site_name
        return frozenset(
            site_name(sid) for sid in self._stale_sids(eid)
        )

    def missed_replicas(self, entity: Entity) -> frozenset[Site]:
        """The replica sites that provably missed a committed write."""
        eid = self.sim.entity_id(entity)
        site_name = self.sim.site_name
        return frozenset(
            site_name(sid)
            for sid in self._replica_sids[eid]
            if eid in self._missed.get(sid, ())
        )

    # ------------------------------------------------------------------
    # state transitions (failure injector and commit hooks)
    # ------------------------------------------------------------------

    def _discard(
        self, table: dict[int, set[int]], sid: int, eid: int
    ) -> None:
        marks = table.get(sid)
        if marks:
            marks.discard(eid)
            if not marks:
                del table[sid]

    def on_crash(self, site: Site) -> None:
        """A site crashed (availability bookkeeping only).

        Its copies are unreachable while down; whether they are still
        *fit* on recovery is decided then. Must run *before* the
        injector marks the site down.
        """
        self._integrate()

    def on_recover(self, site: Site) -> None:
        """A site repaired: it must catch up before serving reads.

        Every hosted copy becomes unvalidated and an anti-entropy scan
        is scheduled ``config.catchup_time`` out — during that window
        the site takes writes (which validate the copies they refresh)
        but serves no reads. Must run *before* the injector marks the
        site up.
        """
        self._integrate()
        if not self._catchup_active:
            return
        sid = self.sim.site_id(site)
        hosted = self._hosted_eids[sid]
        if not hosted:
            return
        self._unvalidated.setdefault(sid, set()).update(hosted)
        self.sim.schedule(
            self.sim.config.catchup_time, ("replica_catchup", site)
        )

    def on_partition_cut(self) -> None:
        """A partition episode begins (availability bookkeeping only).

        Must run *before* the network model installs the cut, so the
        integral covers the pre-cut interval with pre-cut state — the
        same convention as :meth:`on_crash`.
        """
        self._integrate()

    def on_partition_heal(self) -> None:
        """A partition healed: copies that missed writes catch up.

        The partition-side analogue of a repair: every copy that
        missed a write while unreachable re-enters the anti-entropy
        scan and validates against a current replica. Must run
        *before* the network model clears the cut.
        """
        self._integrate()
        if not self._catchup_active:
            return
        sim = self.sim
        stale_sids = sorted(set(self._missed) | set(self._unvalidated))
        for sid in stale_sids:
            missed = self._missed.get(sid)
            if missed:
                self._unvalidated.setdefault(sid, set()).update(missed)
            sim.schedule(
                sim.config.catchup_time,
                ("replica_catchup", sim.site_name(sid)),
            )

    def _on_catchup(self, site: Site) -> None:
        """Anti-entropy scan: validate the site's copies where possible.

        A copy validates against any up, fully current replica of its
        entity; when *no* copy of the entity is fully current anywhere,
        the up copies that missed nothing reconcile among themselves
        (their durable version stamps identify the maximal version) and
        all validate together. Copies left without a source keep the
        scan alive — unless the run has drained, which would otherwise
        pad the queue with retries to the horizon.
        """
        sid = self.sim.site_id(site)
        if not self._up(sid):
            return  # crashed again; the next recovery rescans
        marks = self._unvalidated.get(sid)
        if not marks:
            return
        self._integrate()
        for eid in sorted(marks):
            if self._validate(sid, eid):
                marks.discard(eid)
        if not marks:
            del self._unvalidated[sid]
        elif self.sim.has_uncommitted():
            self.sim.schedule(
                self.sim.config.catchup_time, ("replica_catchup", site)
            )

    def _validate(self, sid: int, eid: int) -> bool:
        peers = [
            peer
            for peer in self._replica_sids[eid]
            if peer != sid and self._up(peer)
        ]
        if any(not self._is_stale(peer, eid) for peer in peers):
            # Synced from a fully current live copy — this also repairs
            # a copy that had missed writes.
            self._discard(self._missed, sid, eid)
            return True
        if eid in self._missed.get(sid, ()):
            return False  # outdated, and no current source to copy from
        # No copy of the entity is validated anywhere, but this one
        # missed nothing: its durable version is maximal (the simulator
        # stands in for the version-vector proof a real site would
        # assemble), so it revalidates — and so does every live peer
        # that missed nothing.
        for peer in peers:
            if eid not in self._missed.get(peer, ()):
                self._discard(self._unvalidated, peer, eid)
        return True

    def on_commit(self, inst: "_Instance") -> None:
        """Apply a committed transaction's writes to the staleness table.

        Every replica the write locked takes the new value — current
        and validated by construction; every replica it skipped (down,
        or excluded from the write quorum) missed it.
        """
        if not self._catchup_active:
            # rowa never skips a replica and quorum's read rule ignores
            # staleness, so for them commit-time bookkeeping cannot
            # change any observable state — skip the O(entities) scan.
            return
        written = inst.write_eids
        if not written:
            return
        lock_sites = inst.lock_sites
        replica_sids = self._replica_sids
        if not self._missed and not self._unvalidated:
            locked_everything = True
            for eid in written:
                reached = lock_sites.get(eid, ())
                if any(sid not in reached for sid in replica_sids[eid]):
                    locked_everything = False
                    break
            if locked_everything:
                # Nothing is stale and every write reached every
                # replica: the tables cannot change, so skip the
                # bookkeeping pass (the common failure-free case).
                return
        self._integrate()
        for eid in written:
            reached = set(lock_sites.get(eid, ()))
            for sid in replica_sids[eid]:
                if sid in reached:
                    self._discard(self._missed, sid, eid)
                    self._discard(self._unvalidated, sid, eid)
                else:
                    self._missed.setdefault(sid, set()).add(eid)

    def finalize(self) -> None:
        """Close the availability integral and publish it to the result."""
        self._integrate()
        result = self.sim.result
        result.read_avail_area = self._read_area
        result.write_avail_area = self._write_area
        result.service_avail_area = self._service_area

    # ------------------------------------------------------------------
    # availability integration
    # ------------------------------------------------------------------

    def _integrate(self) -> None:
        """Accumulate availability over [last state change, now]."""
        now = self.sim.now
        dt = now - self._last_time
        self._last_time = now
        if dt <= 0:
            return
        n = self._n_entities
        if not n:
            return
        readable = writable = serviceable = 0
        for eid in range(n):
            read_ok = self.read_sids(eid) is not None
            write_ok = self.write_sids(eid) is not None
            readable += read_ok
            writable += write_ok
            serviceable += read_ok and write_ok
        self._read_area += dt * readable / n
        self._write_area += dt * writable / n
        self._service_area += dt * serviceable / n
