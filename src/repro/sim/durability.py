"""Per-site write-ahead logging, crash truncation, and recovery replay.

Before this subsystem existed, a crash was idealized: PREPARED
transactions kept their retained locks "(conceptually) on the
write-ahead log" and recovery was a single flag flip. This module
makes that conceptual log real, following Gray & Lamport's *Consensus
on Transaction Commit*: commit-protocol correctness is defined by what
each site **forced to stable storage** before acting.

Force points (the commit protocols force through one helper, which
costs a flush only when ``SimulationConfig.durability`` is set):

* a participant forces a ``prepare`` record — carrying exactly the
  lock entries it retains at that site — before sending VOTE-YES;
* the coordinator forces a ``decision`` record before releasing
  (2PC / presumed-abort commit; plain 2PC also forces its abort
  decisions, the force presumed-abort famously skips);
* a participant forces the ``decision`` record before releasing its
  retained locks and ACKing;
* a Paxos Commit acceptor forces an ``accept`` record before
  registering a vote, and a takeover leader forces a ``ballot``
  record before deposing the old one.

Every force costs ``flush_time`` on the site's timeline (a
``dur_flush`` event; the continuation runs when the flush completes),
so durability is *visible* in the latency decomposition — the
attribution engine carves a conserved ``log_force`` segment out of
commit time.

A crash now truncates volatile state to log contents:

* in-flight flushes are cancelled — their records were never durable;
* the durability fault model draws from its own RNG stream (the
  injector/network convention): ``torn_write_rate`` tears the final
  durable record, ``tail_loss_rate`` loses the tail record the disk
  claimed to have written, and ``amnesia_rate`` wipes the whole log —
  the site must rejoin as a fresh replica via the anti-entropy hooks
  and refuses to vote on state it no longer has (``cm_refuse``);
* the site's lock table is wiped — prepared holders lose their
  retained entries instead of magically keeping them.

Recovery (:meth:`DurabilityManager.on_site_recover`) is an actual
replay. Every append to a site's log keeps its replay state current:
the *open prepares* — each transaction's latest ``prepare`` record
with no ``decision`` record for its attempt — are the in-doubt set.
Recovery re-acquires exactly the log-implied retained locks and
resolves in-doubt transactions by protocol inquiry (``cm_inquire`` /
``cm_status``) over the retransmission channel, re-asking every
``commit_timeout`` while unresolved (suspicion-driven retry — a
partition simply delays resolution, it cannot split it). Stale
records (the round aborted and the transaction moved on) resolve
instantly by presumption, with no physical re-acquisition. A crash
thus costs the site's in-flight flushes and lock table, and a
recovery its open prepares; only a disk fault that drops records
re-reads the site's whole log.

With ``SimulationConfig.durability`` unset nothing here exists: no
events, no RNG draws, no log — every force completes at once, and the
golden-digest matrix pins that run bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.locks import EXCLUSIVE, SHARED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runtime import Simulator

__all__ = ["DurabilityConfig", "DurabilityManager"]

#: seed-derivation constant of the durability-fault stream (the
#: failure injector uses 0x5EED, the network layer 0xC4A05; distinct
#: constants keep the streams independent).
_DISC_SALT = 0xD15C

#: statuses a recovered prepare record may legitimately re-acquire
#: locks for (values of the runtime's private status constants; a
#: module-level import would be an import cycle).
_PREPARED = "prepared"
_COMMITTED = "committed"


@dataclass(frozen=True)
class DurabilityConfig:
    """Durable-storage parameters of a run.

    Attributes:
        flush_time: simulated cost of one forced log write; the
            protocol action gated on the force (VOTE-YES, the release
            fan-out, the participant's ACK) waits for it. 0 keeps the
            forces free but the logging/recovery semantics real.
        tail_loss_rate: probability (drawn once per crash) that the
            last durable record is lost — the disk acknowledged a
            write it never persisted.
        torn_write_rate: probability (per crash) that the final record
            is *torn* — partially written and unreadable at replay,
            so recovery stops before it.
        amnesia_rate: probability (per crash) that the entire log is
            wiped; the site rejoins as a fresh replica (anti-entropy
            re-validates its copies) and refuses to vote on state it
            no longer has.
    """

    flush_time: float = 0.5
    tail_loss_rate: float = 0.0
    torn_write_rate: float = 0.0
    amnesia_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.flush_time < 0:
            raise ValueError(
                f"flush_time must be >= 0, got {self.flush_time}"
            )
        for label, value in (
            ("tail_loss_rate", self.tail_loss_rate),
            ("torn_write_rate", self.torn_write_rate),
            ("amnesia_rate", self.amnesia_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


class DurabilityManager:
    """Simulated per-site WAL: forces, crash truncation, replay."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.config: DurabilityConfig = sim.config.durability
        # A private stream (the injector/network convention): fault
        # draws must not perturb arrival, restart, crash, or chaos
        # randomness.
        self._rng = random.Random(
            (sim.config.seed + 1) * 1_000_003 + _DISC_SALT
        )
        n_sites = len(sim.site_names())
        #: per-site durable log: a list of plain-tuple records.
        self._logs: list[list[tuple]] = [[] for _ in range(n_sites)]
        #: in-flight flushes: lsn -> (sid, record, cont, cancel).
        self._pending: dict[int, tuple] = {}
        #: (sid, *record) of every in-flight flush, for dedup.
        self._pending_keys: set = set()
        #: per site, the (kind, txn, attempt) key of every durable
        #: record. Each append adds its key; only a disk fault that
        #: drops records re-derives the set (:meth:`_rederive`).
        self._index: list[set] = [set() for _ in range(n_sites)]
        #: per site, the open prepares: txn -> (attempt, locks) of its
        #: latest durable prepare record while no decision record for
        #: that attempt is logged. Kept current the same way; recovery
        #: replays it.
        self._open: list[dict[int, tuple]] = [{} for _ in range(n_sites)]
        self._next_lsn = 0
        #: unresolved in-doubt participants: (txn, sid).
        self._in_doubt: set[tuple[int, int]] = set()
        #: one entry per replayed recovery, for the conformance
        #: harness: {"site", "time", "implied", "reacquired",
        #: "in_doubt", "presumed"}.
        self.recovery_reports: list[dict] = []

    def attach(self) -> None:
        """Register the flush-completion and inquiry-retry events."""
        sim = self.sim
        sim.register_handler("dur_flush", self._on_flush)
        sim.register_handler("dur_requery", self._on_requery)

    # ------------------------------------------------------------------
    # the force seam
    # ------------------------------------------------------------------

    def force(self, site: str, record: tuple, cont, cancel=None) -> None:
        """Force ``record`` onto ``site``'s log, then run ``cont``.

        The flush takes ``flush_time``; a crash of the site before it
        completes cancels it (the record was never durable) and runs
        ``cancel`` instead, so callers can re-arm retry chains. The
        record's second slot must be the transaction id (the
        ``dur_flush`` event carries it for probe sampling and
        attribution).
        """
        sim = self.sim
        sid = sim.site_id(site)
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        record = tuple(record)
        self._pending[lsn] = (sid, record, cont, cancel)
        self._pending_keys.add((sid,) + record)
        sim.schedule(
            self.config.flush_time, ("dur_flush", record[1], sid, lsn)
        )

    def _on_flush(self, txn: int, sid: int, lsn: int) -> None:
        entry = self._pending.pop(lsn, None)
        if entry is None:
            return  # cancelled: the site crashed mid-flush
        sid, record, cont, _cancel = entry
        self._pending_keys.discard((sid,) + record)
        self._logs[sid].append(record)
        self._note(sid, record)
        self.sim.count("log_forces")
        cont()

    def _note(self, sid: int, record: tuple) -> None:
        """Fold one newly durable record into the site's replay state."""
        kind, txn, attempt = record[0], record[1], record[2]
        index = self._index[sid]
        index.add((kind, txn, attempt))
        if kind == "prepare":
            # The latest prepare of the transaction replaces any
            # earlier one; it is open unless already decided.
            if ("decision", txn, attempt) in index:
                self._open[sid].pop(txn, None)
            else:
                self._open[sid][txn] = (attempt, record[3])
        elif kind == "decision":
            entry = self._open[sid].get(txn)
            if entry is not None and entry[0] == attempt:
                del self._open[sid][txn]

    def _rederive(self, sid: int) -> None:
        """Rebuild the site's replay state from its whole log.

        The one path that reads a whole log, taken only after a disk
        fault dropped records: a dropped record cannot be undone by
        deleting its key, because records repeat keys (a Paxos
        acceptor logs one ``accept`` per registered vote).
        """
        self._index[sid] = set()
        self._open[sid] = {}
        for record in self._logs[sid]:
            self._note(sid, record)

    def flush_pending(self, site: str, record: tuple) -> bool:
        """Whether exactly this record is already being flushed."""
        return (
            (self.sim.site_id(site),) + tuple(record) in self._pending_keys
        )

    def has_prepare(self, site: str, txn: int, attempt: int) -> bool:
        """Whether ``site`` holds a durable prepare record."""
        return ("prepare", txn, attempt) in self._index[
            self.sim.site_id(site)
        ]

    def has_decision(self, site: str, txn: int, attempt: int) -> bool:
        """Whether ``site`` holds a durable decision record."""
        return ("decision", txn, attempt) in self._index[
            self.sim.site_id(site)
        ]

    def log(self, site: str) -> tuple:
        """The site's durable log, oldest record first."""
        return tuple(self._logs[self.sim.site_id(site)])

    # ------------------------------------------------------------------
    # in-doubt bookkeeping
    # ------------------------------------------------------------------

    def resolved(self, txn: int, site: str) -> None:
        """A decision reached ``site``'s in-doubt participant state."""
        key = (txn, self.sim.site_id(site))
        if key in self._in_doubt:
            self._in_doubt.discard(key)
            self.sim.count("in_doubt_resolved")

    def in_doubt(self, site: str | None = None) -> set:
        """The unresolved in-doubt ``(txn, sid)`` pairs."""
        if site is None:
            return set(self._in_doubt)
        sid = self.sim.site_id(site)
        return {key for key in self._in_doubt if key[1] == sid}

    def _send_inquiry(self, txn: int, site: str, attempt: int) -> None:
        sim = self.sim
        target = sim.commit.inquiry_target(txn)
        if target is None:
            return  # no protocol round state to ask (instant commit)
        delay = 0.0 if target == site else sim.config.network_delay
        sim.count("commit_messages")
        sim.transmit(
            sim.site_id(site), sim.site_id(target), delay,
            ("cm_inquire", txn, site, attempt),
        )
        sim.schedule(
            sim.config.commit_timeout,
            ("dur_requery", txn, site, attempt),
        )

    def _on_requery(self, txn: int, site: str, attempt: int) -> None:
        """Re-ask while the in-doubt window stays open.

        A lost inquiry (partition cut, crashed coordinator) must not
        orphan the participant: as long as the entry is unresolved and
        still current, the question is repeated every
        ``commit_timeout`` — the protocols' own retry convention.
        """
        sim = self.sim
        sid = sim.site_id(site)
        if (txn, sid) not in self._in_doubt:
            return  # resolved (a decision or status answer arrived)
        inst = sim.instance(txn)
        if inst.attempt != attempt:
            # The round aborted and the transaction moved on: the
            # stale entry resolves by presumption.
            self.resolved(txn, site)
            return
        if not sim.site_is_up(site):
            return  # crashed again; the next recovery re-inquires
        self._send_inquiry(txn, site, attempt)

    # ------------------------------------------------------------------
    # crash: truncate volatile state to log contents
    # ------------------------------------------------------------------

    def on_site_crash(self, site: str) -> None:
        """Apply the durability consequences of a crash of ``site``.

        Called by the failure injector after :meth:`Simulator.
        crash_site` aborted the RUNNING transactions: in-flight
        flushes are cancelled, the fault model may truncate or wipe
        the log, and the survivors' (prepared/committed holders')
        lock-table entries at the site are dropped — recovery replay,
        not magic, brings back what the log implies.
        """
        sim = self.sim
        sid = sim.site_id(site)
        # 1. Cancel in-flight flushes: those records were never
        # durable. Cancel hooks re-arm protocol retry chains.
        doomed = [
            lsn for lsn, entry in self._pending.items() if entry[0] == sid
        ]
        for lsn in doomed:
            _sid, record, _cont, cancel = self._pending.pop(lsn)
            self._pending_keys.discard((sid,) + record)
            if cancel is not None:
                cancel()
        # 2. Durability fault draws (dedicated stream).
        log = self._logs[sid]
        if log:
            config = self.config
            rng = self._rng
            size = len(log)
            if rng.random() < config.amnesia_rate:
                del log[:]
                sim.count("amnesia_wipes")
                sim.commit.on_durability_wipe(site)
            else:
                if rng.random() < config.torn_write_rate:
                    log.pop()
                    sim.count("torn_writes")
                if log and rng.random() < config.tail_loss_rate:
                    log.pop()
                    sim.count("tail_losses")
            if len(log) < size:
                self._rederive(sid)
        # 3. Truncate volatile lock state to the (empty) table: the
        # crash already aborted every RUNNING transaction, so what
        # remains involved here is prepared/committed holders — their
        # retained entries are volatile too and are lost with the
        # site. (Queues are empty: the aborts cancelled every waiter,
        # so release_all grants nothing; delivered defensively.)
        table = sim.lock_tables()[site]
        for txn in list(table.involved()):
            inst = sim.instance(txn)
            for entry in [e for e in inst.retained if e[1] == sid]:
                inst.retained.discard(entry)
                sim._retained_total -= 1
            for eid, granted in table.release_all(txn):
                for grantee in granted:  # pragma: no cover - defensive
                    sim._on_grant(grantee, eid, sid)

    # ------------------------------------------------------------------
    # recovery: replay of the open prepares + in-doubt inquiry
    # ------------------------------------------------------------------

    def log_implied_locks(self, site: str) -> set:
        """``(txn, eid)`` entries the log implies are retained here.

        Read off the site's open prepares (each transaction's latest
        prepare record without a decision record for its attempt),
        minus those whose attempt is stale or whose transaction is no
        longer prepared/committed (the round aborted while the site
        was down — presumption releases them without re-acquisition).
        """
        sim = self.sim
        sid = sim.site_id(site)
        implied = set()
        for txn, (attempt, locks) in self._open[sid].items():
            inst = sim.instance(txn)
            if inst.attempt != attempt or inst.status not in (
                _PREPARED, _COMMITTED
            ):
                continue
            implied.update(
                (txn, eid) for eid, held in locks if held == sid
            )
        return implied

    def on_site_recover(self, site: str) -> None:
        """Replay the site's open prepares: re-acquire, inquire.

        Called by the failure injector after the site is marked up.
        Each open prepare, in transaction order, either resolves by
        presumption on the spot (its round aborted while the site was
        down) or re-enters doubt: the replay re-acquires its
        log-implied retained locks (the table is empty, so every
        request grants) and sends it a ``cm_inquire``. A site whose
        log is empty rejoins as a fresh replica and replays nothing.
        """
        sim = self.sim
        sid = sim.site_id(site)
        log = self._logs[sid]
        if not log:
            return  # nothing durable: rejoin as a fresh replica
        sim.count("log_replays")
        implied = self.log_implied_locks(site)
        open_prepares = self._open[sid]
        table = sim.lock_tables()[site]
        reacquired = set()
        in_doubt = []
        presumed = 0
        for txn in sorted(open_prepares):
            attempt, locks = open_prepares[txn]
            inst = sim.instance(txn)
            if inst.attempt != attempt or inst.status not in (
                _PREPARED, _COMMITTED
            ):
                # Presumption: the round aborted while we were down;
                # there is nothing to hold and nobody to ask. An entry
                # an interrupted replay left open is this same state.
                presumed += 1
                self._in_doubt.discard((txn, sid))
                sim.count("in_doubt_resolved")
                continue
            for eid, held in locks:
                if held != sid or (eid, held) in inst.retained:
                    continue
                mode = SHARED if eid in inst.shared_eids else EXCLUSIVE
                if table.request(txn, eid, mode):
                    inst.retained.add((eid, held))
                    sim._retained_total += 1
                    reacquired.add((txn, eid))
                else:  # pragma: no cover - empty-table requests grant
                    table.cancel_wait(txn, eid)
            in_doubt.append((txn, attempt))
            self._in_doubt.add((txn, sid))
        for txn, attempt in in_doubt:
            self._send_inquiry(txn, site, attempt)
        self.recovery_reports.append({
            "site": site,
            "time": sim.now,
            "implied": implied,
            "reacquired": reacquired,
            "in_doubt": len(in_doubt),
            "presumed": presumed,
        })
