"""The distributed lock-scheduler simulator.

Executes a :class:`repro.core.TransactionSystem` as a discrete-event
simulation: every transaction is a client walking its partial order,
issuing each operation to the site of its entity once all predecessors
completed. Because transactions are partial orders, a client can have
several operations in flight at different sites — including several
blocked lock requests — which is exactly the distributed behaviour the
paper's model captures and centralized simulators miss.

Lock conflicts are resolved by the configured policy
(:mod:`repro.sim.policies`); aborted transactions release their locks
and restart from scratch after a delay, keeping their original
timestamp (so wound-wait and wait-die are livelock-free).

Six pluggable subsystems extend the core loop:

* atomic commit (:mod:`repro.sim.commit`) — decides when a transaction
  that finished executing is durably committed; the two-phase
  protocols retain locks through the PREPARED window and exchange
  coordinator/participant messages;
* fault injection (:mod:`repro.sim.failures`) — crashes and repairs
  sites, aborting the transactions whose volatile state they held;
* arrivals (:mod:`repro.sim.arrivals`) — turns the run into an *open
  system*: fresh transactions keep arriving on a Poisson clock
  (``arrival_rate``) until ``max_transactions`` or ``max_time``, and a
  warm-up window (``warmup_time``) restricts the steady-state metrics
  (throughput, in-flight concurrency, latency percentiles) to the
  post-transient regime;
* replica control (:mod:`repro.sim.replication`) — maps each logical
  entity to ``replication_factor`` replica sites and routes every Lock
  through the configured protocol (``rowa``, ``rowa-available``,
  ``quorum``): reads take *shared* locks on one replica or a read
  quorum, writes take *exclusive* locks on all/available/a quorum of
  replicas, and a Lock completes only when every chosen replica
  granted. At factor 1 every protocol degenerates to the single-copy
  simulator bit for bit;
* adversarial network (:mod:`repro.sim.network`) — when attached,
  :meth:`Simulator.transmit` hands every cross-site message to its
  retransmission channel (loss, duplication, jitter and partition
  episodes), and :meth:`Simulator.suspect_down` asks it for
  timeout-based failure suspicion;
* durability (:mod:`repro.sim.durability`) — per-site write-ahead
  logs behind the commit protocols' force points: a crash truncates a
  site to its log (with optional disk faults) and recovery replays it,
  resolving in-doubt participants by inquiry. Without it every force
  completes at once.

The subsystems register their own event kinds on the runtime's
:class:`~repro.sim.events.HandlerRegistry`, so the main loop is a pure
dispatcher and never enumerates event types.

Observability (:mod:`repro.sim.observe`) rides on top: when
``config.observe`` requests it, an :class:`~repro.sim.observe.
ObserverHub` wraps the per-event seams — the registry's dispatch,
:meth:`Simulator.schedule` (so every enqueued event emits a ``sched``
probe at send time, which lets consumers tell in-flight network
messages from idle waiting), and the lock-cell observers — and fills
the simulator's probe slot, which :meth:`Simulator.count` and the
arrive/prepared/commit/abort lifecycle points call. Tracing, metrics
time series, flight-recorder dumps, and latency attribution all come
from that stream. With the field unset nothing attaches: the
per-event path tests nothing, and a counter bump or lifecycle point
tests one empty slot.

Fast-path architecture: at construction the simulator *interns* the
schema — entities and sites are mapped to dense integer ids in sorted
name order — and compiles each transaction's hot data (per-node entity
ids, ancestor masks, lock-node table, cross-site delay mask) onto its
instance. All run-time lock state (:class:`~repro.sim.locks.
SiteLockManager` keys, ``waiting``/``retained``/``lock_sites``) is
keyed on those ids; because id order equals sorted-name order, every
historically ``sorted()``-dependent iteration is preserved bit for bit
while the comparisons and hashes become integer-cheap. The waits-for
graph is maintained incrementally (:mod:`repro.sim.waitsfor`) instead
of being rebuilt each detection tick, the committed-operation trace is
recorded append-only in dispatch order (already sorted — no final
sort), and finished transactions retire from every per-event scan.
Name-based accessors (``lock_tables()``, ``site_names()``,
``entity_id()``/``site_id()``) remain for subsystems and tests.

The completed operations form a trace, and the runtime closes the
loop with the static theory by testing the final attempts' part of it
with Lemma 1's D(S') in one pass: lock-order arcs between conflicting
accesses (two reads do not conflict), plus arcs from an entity's
lockers to the accessors that have not locked it yet. A lock granted
while another final attempt holds the entity in a conflicting mode —
possible under ``rowa-available``, whose writes lock only the replicas
they reach — fails the verdict outright.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush
from types import MappingProxyType

from repro.core.operations import OpKind
# perfbench's span recorder patches ``Schedule``, ``is_serializable``
# and ``find_cycle_ints`` on this module by name (``_VERDICT_CALLS`` in
# perfbench/recorder.py), so all three stay module globals even though
# the run's own verdict calls only ``find_cycle_ints``.
from repro.core.schedule import Schedule
from repro.core.serialization import is_serializable
from repro.core.system import GlobalNode, TransactionSystem
from repro.core.transaction import Transaction
from repro.sim.arrivals import ArrivalProcess, ArrivalStream, OpenSystem
from repro.sim.commit import make_protocol
from repro.sim.durability import DurabilityConfig, DurabilityManager
from repro.sim.events import EventQueue, HandlerRegistry
from repro.sim.failures import FailureInjector
from repro.sim.locks import EXCLUSIVE, SHARED, SiteLockManager
from repro.sim.metrics import ABORT_CAUSE_COUNTERS, SimulationResult
from repro.sim.network import NetworkConfig, NetworkModel
from repro.sim.observe import ObserveConfig, ObserverHub
from repro.sim.policies import Decision, Policy, make_policy
from repro.sim.replication import ReplicaManager
from repro.sim.waitsfor import WaitsForGraph
from repro.sim.workload import NO_READS, WorkloadSpec
from repro.util.graphs import find_cycle, find_cycle_ints

__all__ = ["SimulationConfig", "Simulator", "simulate"]

_RUNNING = "running"
_PREPARED = "prepared"
_COMMITTED = "committed"
_ABORTED = "aborted"

_LOCK = OpKind.LOCK
_UNLOCK = OpKind.UNLOCK


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable parameters of a run.

    Attributes:
        service_time: simulated duration of one operation at a site.
        network_delay: extra latency charged when an operation depends
            on a predecessor that completed at a *different* site (the
            cross-site coordination message of the distributed model);
            also the per-hop cost of commit-protocol messages and of
            replica-lock fan-out to non-primary replicas.
        arrival_spread: transactions start uniformly in
            [0, arrival_spread].
        restart_delay: wait before an aborted transaction retries.
        restart_jitter: extra uniform jitter added to restarts (avoids
            lock-step retry storms).
        timeout: lock-wait deadline for the timeout policy.
        detection_interval: period of the wait-for-graph scan for the
            detection policy.
        commit_protocol: atomic-commit protocol name (``instant``,
            ``two-phase``, ``presumed-abort``, ``paxos-commit``).
        commit_timeout: retry/vote-collection period of the two-phase
            protocols; for ``paxos-commit`` it is also the takeover
            deadline — a round whose leader stays down this long is
            adopted by the next up acceptor.
        commit_fault_tolerance: F of Paxos Commit: each round runs
            2F+1 acceptor sites (clamped to the schema's site count),
            so decisions survive F simultaneous site failures. F=0
            degenerates to a single coordinator-sited acceptor —
            message-for-message 2PC. Ignored by the other protocols.
        failure_rate: per-site crash rate (crashes per unit time);
            0 disables fault injection entirely.
        repair_time: mean downtime of a crashed site.
        replica_protocol: replica-control protocol name (``rowa``,
            ``rowa-available``, ``quorum``); the replication factor
            itself is a workload property
            (``WorkloadSpec.replication_factor``).
        catchup_time: period of the anti-entropy scan a recovering site
            runs under ``rowa-available`` — until the scan validates a
            copy (or a write refreshes it) the copy serves no reads.
        arrival_rate: open-system arrival rate (transactions per unit
            time); 0 (the default) disables the arrival process
            entirely, reproducing the closed-batch simulator.
        max_transactions: stop injecting after this many arrivals
            (0 = unbounded; ``max_time`` then limits the run).
        warmup_time: start of the steady-state measurement window;
            throughput, in-flight concurrency, and latency percentiles
            ignore everything before it.
        workload: spec the arrival process draws transactions from
            (defaults to ``WorkloadSpec()``); also carries the
            replication factor applied to the run's schema.
        workload_seed: seed of the arrival schema (and, in sweeps, of
            closed-batch workload generation) — kept separate from
            ``seed`` so replicates stress the same database.
        max_time: hard stop for the simulated clock.
        max_events: hard stop on processed events.
        seed: RNG seed (arrivals and jitter).
        observe: observability configuration
            (:class:`~repro.sim.observe.ObserveConfig`); None (the
            default) attaches nothing: the probe slot stays empty, the
            per-event path is untouched, and every digest is as it
            would be without the layer.
        network: adversarial-network configuration
            (:class:`~repro.sim.network.NetworkConfig`): message loss,
            duplication, jitter, and partition episodes, plus the
            retransmission substrate that lets protocols survive them.
            None (the default) or an all-zero config attaches nothing
            — the perfect network, bit-identical to the seed runs.
        durability: durable-storage configuration
            (:class:`~repro.sim.durability.DurabilityConfig`): per-site
            write-ahead logs with protocol force points costing
            ``flush_time`` each, crash truncation to log contents,
            replay-based recovery with in-doubt inquiry, and the
            tail-loss/torn-write/amnesia fault model. None (the
            default) keeps the idealized crash model — no log, no
            forces, bit-identical to the seed runs.
    """

    service_time: float = 1.0
    network_delay: float = 0.0
    arrival_spread: float = 2.0
    restart_delay: float = 4.0
    restart_jitter: float = 2.0
    timeout: float = 12.0
    detection_interval: float = 8.0
    commit_protocol: str = "instant"
    commit_timeout: float = 6.0
    commit_fault_tolerance: int = 1
    failure_rate: float = 0.0
    repair_time: float = 10.0
    replica_protocol: str = "rowa"
    catchup_time: float = 6.0
    arrival_rate: float = 0.0
    max_transactions: int = 0
    warmup_time: float = 0.0
    workload: WorkloadSpec | None = None
    workload_seed: int = 0
    max_time: float = 100_000.0
    max_events: int = 1_000_000
    seed: int = 0
    observe: ObserveConfig | None = None
    network: NetworkConfig | None = None
    durability: DurabilityConfig | None = None

    def __post_init__(self) -> None:
        # A negative delay would silently corrupt event-heap ordering
        # (events scheduled into the past), a negative count lifts its
        # cap, and a zero period re-arms its chain at the same instant
        # until max_events runs out; reject them outright, mirroring
        # WorkloadSpec's validation.
        for label in (
            "service_time", "network_delay", "arrival_spread",
            "restart_delay", "restart_jitter", "timeout", "failure_rate",
            "repair_time", "arrival_rate", "max_transactions",
        ):
            value = getattr(self, label)
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")
        for label in ("commit_timeout", "catchup_time", "detection_interval"):
            value = getattr(self, label)
            if value <= 0:
                raise ValueError(f"{label} must be > 0, got {value}")


class _Instance:
    """Mutable execution state of one transaction.

    Besides the dynamic fields, the instance carries the transaction's
    *compiled* hot data, precomputed once at injection: per-node entity
    ids, per-node direct-predecessor masks, the eid -> Lock-node table,
    the read (shared-mode) eid set, the written eids in sorted order,
    and the bitmask of nodes whose issue crosses sites (network delay).
    """

    __slots__ = (
        "index", "status", "timestamp", "attempt", "done", "issued",
        "waiting", "commit_time", "start_time", "exec_done_time",
        "prepared_since", "retained", "lock_sites", "pending_replicas",
        "eids", "kinds", "preds", "succ", "roots_mask", "all_mask",
        "lock_node_of", "shared_eids", "write_eids", "cross_mask",
        "home_sid",
    )

    def __init__(self, index: int):
        self.index = index
        self.status = _RUNNING
        self.timestamp = 0.0  # first-start time; kept across restarts
        self.attempt = 0
        self.done = 0  # bitmask of completed nodes
        self.issued = 0  # bitmask of issued nodes
        self.waiting: dict[tuple[int, int], float] = {}  # (eid, sid)
        self.commit_time = -1.0
        self.start_time = 0.0
        self.exec_done_time = -1.0  # last operation's completion time
        self.prepared_since = -1.0  # entry into the PREPARED window
        self.retained: set[tuple[int, int]] = set()  # (eid, sid)
        # eid -> replica sids this attempt locks (protocol choice)
        self.lock_sites: dict[int, tuple[int, ...]] = {}
        # eid -> replica sids whose grant is still outstanding
        self.pending_replicas: dict[int, set[int]] = {}
        # compiled transaction data (filled by Simulator._compile)
        self.eids: list[int] = []
        self.kinds: list[OpKind] = []
        self.preds: list[int] = []
        self.succ: list[int] = []
        self.roots_mask = 0
        self.all_mask = 0
        self.lock_node_of: dict[int, int] = {}
        self.shared_eids: frozenset[int] = NO_READS
        self.write_eids: tuple[int, ...] = ()
        self.cross_mask = 0
        # The client's home site: primary sid of the first entity —
        # the source endpoint of client-originated network messages.
        self.home_sid = 0


class Simulator:
    """One simulation run over a system, policy, and configuration.

    Args:
        system: the closed batch (empty for a pure open system).
        policy: contention policy, or its registered name.
        config: run configuration (defaults throughout when None).
        stream: the :class:`~repro.sim.arrivals.ArrivalStream` an open
            run injects from. None (the default) builds the run's own;
            runs whose system and config derive the same key (the
            cells of one sweep replicate) may pass one shared stream,
            which then generates each arrival once for all of them.

    Raises:
        ValueError: if ``stream`` was built for a run with another key,
            or is given to a closed run (``arrival_rate`` 0).
    """

    def __init__(
        self,
        system: TransactionSystem,
        policy: Policy | str = "blocking",
        config: SimulationConfig | None = None,
        *,
        stream: ArrivalStream | None = None,
    ):
        self.system: TransactionSystem | OpenSystem = system
        self.policy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        self.config = config or SimulationConfig()
        self._rng = random.Random(self.config.seed)
        self._queue = EventQueue()
        self._registry = HandlerRegistry()
        # The observer hub's emit function, set when one attaches:
        # count() and the lifecycle points call it with (kind, args).
        self._probe = None
        self.arrivals: ArrivalProcess | None = None
        if self.config.arrival_rate > 0:
            # Open system: wrap the (possibly empty) closed batch in a
            # growable view over the merged batch + arrival schema.
            self.arrivals = ArrivalProcess(self, stream)
            self.system = OpenSystem(
                system.transactions,
                system.schema.merged_with(self.arrivals.schema),
            )
        elif stream is not None:
            raise ValueError("a closed run (arrival_rate 0) has no arrivals")
        # Intern the schema: dense ids in sorted name order, so id
        # order reproduces every historically sorted iteration (site
        # release order in _abort, retained-lock order, participant
        # lists) while the hot-path keys become integers.
        schema = self.system.schema
        self._entity_names: list[str] = sorted(schema.entities)
        self._entity_ids: dict[str, int] = {
            name: eid for eid, name in enumerate(self._entity_names)
        }
        self._site_names: list[str] = sorted(schema.sites)
        self._site_ids: dict[str, int] = {
            name: sid for sid, name in enumerate(self._site_names)
        }
        self._site_list: list[SiteLockManager] = [
            SiteLockManager(name) for name in self._site_names
        ]
        # sid order == sorted name order: _abort releases locks site by
        # site, so this iteration order is behaviour, not presentation.
        self._sites: dict[str, SiteLockManager] = {
            name: site for name, site in zip(self._site_names, self._site_list)
        }
        self._lock_tables_view = MappingProxyType(self._sites)
        self._site_names_view = tuple(self._site_names)
        self._service_time = self.config.service_time
        self._primary_sid: list[int] = [
            self._site_ids[schema.site_of(name)]
            for name in self._entity_names
        ]
        self._site_up: list[bool] = [True] * len(self._site_names)
        self._down_count = 0
        self._net_delay = self.config.network_delay
        self._now = 0.0
        self._events_processed = 0
        self._inflight = 0
        self._retained_total = 0
        # Three flat ints per completed operation — txn, node, attempt
        # — appended in dispatch order, which IS (time, seq) order, so
        # the entries need carry neither. Flat, not one tuple per
        # operation: an open run keeps its whole history until the
        # verdict, and a tuple with its slot cost 72 bytes where the
        # three slots cost 24 (the txn int is the one ``inst.index``
        # owns). The bound append is cached: three calls per simulated
        # operation.
        self._trace: list[int] = []
        self._trace_append = self._trace.append
        self._on_conflict = self.policy.on_conflict
        # Policies that never abort anyone on conflict (blocking,
        # detect, timeout — the base rule) skip the whole decision
        # round: a blocked request just parks in the queue, and grant
        # re-evaluation has nothing to decide.
        self._policy_pure_wait = (
            type(self.policy).on_conflict is Policy.on_conflict
        )
        # The waits-for graph is maintained incrementally for the
        # policies that consume it (the periodic detector, and the
        # blocking policy's final deadlock verdict); the deadlock-free
        # policies skip the bookkeeping entirely.
        self._waits_for: WaitsForGraph | None = None
        # Mutation count of the waits-for graph at the last detection
        # scan that found no cycle (-1 = no clean scan yet): while the
        # count stands still the graph is unchanged and a rescan would
        # provably find nothing.
        self._clean_scan_version = -1
        if self.policy.uses_detection or self.policy.name == "blocking":
            self._waits_for = WaitsForGraph()
            n_sites = len(self._site_names)
            for sid, site in enumerate(self._site_list):
                site.observer = self._waits_for.observer(sid, n_sites)
        self._instances = []
        for index in range(len(self.system)):
            inst = _Instance(index)
            self._compile(inst, self.system[index])
            self._instances.append(inst)
        self.result = SimulationResult(
            policy=self.policy.name,
            commit_protocol=self.config.commit_protocol,
            replica_protocol=self.config.replica_protocol,
            total=len(self.system),
            warmup_time=self.config.warmup_time,
        )
        self.replicas = ReplicaManager(self)
        self.result.replication_factor = (
            self.replicas.schema.replication_factor
        )
        self._register_core_handlers()
        # Durable storage wires before the commit protocols: their
        # force points read `sim.durability` at event time (None: every
        # force completes at once), so the attribute must exist — and
        # the flush/requery handlers be registered — by the time any
        # protocol event runs.
        self.durability: DurabilityManager | None = None
        if self.config.durability is not None:
            self.durability = DurabilityManager(self)
            self.durability.attach()
        self.commit = make_protocol(self.config.commit_protocol)
        self.commit.attach(self)
        self._retains_locks = self.commit.retains_locks
        self.failures: FailureInjector | None = None
        if self.config.failure_rate > 0:
            self.failures = FailureInjector(self)
            self.failures.attach()
        # The attach order fixes the order of the construction-time
        # schedules (crash chains, partition episodes, the first
        # arrival) and with them the queue's tie-breaks, so it is
        # behaviour. With the network field unset or all-zero, nothing
        # attaches and transmit() stays a pass-through to schedule().
        self.network: NetworkModel | None = None
        if self.config.network is not None and self.config.network.enabled:
            self.network = NetworkModel(self)
            self.network.attach()
        if self.arrivals is not None:
            self.arrivals.attach()
        # Observability attaches last, once every subsystem wired its
        # handlers and observers, so the construction-time schedules
        # above are not probed. With the field unset the probe slot
        # stays empty and the per-event seams stay unwrapped (see
        # repro.sim.observe.probes).
        self.observe: ObserverHub | None = None
        if self.config.observe is not None and self.config.observe.enabled:
            self.observe = ObserverHub(self, self.config.observe)
            self.observe.attach()

    def _register_core_handlers(self) -> None:
        reg = self._registry
        reg.register("begin", self._on_begin)
        reg.register("issue", self._on_issue)
        reg.register("replica_req", self._on_replica_req)
        reg.register("op_done", self._on_op_done)
        reg.register("restart", self._on_restart)
        reg.register("timeout", self._on_timeout)
        reg.register("detect", self._on_detect)

    def _compile(self, inst: _Instance, t: Transaction) -> None:
        """Precompute the transaction's hot data onto its instance."""
        eid_of = self._entity_ids
        ops = t.ops
        eids = [eid_of[op.entity] for op in ops]
        inst.eids = eids
        inst.kinds = [op.kind for op in ops]
        inst.home_sid = self._primary_sid[eids[0]] if eids else 0
        dag = t.dag
        n = len(ops)
        # Readiness runs on *direct-predecessor* masks: a node is ready
        # iff its predecessors completed, which — because the done set
        # of an attempt is always a down-set — coincides with "all
        # ancestors completed" at every step. Direct masks are stored
        # on the Dag already (borrowed, not copied), so trusted
        # transactions never materialize their transitive closure.
        preds = dag.predecessor_masks()
        inst.preds = preds
        inst.succ = dag.successor_masks()
        roots = 0
        for node in range(n):
            if not preds[node]:
                roots |= 1 << node
        inst.roots_mask = roots
        inst.all_mask = (1 << n) - 1
        inst.lock_node_of = {
            eid_of[entity]: t.lock_node(entity) for entity in t.entities
        }
        if t.read_set:
            inst.shared_eids = frozenset(
                eid_of[entity] for entity in t.read_set
            )
        inst.write_eids = tuple(sorted(
            eid_of[entity] for entity in t.entities - t.read_set
        ))
        if self._net_delay > 0:
            primary = self._primary_sid
            mask = 0
            for node in range(n):
                here = primary[eids[node]]
                bits = preds[node]
                while bits:
                    low = bits & -bits
                    pred = low.bit_length() - 1
                    bits ^= low
                    if primary[eids[pred]] != here:
                        mask |= 1 << node
                        break
            inst.cross_mask = mask

    # ------------------------------------------------------------------
    # subsystem surface (commit protocols, failure injection)
    # ------------------------------------------------------------------

    def register_handler(self, kind: str, handler) -> None:
        """Claim an event kind for a subsystem handler."""
        self._registry.register(kind, handler)

    def schedule(self, delay: float, payload: tuple) -> None:
        """Schedule ``payload`` at ``now + delay``.

        Inlines :meth:`EventQueue.push` — one schedule per simulated
        operation makes the extra frame measurable.

        This is also an observability seam: when observers are
        attached, :meth:`ObserverHub.attach` shadows this method on
        the instance with a wrapper that emits a ``sched`` probe
        before enqueueing, so consumers see message *send* times, not
        just deliveries.
        """
        time = self._now + delay
        if not (time >= 0):
            raise ValueError(f"event time must be non-negative, got {time}")
        queue = self._queue
        _heappush(queue._heap, (time, queue._seq, payload))
        queue._seq += 1

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the result counter ``name``.

        The one way any layer bumps a counter that emits probes: with
        an observer attached, the new value goes out as a ``counter``
        probe. Counters no consumer follows (``aborts``,
        ``net_inflight``, the time integrals) are bumped inline.
        """
        counters = self.result.__dict__
        value = counters[name] + n
        counters[name] = value
        if self._probe is not None:
            self._probe("counter", (name, value))

    def transmit(
        self, src_sid: int, dst_sid: int, delay: float, payload: tuple
    ) -> None:
        """Send a message from site ``src_sid`` to site ``dst_sid``.

        Without a network model this is :meth:`schedule` — a perfect
        network. With one, a message between two sites goes to its
        retransmission channel (loss, duplication, jitter, partition
        cuts, retransmission until acked); intra-site messages never
        touch the wire, which keeps paxos F=0 message-for-message 2PC.
        Every copy is enqueued through ``self.schedule``, where the
        observer's ``sched`` probe sees it.
        """
        network = self.network
        if network is None or src_sid == dst_sid:
            self.schedule(delay, payload)
        else:
            network.channel.send(src_sid, dst_sid, delay, payload)

    def suspect_down(self, site: str) -> bool:
        """Whether a protocol should *suspect* ``site`` has failed.

        Without a network model this is omniscient truth
        (``not site_is_up``), the pre-network behaviour. With one
        attached it is :meth:`NetworkModel.suspect_down
        <repro.sim.network.NetworkModel.suspect_down>`: timeout-based
        suspicion from the age of the oldest unacked message, which
        lets a partitioned-but-up site be routed around without ever
        being marked crashed.
        """
        network = self.network
        if network is None:
            return not self.site_is_up(site)
        return network.suspect_down(site)

    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    def instance(self, txn: int) -> _Instance:
        """The mutable state of transaction ``txn``."""
        return self._instances[txn]

    def entity_id(self, entity: str) -> int:
        """The interned id of ``entity`` (schema-wide, sorted order)."""
        return self._entity_ids[entity]

    def entity_name(self, eid: int) -> str:
        """The entity name of interned id ``eid``."""
        return self._entity_names[eid]

    def site_id(self, site: str) -> int:
        """The interned id of ``site`` (schema-wide, sorted order)."""
        return self._site_ids[site]

    def site_name(self, sid: int) -> str:
        """The site name of interned id ``sid``."""
        return self._site_names[sid]

    def add_transaction(self, txn: Transaction) -> int:
        """Inject ``txn`` into the running open system, starting now.

        Only valid in open-system mode (the arrival process is the
        caller); the new client's timestamp is its arrival time, so the
        RSL policies' age comparisons extend naturally to arrivals.
        """
        index = self.system.append(txn)
        inst = _Instance(index)
        self._compile(inst, txn)
        inst.timestamp = self._now
        inst.start_time = self._now
        self._instances.append(inst)
        self.result.total += 1
        self.result.injected += 1
        self._inflight += 1
        self._issue_ready(inst)
        if self._probe is not None:
            self._probe("arrive", (index,))
        return index

    def lock_tables(self) -> MappingProxyType:
        """The per-site lock tables, keyed by site name.

        A cached read-only view — identical object on every call, so
        per-event callers (commit and failure subsystems) allocate
        nothing. Lock-table entity keys are interned ids
        (:meth:`entity_id`).
        """
        return self._lock_tables_view

    def site_names(self) -> tuple[str, ...]:
        """All site names, sorted (cached, read-only)."""
        return self._site_names_view

    def site_is_up(self, site: str) -> bool:
        """Whether ``site`` is up (always True without fault
        injection)."""
        return self.failures is None or self._site_up[self._site_ids[site]]

    def site_id_is_up(self, sid: int) -> bool:
        """Id-keyed :meth:`site_is_up` (hot path)."""
        return self.failures is None or self._site_up[sid]

    def _mark_site(self, site: str, up: bool) -> None:
        """Failure-injector hook: flip the interned up/down flag."""
        sid = self._site_ids[site]
        if self._site_up[sid] != up:
            self._site_up[sid] = up
            self._down_count += -1 if up else 1

    def has_uncommitted(self) -> bool:
        """Whether any transaction has not committed yet.

        While the arrival process is still injecting, more work is
        always coming, so the answer is True even if every transaction
        injected so far has committed — subsystem upkeep loops (crash
        scheduling, detection scans) must not stop between arrivals.
        """
        if self.arrivals is not None and not self.arrivals.finished:
            return True
        return self.result.committed < len(self.system)

    def transaction_sites(self, txn: int) -> tuple[str, list[str]]:
        """``(coordinator, participants)`` of a commit round.

        The coordinator is the first replica site the attempt locked
        for its first operation's entity — the primary whenever the
        primary is up, and an up replica the protocol routed to when it
        is not (a crashed primary must not coordinate a round it never
        participated in). The participants are every replica site the
        attempt actually locked — under replication that enlists every
        write-replica (and read-quorum) site in the commit round.
        """
        inst = self._instances[txn]
        first_eid = inst.eids[0]
        lock_sids = inst.lock_sites.get(first_eid)
        coordinator_sid = (
            lock_sids[0] if lock_sids else self._primary_sid[first_eid]
        )
        names = self._site_names
        participants = [
            names[sid]
            for sid in sorted({
                sid
                for sids in inst.lock_sites.values()
                for sid in sids
            })
        ]
        return names[coordinator_sid], participants

    def acceptor_sites(self, coordinator: str, count: int) -> tuple[str, ...]:
        """``count`` acceptor sites, drawn deterministically from the
        schema.

        The rotation starts at the coordinator's site (so F=0 yields
        exactly the coordinator, reproducing a single-registrar 2PC
        round) and continues through the schema's sorted site order,
        wrapping. ``count`` is clamped to the site count: a 3-site
        schema cannot seat 5 acceptors. Seed-free and independent of
        run history — every attempt of a transaction, and every leader
        of a round, derives the same acceptor set.
        """
        names = self._site_names
        n = len(names)
        count = max(1, min(count, n))
        start = self._site_ids[coordinator]
        return tuple(names[(start + k) % n] for k in range(count))

    def mark_prepared(self, inst: _Instance) -> None:
        """Enter the PREPARED window: unabortable, locks retained."""
        inst.status = _PREPARED
        inst.exec_done_time = self._now
        inst.prepared_since = self._now
        if self._probe is not None:
            self._probe("prepared", (inst.index,))

    def finish_commit(self, inst: _Instance) -> None:
        """Commit the transaction at the current time."""
        if inst.exec_done_time < 0:
            inst.exec_done_time = self._now
        inst.status = _COMMITTED
        inst.commit_time = self._now
        self.result.committed += 1
        self._inflight -= 1
        if self._now >= self.config.warmup_time:
            self.result.measured_committed += 1
        self.replicas.on_commit(inst)
        if self._probe is not None:
            self._probe("commit", (inst.index,))

    def abort_from_commit(self, inst: _Instance) -> None:
        """Abort a PREPARED transaction whose commit round failed."""
        if inst.status != _PREPARED:
            return
        self.release_retained(inst)
        inst.status = _RUNNING  # re-enter the abortable state
        inst.prepared_since = -1.0
        self._abort(inst, "commit")

    def release_retained(
        self, inst: _Instance, site_name: str | None = None
    ) -> None:
        """Release locks retained past their Unlock operation.

        Restricted to one site when ``site_name`` is given (a commit
        decision arriving at that participant). Waiters blocked behind
        the retained lock have the prepared portion of their wait
        charged to ``prepared_block_time``.
        """
        only_sid = None if site_name is None else self._site_ids[site_name]
        prepared_since = inst.prepared_since
        for eid, held_at in sorted(inst.retained):
            if only_sid is not None and held_at != only_sid:
                continue
            inst.retained.discard((eid, held_at))
            self._retained_total -= 1
            if prepared_since >= 0:
                # Lock-retention accounting: how long this entry sat
                # retained past its holder's PREPARE (the quantity the
                # EXP-RECOVERY bench plots against flush cost).
                self.result.retained_lock_time += (
                    self._now - prepared_since
                )
            site = self._site_list[held_at]
            holders = site.holders_map(eid)
            if holders is None or inst.index not in holders:
                continue  # defensive: already force-released
            if inst.prepared_since >= 0:
                queue = site.queue_map(eid)
                if queue:
                    instances = self._instances
                    for waiter in queue:
                        begun = instances[waiter].waiting.get((eid, held_at))
                        if begun is not None:
                            self.result.prepared_block_time += (
                                self._now
                                - max(begun, inst.prepared_since)
                            )
            for granted in site.release(inst.index, eid):
                self._on_grant(granted, eid, held_at)

    def crash_site(self, site_name: str) -> None:
        """Abort every RUNNING transaction with lock state at the site.

        PREPARED transactions are not aborted — they already voted in
        a commit round. What happens to their locks depends on the
        durability model: without one (``config.durability`` unset)
        the legacy idealization applies and the retained locks simply
        stay across the crash; with one, the failure injector follows
        this call with :meth:`DurabilityManager.on_site_crash`, which
        wipes the site's volatile lock table and leaves recovery
        replay to re-acquire whatever the write-ahead log implies.
        Waiters go first so that releasing the holders' locks does not
        grant work to a site that is down.
        """
        site = self._sites[site_name]
        txns = site.involved()
        waiters = [t for t in txns if site.waiting_for(t)]
        waiter_set = set(waiters)
        holders = [t for t in txns if t not in waiter_set]
        for txn in waiters + holders:
            inst = self._instances[txn]
            if inst.status == _RUNNING:
                self._abort(inst, "crash")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _site_for_entity(self, entity: str) -> SiteLockManager:
        """The lock table of the entity's *primary* replica."""
        return self._site_list[self._primary_sid[self._entity_ids[entity]]]

    # ------------------------------------------------------------------
    # issuing operations
    # ------------------------------------------------------------------

    def _issue_ready(self, inst: _Instance) -> None:
        """Issue every currently ready, unissued node (ascending id).

        Readiness is event-driven: a node becomes ready exactly when a
        fresh attempt starts (its roots) or when its last outstanding
        ancestor completes (handled incrementally in ``_on_op_done``
        via the successor masks), so this full pass only ever runs with
        ``issued == 0`` — but it stays correct for any state.
        """
        if inst.status != _RUNNING:
            return
        pending = (
            inst.roots_mask if not inst.issued
            else inst.all_mask & ~inst.issued
        )
        self._issue_nodes(inst, pending)

    def _issue_nodes(self, inst: _Instance, pending: int) -> None:
        """Issue the ready subset of the ``pending`` node mask.

        The non-Lock body of ``_issue_one`` is inlined for the
        overwhelmingly common case (an action or unlock at an up site):
        one event per operation makes this the single hottest loop of a
        run, and the extra call frame was measurable.
        """
        not_done = ~inst.done
        preds = inst.preds
        kinds = inst.kinds
        net_delay = self._net_delay
        cross = inst.cross_mask
        network = self.network
        while pending:
            low = pending & -pending
            node = low.bit_length() - 1
            pending ^= low
            if preds[node] & not_done:
                continue
            inst.issued |= low
            if net_delay > 0 and cross >> node & 1:
                if network is None or kinds[node] is _LOCK:
                    # Lock issues are client-local decisions — the
                    # network cost (and the chaos) of acquisition
                    # rides on the replica fan-out.
                    self.schedule(
                        net_delay, ("issue", inst.index, node, inst.attempt)
                    )
                else:
                    eid = inst.eids[node]
                    sites = inst.lock_sites.get(eid)
                    self.transmit(
                        inst.home_sid,
                        sites[0] if sites else self._primary_sid[eid],
                        net_delay,
                        ("issue", inst.index, node, inst.attempt),
                    )
                continue
            if kinds[node] is _LOCK or self.failures is not None:
                self._issue_one(inst, node)
                if inst.status != _RUNNING:
                    return  # the request aborted us (wait-die)
                continue
            self.schedule(
                self._service_time,
                ("op_done", inst.index, node, inst.attempt),
            )

    def _issue_one(self, inst: _Instance, node: int) -> None:
        if inst.kinds[node] is _LOCK:
            # The replica-control protocol owns the up/down routing for
            # lock acquisition (at factor 1 it degenerates to the
            # single-site availability check below).
            self._request_lock(inst, node)
            return
        # Actions and Unlocks execute at the replica sites the attempt
        # actually locked — not necessarily the primary, which the
        # available protocols deliberately route around when it is
        # down. At factor 1 the lock site *is* the primary, preserving
        # the seed behaviour bit for bit.
        eid = inst.eids[node]
        sites = inst.lock_sites.get(eid)
        if sites is None:
            sites = (self._primary_sid[eid],)
        if self.failures is not None:
            up = self._site_up
            if not all(up[sid] for sid in sites):
                # An operation site is down; the transaction's volatile
                # state is lost with it.
                self._abort(inst, "crash")
                return
        self.schedule(
            self._service_time,
            ("op_done", inst.index, node, inst.attempt),
        )

    def _on_begin(self, txn: int) -> None:
        self._inflight += 1
        self._issue_ready(self._instances[txn])

    def _on_issue(self, txn: int, node: int, attempt: int) -> None:
        """A cross-site coordination message arrived: issue the op."""
        inst = self._instances[txn]
        if inst.status != _RUNNING or inst.attempt != attempt:
            return
        self._issue_one(inst, node)

    def _request_lock(self, inst: _Instance, node: int) -> None:
        """Issue a Lock: fan out to the protocol's replica choice.

        The chosen replica sites are locked in parallel — shared mode
        for reads, exclusive for writes — and the Lock operation
        completes (one ``service_time`` later) once every replica
        granted. Fan-out to a non-primary replica costs one
        ``network_delay`` hop.
        """
        eid = inst.eids[node]
        shared = eid in inst.shared_eids
        mode = SHARED if shared else EXCLUSIVE
        sites = (
            self.replicas.read_sids(eid, inst.home_sid)
            if shared
            else self.replicas.write_sids(eid, inst.home_sid)
        )
        if sites is None:
            # No legal replica set right now: under rowa a single
            # crashed replica blocks writes, under quorum a lost
            # majority blocks everything. The access fails exactly
            # like an issue to a down site.
            self._abort(inst, "unavailable")
            return
        inst.lock_sites[eid] = sites
        if len(sites) == 1 and (
            self._net_delay <= 0 or sites[0] == self._primary_sid[eid]
        ):
            # Single-replica fast path (factor 1, or a one-site route):
            # no fan-out bookkeeping, no pending-replica set unless the
            # request actually blocks.
            sid = sites[0]
            site = self._site_list[sid]
            if site.request(inst.index, eid, mode):
                self.schedule(
                    self._service_time,
                    ("op_done", inst.index, node, inst.attempt),
                )
                return
            # No pending-replica set: _on_grant treats a missing entry
            # as "single replica, grant completes the Lock".
            self._resolve_conflict(inst, node, eid, sid, site, mode)
            return
        inst.pending_replicas[eid] = set(sites)
        primary = self._primary_sid[eid]
        for sid in sites:
            if sid != primary and self._net_delay > 0:
                # Fan-out to a remote replica is a client message on
                # the network seam: chaos (loss, duplication, cuts)
                # and the retransmission substrate apply here.
                self.transmit(
                    inst.home_sid,
                    sid,
                    self._net_delay,
                    ("replica_req", inst.index, node, sid, inst.attempt),
                )
                continue
            self._request_replica(inst, node, sid, mode)
            if inst.status != _RUNNING:
                return  # the request aborted us (wait-die)
        self._maybe_complete_lock(inst, node, eid)

    def _on_replica_req(
        self, txn: int, node: int, sid: int, attempt: int
    ) -> None:
        """A replica-lock fan-out message arrived at a remote replica."""
        inst = self._instances[txn]
        if inst.status != _RUNNING or inst.attempt != attempt:
            return
        eid = inst.eids[node]
        if not self.site_id_is_up(sid):
            # The replica crashed while the request was in flight.
            self._abort(inst, "crash")
            return
        mode = SHARED if eid in inst.shared_eids else EXCLUSIVE
        self._request_replica(inst, node, sid, mode)
        if inst.status != _RUNNING:
            return
        self._maybe_complete_lock(inst, node, eid)

    def _request_replica(
        self, inst: _Instance, node: int, sid: int, mode: str
    ) -> None:
        """Request one replica's lock and resolve any conflict."""
        eid = inst.eids[node]
        site = self._site_list[sid]
        if site.request(inst.index, eid, mode):
            pending = inst.pending_replicas.get(eid)
            if pending is not None:
                pending.discard(sid)
            return
        self._resolve_conflict(inst, node, eid, sid, site, mode)

    def _resolve_conflict(
        self,
        inst: _Instance,
        node: int,
        eid: int,
        sid: int,
        site: SiteLockManager,
        mode: str,
    ) -> None:
        """A lock request blocked: run the policy against its blockers."""
        if self._policy_pure_wait:
            inst.waiting[(eid, sid)] = self._now
            self.count("waits")
            if self.policy.uses_timeout:
                self.schedule(
                    self.config.timeout,
                    ("timeout", inst.index, node, inst.attempt),
                )
            return
        holders = site.holders_map(eid)
        assert holders and inst.index not in holders
        instances = self._instances
        on_conflict = self._on_conflict
        timestamp = inst.timestamp
        if mode == SHARED and site.mode(eid) == SHARED:
            # Compatible with every holder: the block is the FIFO queue
            # itself (a writer ahead). The policy must order the
            # requester against those *conflicting queued* waiters
            # instead — leaving the edge unordered would let an old
            # reader wait behind a young writer forever, breaking the
            # prevention schemes' acyclicity argument.
            blockers = self._conflicting_ahead(site, eid, inst.index)
        elif len(holders) == 1:
            # Sole exclusive holder — the overwhelmingly common case:
            # one decision, no list bookkeeping.
            holder_inst = instances[next(iter(holders))]
            decision = on_conflict(timestamp, holder_inst.timestamp)
            if (
                decision is Decision.ABORT_HOLDER
                and holder_inst.status in (_PREPARED, _COMMITTED)
            ):
                decision = Decision.WAIT_PREPARED
                self.count("prepared_blocks")
            if decision is Decision.ABORT_SELF:
                granted = site.cancel_wait(inst.index, eid)
                self._abort(inst, "death")
                for grantee in granted:
                    self._on_grant(grantee, eid, sid)
                return
            inst.waiting[(eid, sid)] = self._now
            self.count("waits")
            if decision is Decision.ABORT_HOLDER:
                if holder_inst.status == _RUNNING:
                    self._abort(holder_inst, "wound")
                return
            if self.policy.uses_timeout:
                self.schedule(
                    self.config.timeout,
                    ("timeout", inst.index, node, inst.attempt),
                )
            return
        else:
            blockers = sorted(holders)
        decisions: list[tuple[_Instance, Decision]] = []
        prepared_counted = False
        for holder in blockers:
            holder_inst = instances[holder]
            decision = on_conflict(timestamp, holder_inst.timestamp)
            if (
                decision is Decision.ABORT_HOLDER
                and holder_inst.status in (_PREPARED, _COMMITTED)
            ):
                # A prepared holder cannot be wounded: it already voted
                # in a commit round. A committed holder still has its
                # release message in flight and is just as unabortable.
                # Block on the decision's arrival instead (one blocked
                # request counts once, however many holders prepared).
                decision = Decision.WAIT_PREPARED
                if not prepared_counted:
                    self.count("prepared_blocks")
                    prepared_counted = True
            if decision is Decision.ABORT_SELF:
                granted = site.cancel_wait(inst.index, eid)
                self._abort(inst, "death")
                for grantee in granted:
                    self._on_grant(grantee, eid, sid)
                return
            decisions.append((holder_inst, decision))
        # The waiting decisions and ABORT_HOLDER all leave the
        # requester in the queue.
        inst.waiting[(eid, sid)] = self._now
        self.count("waits")
        wounded = [
            h for h, d in decisions if d is Decision.ABORT_HOLDER
        ]
        if wounded:
            for holder_inst in wounded:
                if holder_inst.status != _RUNNING:
                    continue  # an earlier wound's cascade got it first
                self._abort(holder_inst, "wound")
            return
        if self.policy.uses_timeout:
            self.schedule(
                self.config.timeout,
                ("timeout", inst.index, node, inst.attempt),
            )

    def _conflicting_ahead(
        self, site: SiteLockManager, eid: int, txn: int
    ) -> list[int]:
        """Queued waiters ahead of ``txn`` whose mode conflicts with a
        shared request (i.e. the writers it is queued behind)."""
        ahead = []
        queue = site.queue_map(eid)
        if queue:
            for waiter, wmode in queue.items():
                if waiter == txn:
                    break
                if wmode == EXCLUSIVE:
                    ahead.append(waiter)
        return ahead

    def _maybe_complete_lock(
        self, inst: _Instance, node: int, eid: int
    ) -> None:
        """Schedule op_done once every chosen replica has granted."""
        pending = inst.pending_replicas.get(eid)
        if pending is None or pending:
            return
        del inst.pending_replicas[eid]
        self.schedule(
            self._service_time,
            ("op_done", inst.index, node, inst.attempt),
        )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # grant / abort cascades
    #
    # A grant can wound the new holder, whose abort releases locks that
    # grant further waiters, and so on — historically this ran as
    # mutual recursion between ``_on_grant``, the waiter re-evaluation,
    # and ``_abort``, which overflowed the Python stack under extreme
    # contention (hundreds of waiters on one hot entity make the
    # cascade exactly that deep). The cascade now runs as generator
    # *frames* on an explicit deque: each frame yields the sub-cascades
    # it used to call, and the driver drains the newest frame first, so
    # the event order — and with it every digest-pinned artifact — is
    # the recursive depth-first order, replayed without consuming the
    # interpreter stack.
    # ------------------------------------------------------------------

    def _drive_cascade(self, root) -> None:
        """Run one cascade to completion (LIFO worklist of frames)."""
        child = next(root, None)
        if child is None:
            return  # the frame finished without spawning sub-cascades
        stack = deque((root, child))
        push = stack.append
        pop = stack.pop
        while stack:
            child = next(stack[-1], None)
            if child is None:
                pop()
            else:
                push(child)

    def _on_grant(self, txn: int, eid: int, sid: int) -> None:
        """A queued request of ``txn`` was granted by a release."""
        task = self._grant_step(txn, eid, sid)
        if task is not None:
            self._drive_cascade(task)

    def _grant_step(self, txn: int, eid: int, sid: int):
        """Deliver one grant; returns the follow-up cascade frame.

        The delivery itself — waking the new holder and completing (or
        advancing) its Lock operation — is plain straight-line work and
        runs right here; the return value is a worklist frame for
        whatever may *cascade* from it (handing back a stale grant, or
        re-evaluating the remaining waiters against the new holder), or
        None when no follow-up is possible. Callers inside a cascade
        yield the frame; the top-level entry point drives it.
        """
        inst = self._instances[txn]
        key = (eid, sid)
        if inst.status != _RUNNING or key not in inst.waiting:
            # Stale grant. Legitimate under abort cascades: a wound
            # deeper in the cascade can abort the grantee (re-granting
            # the entity) after this grant was recorded but before it
            # was delivered — in that case the lock already moved on
            # and there is nothing to do. If the grantee still holds
            # the lock, hand it back rather than wedging the site.
            site = self._site_list[sid]
            holders = site.holders_map(eid)
            if holders is None or txn not in holders:
                return None
            return self._stale_release_task(txn, eid, sid, site)
        self.result.wait_time += self._now - inst.waiting.pop(key)
        pending = inst.pending_replicas.get(eid)
        if pending is None:
            # Single-replica route (the fast path skipped the pending
            # set): this grant completes the Lock operation.
            self.schedule(
                self._service_time,
                ("op_done", inst.index, inst.lock_node_of[eid],
                 inst.attempt),
            )
        else:
            pending.discard(sid)
            self._maybe_complete_lock(inst, inst.lock_node_of[eid], eid)
        if self._policy_pure_wait:
            return None  # every re-evaluation decision would be WAIT
        site = self._site_list[sid]
        queue = site.queue_map(eid)
        if not queue:
            return None
        return self._reevaluate_task(inst, eid, sid, site, queue)

    def _stale_release_task(
        self, txn: int, eid: int, sid: int, site: SiteLockManager
    ):
        """Hand a stale grant back to the queue; cascade frame."""
        for granted in site.release(txn, eid):
            task = self._grant_step(granted, eid, sid)
            if task is not None:
                yield task

    def _reevaluate_task(
        self,
        inst: _Instance,
        eid: int,
        sid: int,
        site: SiteLockManager,
        queue: dict[int, str],
    ):
        """Re-run the policy for the waiters behind a fresh grant.

        The remaining waiters re-run the policy's conflict rule against
        the *new* holder ``inst``: under wound-wait an old transaction
        must not linger behind a young one that just inherited the lock
        (it wounds it), and under wait-die a young waiter behind a
        newly-granted older holder dies. Without this re-evaluation the
        RSL schemes lose their deadlock-freedom guarantee.
        """
        instances = self._instances
        on_conflict = self._on_conflict
        key = (eid, sid)
        for waiter, wmode in list(queue.items()):
            if inst.status != _RUNNING:
                return  # the holder was wounded; releases re-grant
            w_inst = instances[waiter]
            if w_inst.status != _RUNNING or key not in w_inst.waiting:
                # The snapshot is stale: an earlier iteration's abort
                # cascade already removed this waiter from the queue.
                # It must neither die nor wound the holder on behalf
                # of a conflict that no longer exists.
                continue
            # A waiter that passed the staleness check is still queued
            # with its snapshot mode (queued modes never change), so
            # the cheap test goes first and the O(holders) mode scan
            # only runs for shared waiters.
            if wmode == SHARED and site.mode(eid) == SHARED:
                # A shared waiter behind the new shared holders has no
                # conflict with them — but it is still queued behind
                # conflicting writers, and that edge must be ordered
                # now that the holder set changed (an old reader stuck
                # behind young writers would otherwise wedge).
                yield self._order_shared_task(w_inst, eid, sid)
                continue
            decision = on_conflict(w_inst.timestamp, inst.timestamp)
            if decision is Decision.ABORT_HOLDER:
                yield self._abort_task(inst, "wound")
                return
            if decision is Decision.ABORT_SELF:
                yield self._abort_task(w_inst, "death")

    def _order_shared_task(self, w_inst: _Instance, eid: int, sid: int):
        """Re-run the policy for a shared waiter against the queued
        writers ahead of it (its actual blockers); cascade frame."""
        site = self._site_list[sid]
        key = (eid, sid)
        for blocker in self._conflicting_ahead(site, eid, w_inst.index):
            if w_inst.status != _RUNNING or key not in w_inst.waiting:
                return  # a wound cascade granted or killed the waiter
            b_inst = self._instances[blocker]
            if b_inst.status != _RUNNING:
                continue
            decision = self._on_conflict(
                w_inst.timestamp, b_inst.timestamp
            )
            if decision is Decision.ABORT_HOLDER:
                yield self._abort_task(b_inst, "wound")
            elif decision is Decision.ABORT_SELF:
                yield self._abort_task(w_inst, "death")
                return

    def _on_op_done(self, txn: int, node: int, attempt: int) -> None:
        inst = self._instances[txn]
        if inst.status != _RUNNING or inst.attempt != attempt:
            return  # stale event from an aborted attempt
        done = inst.done | 1 << node
        inst.done = done
        trace_append = self._trace_append
        trace_append(txn)
        trace_append(node)
        trace_append(attempt)
        if inst.kinds[node] is _UNLOCK:
            eid = inst.eids[node]
            lock_sites = inst.lock_sites[eid]
            if self._retains_locks:
                # Strict release-at-commit: the Unlock ends the lock's
                # logical scope, but the physical release rides on the
                # commit decision.
                for sid in lock_sites:
                    inst.retained.add((eid, sid))
                self._retained_total += len(lock_sites)
            else:
                site_list = self._site_list
                drive = self._drive_cascade
                grant_step = self._grant_step
                for sid in lock_sites:
                    for granted in site_list[sid].release(txn, eid):
                        task = grant_step(granted, eid, sid)
                        if task is not None:
                            drive(task)
                if inst.status != _RUNNING or inst.attempt != attempt:
                    # The release cascade wounded *us*: a grant it
                    # delivered can make this instance the new holder
                    # of a cell it was blocked on and an older waiter
                    # wounds it. The abort already reset done/issued,
                    # so the local `done` snapshot below is stale —
                    # issuing from it would lock entities for an
                    # aborted attempt.
                    return
        if done == inst.all_mask:
            self.commit.on_execution_complete(inst)
            return
        # Only direct successors of the completed node can have become
        # ready — no full pending rescan. The issue loop is the body of
        # ``_issue_nodes``, inlined: this handler runs once per
        # simulated operation and the call frame was measurable.
        pending = inst.succ[node] & ~inst.issued
        if not pending:
            return
        not_done = ~done
        preds = inst.preds
        kinds = inst.kinds
        net_delay = self._net_delay
        cross = inst.cross_mask
        network = self.network
        while pending:
            low = pending & -pending
            ready = low.bit_length() - 1
            pending ^= low
            if preds[ready] & not_done:
                continue
            inst.issued |= low
            if net_delay > 0 and cross >> ready & 1:
                if network is None or kinds[ready] is _LOCK:
                    # Lock issues stay client-local; see _issue_nodes.
                    self.schedule(
                        net_delay, ("issue", inst.index, ready, inst.attempt)
                    )
                else:
                    eid = inst.eids[ready]
                    sites = inst.lock_sites.get(eid)
                    self.transmit(
                        inst.home_sid,
                        sites[0] if sites else self._primary_sid[eid],
                        net_delay,
                        ("issue", inst.index, ready, inst.attempt),
                    )
                continue
            if kinds[ready] is _LOCK or self.failures is not None:
                self._issue_one(inst, ready)
                if inst.status != _RUNNING:
                    return  # the request aborted us (wait-die)
                continue
            self.schedule(
                self._service_time,
                ("op_done", inst.index, ready, inst.attempt),
            )

    def _abort(self, inst: _Instance, cause: str) -> None:
        """Release everything, forget progress, schedule a restart.

        ``cause`` is a key of
        :data:`~repro.sim.metrics.ABORT_CAUSE_COUNTERS`.
        """
        if inst.status != _RUNNING:
            return  # saves the frame; _abort_task re-checks for cascades
        self._drive_cascade(self._abort_task(inst, cause))

    def _abort_task(self, inst: _Instance, cause: str):
        """Abort one transaction; frame of the cascade worklist.

        The one place ``aborts`` and the abort-cause counters change.
        The ``abort`` probe goes out before the status flip, while the
        victim's waits-for edges still stand (flight-recorder
        snapshots rebuild the graph from RUNNING instances).
        """
        if inst.status != _RUNNING:
            return  # an earlier frame of this cascade got it first
        if self._probe is not None:
            self._probe("abort", (inst.index, inst.attempt, cause))
        inst.status = _ABORTED
        self.result.aborts += 1
        for name in ABORT_CAUSE_COUNTERS[cause]:
            self.count(name)
        txn = inst.index
        if inst.waiting:
            site_list = self._site_list
            for eid, sid in list(inst.waiting):
                # Cancelling a queued writer can expose a compatible
                # read batch behind it; those grants must be delivered.
                for grantee in site_list[sid].cancel_wait(txn, eid):
                    task = self._grant_step(grantee, eid, sid)
                    if task is not None:
                        yield task
            inst.waiting.clear()
        for sid, site in enumerate(self._site_list):
            released = site.release_all(txn)
            if released:
                for eid, granted in released:
                    for grantee in granted:
                        task = self._grant_step(grantee, eid, sid)
                        if task is not None:
                            yield task
        inst.done = 0
        inst.issued = 0
        if inst.retained:
            self._retained_total -= len(inst.retained)
            inst.retained.clear()
        inst.lock_sites.clear()
        inst.pending_replicas.clear()
        inst.exec_done_time = -1.0
        inst.prepared_since = -1.0
        inst.attempt += 1
        self.commit.on_abort(inst)
        delay = self.config.restart_delay + self._rng.uniform(
            0, self.config.restart_jitter
        )
        self.schedule(delay, ("restart", txn, inst.attempt))

    def _on_restart(self, txn: int, attempt: int) -> None:
        inst = self._instances[txn]
        if inst.status != _ABORTED or inst.attempt != attempt:
            return
        inst.status = _RUNNING
        self._issue_ready(inst)

    def _on_timeout(self, txn: int, node: int, attempt: int) -> None:
        inst = self._instances[txn]
        eid = inst.eids[node]
        if (
            inst.status == _RUNNING
            and inst.attempt == attempt
            and any(key[0] == eid for key in inst.waiting)
        ):
            self._abort(inst, "timeout")

    # ------------------------------------------------------------------
    # deadlock machinery
    # ------------------------------------------------------------------

    def _wait_for_edges(self) -> dict[int, set[int]]:
        """Waits-for graph rebuilt from scratch: waiter -> holders.

        The reference implementation — the hot path consumes the
        incrementally maintained :class:`WaitsForGraph` instead; this
        rebuild remains for the policies that never track the graph
        and as the oracle the property tests compare against.
        """
        edges: dict[int, set[int]] = {}
        site_list = self._site_list
        for inst in self._instances:
            if inst.status != _RUNNING or not inst.waiting:
                continue
            for eid, sid in inst.waiting:
                holders = site_list[sid].holders_map(eid)
                if holders:
                    edges.setdefault(inst.index, set()).update(holders)
        return edges

    def _find_deadlock_cycle(self) -> list[int] | None:
        """One waits-for cycle, or None.

        The maintained graph supplies the *blocked set* — the whole
        point of the incremental bookkeeping is that the detector no
        longer scans every instance ever injected. The edge sets fed to
        the DFS are then materialized per blocked waiter in exactly the
        historical construction order (waiting cells in insertion
        order, holders ascending), so the cycle found — and therefore
        the victim and every downstream event — is bit-identical to the
        full-rescan implementation.
        """
        wf = self._waits_for
        if wf is None:
            edges = self._wait_for_edges()
            return find_cycle(list(edges), lambda u: edges.get(u, ()))
        if not wf:
            return None
        instances = self._instances
        site_list = self._site_list
        wf_edges = wf._edges
        memo: dict[int, set[int] | tuple] = {}
        empty = ()

        def successors(txn: int):
            cached = memo.get(txn)
            if cached is None:
                if txn in wf_edges:
                    cached = set()
                    for eid, sid in instances[txn].waiting:
                        holders = site_list[sid].holders_map(eid)
                        if holders:
                            if len(holders) == 1:
                                # Sole (exclusive) holder — the common
                                # cell shape: inserting the one key
                                # needs no sort to reproduce the
                                # historical insertion sequence.
                                cached.update(holders)
                            else:
                                cached.update(sorted(holders))
                else:
                    cached = empty
                memo[txn] = cached
            return cached

        return find_cycle_ints(
            wf.blocked_sorted(), successors, len(instances)
        )

    def _on_detect(self) -> None:
        wf = self._waits_for
        if wf is not None and wf.mutations == self._clean_scan_version:
            # Not a single cell changed since a scan that found the
            # graph acyclic, and edge deletions alone cannot create a
            # cycle — this scan would provably find nothing.
            cycle = None
        else:
            cycle = self._find_deadlock_cycle()
            if cycle is None and wf is not None:
                self._clean_scan_version = wf.mutations
        if cycle:
            instances = self._instances
            victim = max(cycle, key=lambda i: instances[i].timestamp)
            self._abort(instances[victim], "detected")
        # Reschedule only while another scan could matter. New cycles
        # form only when other events run, so once every remaining
        # event sits beyond max_time (or the queue is empty), further
        # scans are provably useless — the old behaviour padded the
        # queue with one no-op scan per interval up to the horizon.
        next_event = self._queue.peek_time()
        if (
            next_event is not None
            and next_event <= self.config.max_time
            and self._now + self.config.detection_interval
            <= self.config.max_time
            and self.has_uncommitted()
        ):
            self.schedule(self.config.detection_interval, ("detect",))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result record."""
        config = self.config
        for inst in self._instances:
            start = self._rng.uniform(0, config.arrival_spread)
            inst.timestamp = start
            inst.start_time = start
            self._queue.push(start, ("begin", inst.index))
        if self.policy.uses_detection:
            self._queue.push(config.detection_interval, ("detect",))

        queue = self._queue
        heap = queue._heap  # borrowed: pop inline, one C call per event
        heappop = _heappop
        registry = self._registry
        # Instrumentation shadows ``dispatch`` per registry instance:
        # the observer hub, the benchmark's span recorder
        # (perfbench/recorder.py) and the waits-for invariant suite.
        # Honour the wrapper when present, otherwise route events
        # through the handler table directly — one dict hit and call
        # per event instead of an extra frame. (A typo'd event kind
        # then surfaces as KeyError rather than dispatch()'s
        # RuntimeError; both are caller bugs.)
        dispatch = registry.__dict__.get("dispatch")
        handlers = registry._handlers
        result = self.result
        max_time = config.max_time
        max_events = config.max_events
        warmup_time = config.warmup_time
        track_failures = self.failures is not None
        # With fault injection or a network model attached, trailing
        # upkeep events (crash/recover pairs, retransmission chains,
        # partition episodes) can outlive the work; break once the
        # batch drained so they cannot inflate end_time.
        drain_break = track_failures or self.network is not None
        events_processed = self._events_processed
        # The in-flight integral accumulates in a local and is flushed
        # after the loop — one float add per event instead of an
        # attribute read-modify-write.
        inflight_area = result.inflight_area
        try:
            while heap:
                time, _seq, payload = heappop(heap)
                if time > max_time:
                    result.truncated = True
                    break
                now = self._now
                if time > now:
                    # Integrate the in-flight count over the
                    # steady-state window; the mean concurrency level
                    # falls out of it.
                    lo = warmup_time if warmup_time > now else now
                    if time > lo:
                        inflight_area += self._inflight * (time - lo)
                    self._now = time
                events_processed += 1
                if events_processed > max_events:
                    result.truncated = True
                    break
                if dispatch is not None:
                    dispatch(payload)
                else:
                    handlers[payload[0]](*payload[1:])
                if (
                    drain_break
                    and self._retained_total == 0
                    and not self.has_uncommitted()
                ):
                    # All work committed and every retained lock
                    # released: the only events left are future
                    # crash/recover pairs, which would inflate end_time
                    # and the crash count (or spuriously truncate the
                    # run at a tight horizon).
                    break
        finally:
            result.inflight_area = inflight_area
            self._events_processed = events_processed

        self.result.end_time = self._now
        self.replicas.finalize()
        if self.arrivals is not None:
            # The run is over; materialize the accumulated transactions
            # as a real (indexed) TransactionSystem, so ``sim.system``
            # answers the static theory's queries after an open run.
            self.system = self.system.frozen()
        if self.result.committed < len(self.system):
            if not self._queue and not self.result.truncated:
                if self.policy.uses_detection:
                    # A detection run can only drain with work left
                    # when the scan chain stopped at the time budget —
                    # the next scan would have broken the wedge, so
                    # this is a truncation, not a permanent deadlock.
                    self.result.truncated = True
                else:
                    self.result.deadlocked = True
                    cycle = self._find_deadlock_cycle()
                    if cycle:
                        self.result.deadlock_cycle = tuple(cycle)
        self.result.latencies = [
            (inst.commit_time - inst.start_time)
            if inst.commit_time >= 0
            else -1.0
            for inst in self._instances
        ]
        self.result.exec_latencies = [
            (inst.exec_done_time - inst.start_time)
            if inst.commit_time >= 0
            else -1.0
            for inst in self._instances
        ]
        self.result.commit_latencies = [
            (inst.commit_time - inst.exec_done_time)
            if inst.commit_time >= 0
            else -1.0
            for inst in self._instances
        ]
        self.result.start_times = [
            inst.start_time for inst in self._instances
        ]
        self.result.serializable = self._check_serializability()
        if self.observe is not None:
            self.observe.finalize()
        return self.result

    # ------------------------------------------------------------------
    # serializability verdict
    # ------------------------------------------------------------------

    def _final_steps(
        self, committed_only: bool
    ) -> Iterator[tuple[int, int]]:
        # The trace is appended in dispatch order, which is already
        # (time, seq) order — the historical sort was a no-op and is
        # gone. Steps are yielded, not listed, so the end-of-run
        # verdict over a long trace holds no tuple per step. ``final``
        # is, per transaction, the attempt whose operations the steps
        # keep: -1, which no attempt has, for one they leave out.
        final = [
            inst.attempt
            if inst.status != _ABORTED
            and (not committed_only or inst.status == _COMMITTED)
            else -1
            for inst in self._instances
        ]
        entries = iter(self._trace)
        for txn, node, attempt in zip(entries, entries, entries):
            if attempt == final[txn]:
                yield txn, node

    def _check_serializability(self) -> bool:
        """Test Lemma 1's D(S') over the final attempts' history.

        One pass over each transaction's final attempt, partial
        progress included (what makes Lemma 1 exact at deadlocks). Two
        accesses of one entity conflict unless both are reads, and
        conflicting accesses are ordered by lock acquisition; the pass
        keeps the arcs that carry reachability: the last writer to each
        later reader, and the readers since the last writer (without
        any, the last writer itself) to the next writer. A transaction
        that has not locked an entity it accesses follows its lockers
        by the same rule (Lemma 1). On an all-exclusive trace this is
        the sparse D(S') of :func:`repro.core.serialization.d_graph`.

        A lock granted while another final attempt holds the entity in
        a conflicting mode fails the verdict: ``rowa-available`` writes
        lock only the replicas they reach, so across a partition or a
        site failure two attempts can hold one entity through disjoint
        replica sets.

        Raises:
            RuntimeError: if a step repeats or runs before one of its
                predecessors (a runtime bug).
        """
        instances = self._instances
        n_entities = len(self._entity_names)
        masks = [0] * len(instances)
        last_writer = [-1] * n_entities
        readers: list[list[int]] = [[] for _ in range(n_entities)]
        writers_in = [0] * n_entities
        readers_in = [0] * n_entities
        edges: dict[int, list[int]] = {}
        legal = True

        def follow(txn: int, eid: int, shared: bool) -> None:
            # Arcs into ``txn`` from the accessors of ``eid`` so far
            # that its access conflicts with.
            if shared or not readers[eid]:
                if last_writer[eid] >= 0:
                    edges.setdefault(last_writer[eid], []).append(txn)
            else:
                for reader in readers[eid]:
                    edges.setdefault(reader, []).append(txn)

        for txn, node in self._final_steps(False):
            inst = instances[txn]
            mask = masks[txn]
            if mask >> node & 1 or inst.preds[node] & ~mask:
                label = self.system.describe_node(GlobalNode(txn, node))
                raise RuntimeError(
                    f"the trace repeats {label}" if mask >> node & 1
                    else f"the trace runs {label} before a predecessor"
                )
            masks[txn] = mask | 1 << node
            kind = inst.kinds[node]
            if kind is _LOCK:
                eid = inst.eids[node]
                shared = eid in inst.shared_eids
                if writers_in[eid] or not shared and readers_in[eid]:
                    legal = False
                follow(txn, eid, shared)
                if shared:
                    readers_in[eid] += 1
                    readers[eid].append(txn)
                else:
                    writers_in[eid] += 1
                    last_writer[eid] = txn
                    readers[eid] = []
            elif kind is _UNLOCK:
                eid = inst.eids[node]
                if eid in inst.shared_eids:
                    readers_in[eid] -= 1
                else:
                    writers_in[eid] -= 1
        for inst in instances:
            mask = masks[inst.index]
            if mask != inst.all_mask:
                for eid, node in inst.lock_node_of.items():
                    if not mask >> node & 1:
                        follow(inst.index, eid, eid in inst.shared_eids)
        return legal and find_cycle_ints(
            list(edges), lambda u: edges.get(u, ()), len(instances)
        ) is None

    def committed_schedule(self) -> Schedule:
        """The committed trace as a validated Schedule.

        Only meaningful for all-exclusive workloads: shared read locks
        permit interleavings the exclusive-lock Schedule validation
        rejects.
        """
        return Schedule(self.system, self._final_steps(True))

def simulate(
    system: TransactionSystem,
    policy: Policy | str = "blocking",
    config: SimulationConfig | None = None,
    *,
    stream: ArrivalStream | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a Simulator and run it."""
    return Simulator(system, policy, config, stream=stream).run()


def find_deadlocking_seed(
    system: TransactionSystem,
    max_seeds: int = 200,
    config: SimulationConfig | None = None,
) -> tuple[int, SimulationResult] | None:
    """Search arrival orders for one that wedges the blocking scheduler.

    A cheap dynamic fuzzer: statically refuted systems usually wedge
    within a few seeds, while certified systems never do (the property
    tests rely on exactly that asymmetry).

    Args:
        system: the system to stress.
        max_seeds: how many seeds to try.
        config: base configuration; its seed field is overridden.

    Returns:
        ``(seed, result)`` for the first deadlocking run, or None.
    """
    base = config or SimulationConfig()
    for seed in range(max_seeds):
        result = simulate(
            system, "blocking", dataclasses.replace(base, seed=seed)
        )
        if result.deadlocked:
            return seed, result
    return None
