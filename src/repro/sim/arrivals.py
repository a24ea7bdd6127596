"""Open-system arrivals: transactions injected on a Poisson clock.

The closed-batch simulator replays a fixed set of transactions once;
this subsystem turns the run into an *open system* in the queueing
sense — clients keep arriving with exponential interarrival times
(rate ``config.arrival_rate``) and each arrival is a freshly generated
transaction drawn from the run's :class:`~repro.sim.workload.
WorkloadSpec` over a schema fixed for the whole run. Together with the
warm-up window this is what makes steady-state throughput and latency
percentiles meaningful: contention is sustained rather than a single
transient burst.

Determinism is layered the same way as the failure injector:

* the *clock* stream (interarrival gaps) is private, so enabling
  arrivals never perturbs restart jitter or the closed batch's spread;
* arrival ``n`` injects item ``n`` of the run's :class:`ArrivalStream`,
  generated from a *per-arrival seed* mixed from ``(config.seed, n)``,
  so it is the same transaction no matter what happened before it —
  the property the parallel sweep runner's bit-identical guarantee
  rests on;
* a stream depends on four things only, its :attr:`ArrivalStream.key`:
  the workload spec, the arrival schema, the run seed and the closed
  batch's transaction names (an arrival whose ``TXn`` name collides
  with one gets primes). Policy, commit protocol, replica protocol,
  arrival rate, failures and chaos change none of them, so every run
  that derives the same key injects the same transactions and may read
  one shared stream: the stream generates each transaction on its
  first request and keeps it for the next reader;
* the schema derives from ``config.workload_seed`` alone (with the
  closed batch's placement winning for shared entity names), so runs
  with different ``seed`` (replicates) stress the *same* database.

Injection stops at ``config.max_transactions`` arrivals, or as soon as
the next arrival would land past ``config.max_time``; the run then
drains naturally.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.sim.workload import (
    CompiledWorkload,
    WorkloadSpec,
    random_schema,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runtime import SimulationConfig, Simulator

__all__ = ["ArrivalProcess", "ArrivalStream", "OpenSystem"]


class OpenSystem:
    """Growable stand-in for :class:`TransactionSystem` in open runs.

    The runtime only needs indexing, length, and the merged schema
    while executing; rebuilding an immutable ``TransactionSystem`` per
    arrival would make a run quadratic in the number of injections, so
    arrivals append here in O(1) and :meth:`frozen` materializes the
    real thing once, when the run ends, so ``sim.system`` answers the
    static theory's queries (accessor indexes, schedules) afterwards.
    """

    __slots__ = ("schema", "transactions")

    def __init__(
        self, transactions: Iterable[Transaction], schema: DatabaseSchema
    ):
        self.transactions: list[Transaction] = list(transactions)
        self.schema = schema

    def __len__(self) -> int:
        return len(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def __iter__(self):
        return iter(self.transactions)

    def append(self, txn: Transaction) -> int:
        """Add a transaction; its entities must be in ``schema``."""
        self.transactions.append(txn)
        return len(self.transactions) - 1

    def frozen(self) -> TransactionSystem:
        """The accumulated transactions as a real TransactionSystem.

        The run schema already covers every member — it was merged from
        the closed batch's and the arrival process's schemas at
        simulator construction, and :meth:`append` admits only
        transactions over it — so the freeze hands it over instead of
        re-merging one schema per transaction (which made freezing a
        long batch+arrival run linear in run length times schema size).
        """
        return TransactionSystem(self.transactions, schema=self.schema)


def _arrival_schema(
    spec: WorkloadSpec, workload_seed: int, base_schema: DatabaseSchema
) -> DatabaseSchema:
    """The database the arrivals run over.

    It is a property of the workload, not the replicate: seeds vary
    the traffic, ``workload_seed`` varies the schema. A closed batch
    may already place entities with pool names (generated workloads
    are all named e0..eN): the batch's placement wins for shared
    entities, so the merged schema is always consistent and the
    injected traffic contends with the batch on the shared part of the
    database.
    """
    schema_rng = random.Random((workload_seed + 1) * 9_176_117 + 0x5C4E)
    schema = random_schema(schema_rng, spec.n_entities, spec.n_sites)
    shared = [
        entity for entity in sorted(schema.entities) if entity in base_schema
    ]
    if not shared:
        return schema
    placement = {
        entity: schema.site_of(entity) for entity in sorted(schema.entities)
    }
    for entity in shared:
        placement[entity] = base_schema.site_of(entity)
    return DatabaseSchema(placement)


class ArrivalStream:
    """Arrival ``i``'s transaction, for every run that shares a key.

    ``stream[i]`` is the transaction the ``i``-th arrival injects. It
    is generated on first request — re-seeded from ``(seed, i)``, named
    ``TX{i+1}`` (primed past the closed batch's names), then drawn by
    :meth:`CompiledWorkload.generate <repro.sim.workload.
    CompiledWorkload.generate>` — and kept, so every later run that
    reads the stream takes the same object instead of generating it
    again. Runs share the transactions read-only: the simulator never
    mutates one, and the one write any query makes, a ``Dag``'s lazy
    closure cache, stores the same value whoever makes it first.

    Args:
        system: the run's closed batch (empty for a pure open system).
        config: the run's configuration; only its workload spec,
            ``workload_seed`` and ``seed`` matter (see :meth:`key_of`).
    """

    def __init__(self, system: TransactionSystem, config: SimulationConfig):
        self.key = self.key_of(system, config)
        spec, self.schema, self.seed, self._base_names = self.key
        # Per-spec generation tables, compiled once: every arrival
        # draws from them and builds its transaction on the trusted
        # (validation-free) path, as closed batches do.
        self.compiled = CompiledWorkload(spec, self.schema)
        # One Random reused across arrivals: re-seeding puts it in
        # exactly the state a fresh Random(seed) would start in, minus
        # the per-arrival object construction.
        self._rng = random.Random()
        self._transactions: list[Transaction] = []

    @staticmethod
    def key_of(system: TransactionSystem, config: SimulationConfig) -> tuple:
        """What every arrival of a run depends on besides its index:
        ``(workload spec, arrival schema, run seed, closed batch
        names)``."""
        spec = config.workload or WorkloadSpec()
        return (
            spec,
            _arrival_schema(spec, config.workload_seed, system.schema),
            config.seed,
            frozenset(t.name for t in system),
        )

    @classmethod
    def reuse(
        cls,
        previous: ArrivalStream | None,
        system: TransactionSystem,
        config: SimulationConfig,
    ) -> ArrivalStream:
        """The stream of a run of ``system`` under ``config``:
        ``previous`` when its key matches the run's, else a new one."""
        if previous is not None and previous.serves(system, config):
            return previous
        return cls(system, config)

    def serves(
        self, system: TransactionSystem, config: SimulationConfig
    ) -> bool:
        """Whether a run of ``system`` under ``config`` injects exactly
        this stream's transactions (derives the same key)."""
        return self.key == self.key_of(system, config)

    def __getitem__(self, index: int) -> Transaction:
        transactions = self._transactions
        while len(transactions) <= index:
            transactions.append(self._generate(len(transactions)))
        return transactions[index]

    def _generate(self, index: int) -> Transaction:
        rng = self._rng
        rng.seed(
            (self.seed * 2_654_435_761 + index * 40_503 + 1) & 0xFFFF_FFFF
        )
        name = f"TX{index + 1}"
        while name in self._base_names:  # collision with the closed batch
            name += "'"
        return self.compiled.generate(name, rng)


class ArrivalProcess:
    """Injects a stream's transactions via simulator events.

    Args:
        sim: the simulator, whose ``system`` is still the closed batch.
        stream: the arrivals to inject; None builds the run's own.

    Raises:
        ValueError: without a positive arrival rate, or when
            ``stream`` was built for a run with another key.
    """

    __slots__ = ("sim", "stream", "_clock", "injected", "finished")

    def __init__(self, sim: Simulator, stream: ArrivalStream | None = None):
        config = sim.config
        if config.arrival_rate <= 0:
            raise ValueError("arrival process needs arrival_rate > 0")
        if stream is None:
            stream = ArrivalStream(sim.system, config)
        elif not stream.serves(sim.system, config):
            raise ValueError(
                "arrival stream was built for another run: its workload "
                "spec, arrival schema, seed or closed-batch names differ"
            )
        self.sim = sim
        self.stream = stream
        # Private clock stream: arrivals must not perturb the main RNG.
        self._clock = random.Random(
            (config.seed + 2) * 1_000_003 + 0xA441
        )
        self.injected = 0
        self.finished = False

    @property
    def schema(self) -> DatabaseSchema:
        """The database the arrivals run over."""
        return self.stream.schema

    def attach(self) -> None:
        """Register the event handler and start the Poisson clock."""
        self.sim.register_handler("arrive", self._on_arrive)
        self._schedule_next()

    def _schedule_next(self) -> None:
        sim = self.sim
        limit = sim.config.max_transactions
        if 0 < limit <= self.injected:
            self.finished = True
            return
        gap = self._clock.expovariate(sim.config.arrival_rate)
        if sim.now + gap > sim.config.max_time:
            # Past the horizon: stop injecting and let the queue drain.
            self.finished = True
            return
        sim.schedule(gap, ("arrive",))

    def _on_arrive(self) -> None:
        txn = self.stream[self.injected]
        self.injected += 1
        self.sim.add_transaction(txn)
        self._schedule_next()
