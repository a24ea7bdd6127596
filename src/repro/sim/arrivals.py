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
* each arrival's transaction is generated from a *per-arrival seed*
  mixed from ``(config.seed, arrival index)``, so arrival ``n`` is the
  same transaction no matter what happened before it — the property
  the parallel sweep runner's bit-identical guarantee rests on;
* the schema derives from ``config.workload_seed`` alone, so runs with
  different ``seed`` (replicates) stress the *same* database.

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
    from repro.sim.runtime import Simulator

__all__ = ["ArrivalProcess", "OpenSystem"]


class OpenSystem:
    """Growable stand-in for :class:`TransactionSystem` in open runs.

    The runtime only needs indexing, length, and the merged schema
    while executing; rebuilding an immutable ``TransactionSystem`` per
    arrival would make a run quadratic in the number of injections, so
    arrivals append here in O(1) and :meth:`frozen` materializes the
    real thing once, when the run ends (the trace-replay machinery
    needs the full accessor indexes).
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


class ArrivalProcess:
    """Injects freshly generated transactions via simulator events."""

    __slots__ = (
        "sim", "spec", "_clock", "schema", "compiled", "injected",
        "finished", "_base_names", "_gen_rng",
    )

    def __init__(self, sim: "Simulator"):
        config = sim.config
        if config.arrival_rate <= 0:
            raise ValueError("arrival process needs arrival_rate > 0")
        self.sim = sim
        self.spec = config.workload or WorkloadSpec()
        # Private clock stream: arrivals must not perturb the main RNG.
        self._clock = random.Random(
            (config.seed + 2) * 1_000_003 + 0xA441
        )
        # The database is a property of the workload, not the replicate:
        # seeds vary the traffic, workload_seed varies the schema.
        schema_rng = random.Random(
            (config.workload_seed + 1) * 9_176_117 + 0x5C4E
        )
        self.schema = random_schema(
            schema_rng, self.spec.n_entities, self.spec.n_sites
        )
        # A closed batch may already place entities with pool names
        # (generated workloads are all named e0..eN): the batch's
        # placement wins for shared entities, so the merged schema is
        # always consistent and the injected traffic contends with the
        # batch on the shared part of the database.
        base_schema = sim.system.schema
        shared = [
            entity
            for entity in sorted(self.schema.entities)
            if entity in base_schema
        ]
        if shared:
            placement = {
                entity: self.schema.site_of(entity)
                for entity in sorted(self.schema.entities)
            }
            for entity in shared:
                placement[entity] = base_schema.site_of(entity)
            self.schema = DatabaseSchema(placement)
        # Per-spec generation tables, compiled once: every arrival
        # draws from them and builds its transaction on the trusted
        # (validation-free) path, as closed batches do.
        self.compiled = CompiledWorkload(self.spec, self.schema)
        # One Random reused across arrivals: re-seeding puts it in
        # exactly the state a fresh Random(seed) would start in, minus
        # the per-arrival object construction.
        self._gen_rng = random.Random()
        self.injected = 0
        self.finished = False
        self._base_names: frozenset[str] = frozenset()

    def attach(self) -> None:
        """Register the event handler and start the Poisson clock."""
        sim = self.sim
        sim.register_handler("arrive", self._on_arrive)
        self._base_names = frozenset(t.name for t in sim.system)
        self._schedule_next()

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def _arrival_seed(self, index: int) -> int:
        """Per-arrival workload seed, mixed from (run seed, index)."""
        return (
            self.sim.config.seed * 2_654_435_761 + index * 40_503 + 1
        ) & 0xFFFF_FFFF

    def _name(self, index: int) -> str:
        name = f"TX{index + 1}"
        while name in self._base_names:  # collision with the closed batch
            name += "'"
        return name

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
        index = self.injected
        rng = self._gen_rng
        rng.seed(self._arrival_seed(index))
        txn = self.compiled.generate(self._name(index), rng)
        self.injected += 1
        self.sim.add_transaction(txn)
        self._schedule_next()
