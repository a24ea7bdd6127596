"""Sweep specification and the (optionally parallel) cell runner.

The sweep grid is the cross product of the spec's axes in declaration
order (policy outermost, seed innermost), so cell order — and therefore
result order — is deterministic and independent of how the cells are
executed.

Closed-batch cells (``arrival_rate == 0``) regenerate the workload
system from ``base.workload_seed``, so every cell of a sweep stresses
the *same* batch; open-system cells start empty and let the arrival
process inject traffic over the schema derived from the same
``workload_seed``. Either way a cell depends only on picklable spec
data, which is what lets :func:`run_sweep` fan cells out to worker
processes.

Inside one process the cells share what they would otherwise rebuild.
Every open cell of one replicate seed injects the same arrivals (see
:class:`~repro.sim.arrivals.ArrivalStream`: policy, protocol, rates
and chaos do not change them), so :func:`run_sweep` orders the cells
by seed and cuts them into batches that never span two seeds; a pool
worker takes one batch at a time. A batch builds the closed batch
once, and reads its seed's arrivals from one stream that generates
every transaction once for all of the batch's cells. The cells share
these objects read-only, so a cell's result is the same in any batch,
on any worker.

The commit-protocol axis accepts every registered protocol name
(including ``paxos-commit``); knobs that are not grid axes — e.g.
``commit_fault_tolerance``, Paxos Commit's F — ride in ``base`` and
apply to every cell via :meth:`SweepSpec.cell_config`.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import random
from dataclasses import dataclass

from repro.core.system import TransactionSystem
from repro.sim.arrivals import ArrivalStream
from repro.sim.metrics import SimulationResult
from repro.sim.runtime import SimulationConfig, simulate
from repro.sim.workload import WorkloadSpec, random_system

__all__ = ["SweepCell", "SweepSpec", "run_cell", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    """One grid point: the coordinates of a single simulation run."""

    policy: str
    protocol: str
    arrival_rate: float
    failure_rate: float
    seed: int
    # Appended with defaults so positional construction of the
    # historical five-coordinate cells keeps working.
    replica_protocol: str = "rowa"
    loss_rate: float = 0.0
    partition_rate: float = 0.0


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of simulation runs.

    Attributes:
        policies: contention policies to sweep.
        protocols: atomic-commit protocols to sweep.
        replica_protocols: replica-control protocols to sweep (the
            replication factor itself rides in ``workload``).
        arrival_rates: open-system arrival rates; 0 means the cell
            replays the closed batch generated from ``workload``.
        failure_rates: per-site crash rates.
        seeds: replicate seeds (each becomes a cell's run seed).
        workload: workload drawn by closed batches and arrivals alike.
        base: configuration shared by every cell; each cell overrides
            its seed, protocol, arrival rate, and failure rate.
        loss_rates: network message-loss probabilities (chaos axis;
            the all-zero default leaves cells chaos-free).
        partition_rates: Poisson partition-episode arrival rates
            (chaos axis; episode duration and retransmission knobs
            ride in ``base.network``).
    """

    policies: tuple[str, ...] = ("wound-wait", "wait-die")
    protocols: tuple[str, ...] = ("instant",)
    replica_protocols: tuple[str, ...] = ("rowa",)
    arrival_rates: tuple[float, ...] = (0.0,)
    failure_rates: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0, 1, 2)
    workload: WorkloadSpec = WorkloadSpec()
    base: SimulationConfig = SimulationConfig()
    # Appended with singleton defaults: existing positional specs and
    # the cell order of chaos-free sweeps are unchanged.
    loss_rates: tuple[float, ...] = (0.0,)
    partition_rates: tuple[float, ...] = (0.0,)

    def cells(self) -> list[SweepCell]:
        """Every grid point, in deterministic declaration order."""
        return [
            SweepCell(
                policy, protocol, arrival_rate, failure_rate, seed,
                replica_protocol, loss_rate, partition_rate,
            )
            for policy in self.policies
            for protocol in self.protocols
            for replica_protocol in self.replica_protocols
            for arrival_rate in self.arrival_rates
            for failure_rate in self.failure_rates
            for loss_rate in self.loss_rates
            for partition_rate in self.partition_rates
            for seed in self.seeds
        ]

    def cell_config(self, cell: SweepCell) -> SimulationConfig:
        """The cell's full simulation configuration."""
        network = self.base.network
        if cell.loss_rate > 0 or cell.partition_rate > 0:
            # Chaos axes override the base network template (a plain
            # NetworkConfig() template when the base has none).
            from repro.sim.network import NetworkConfig

            network = dataclasses.replace(
                network or NetworkConfig(),
                loss_rate=cell.loss_rate,
                partition_rate=cell.partition_rate,
            )
        return dataclasses.replace(
            self.base,
            seed=cell.seed,
            commit_protocol=cell.protocol,
            replica_protocol=cell.replica_protocol,
            arrival_rate=cell.arrival_rate,
            failure_rate=cell.failure_rate,
            workload=self.workload,
            network=network,
        )

    def cell_system(self, cell: SweepCell) -> TransactionSystem:
        """The cell's starting system (empty for open-system cells)."""
        if cell.arrival_rate > 0:
            return TransactionSystem([])
        return random_system(
            random.Random(self.base.workload_seed), self.workload
        )


def run_cell(spec: SweepSpec, cell: SweepCell) -> SimulationResult:
    """Run one cell of the sweep."""
    return simulate(
        spec.cell_system(cell), cell.policy, spec.cell_config(cell)
    )


def _run_batch(
    spec: SweepSpec, cells: list[SweepCell], collect: bool
) -> list[SimulationResult]:
    """Run ``cells`` in order; the results align with them.

    The cells share one closed batch and, while consecutive open cells
    read the same arrivals, one stream; a cell whose stream key differs
    replaces the stream, so the batch holds one at a time.

    ``collect`` frees each finished cell before the next one starts. A
    finished ``Simulator`` is cyclic garbage (its handlers are its
    bound methods, and every subsystem holds the simulator), so it
    outlives its cell until the cyclic collector runs; a worker left
    to the automatic collections carried several dead cells at its
    peak. Only pool workers collect: a large caller process would pay
    a full collection per cell.
    """
    systems: dict[bool, TransactionSystem] = {}
    stream = None
    results = []
    for cell in cells:
        is_open = cell.arrival_rate > 0
        system = systems.get(is_open)
        if system is None:
            system = systems[is_open] = spec.cell_system(cell)
        config = spec.cell_config(cell)
        if is_open:
            stream = ArrivalStream.reuse(stream, system, config)
        results.append(simulate(
            system, cell.policy, config, stream=stream if is_open else None
        ))
        if collect:
            gc.collect()
    return results


def _batches(cells: list[SweepCell], workers: int) -> list[list[int]]:
    """Cell indices in seed order, the stream order, cut into batches.

    One worker gets one batch of every cell. For a pool, each seed's
    cells are cut into the same number of near-equal contiguous runs,
    enough for twice as many batches as ``workers`` (one run per seed
    when there are that many seeds): no batch spans two seeds, and the
    spare batches let the pool balance cells of unequal cost. Each
    worker that takes a run of a seed builds that seed's stream.
    """
    runs: dict[int, list[int]] = {}
    for index, cell in enumerate(cells):
        runs.setdefault(cell.seed, []).append(index)
    ordered = [runs[seed] for seed in sorted(runs)]
    if workers <= 1:
        return [[index for run in ordered for index in run]]
    pieces = -(-2 * workers // len(ordered))
    batches = []
    for run in ordered:
        count = min(pieces, len(run))
        size, extra = divmod(len(run), count)
        bounds = [k * size + min(k, extra) for k in range(count + 1)]
        batches.extend(run[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    return batches


def run_sweep(
    spec: SweepSpec,
    processes: int | None = None,
    parallel: bool = True,
) -> list[SimulationResult]:
    """Run every cell of the sweep; results align with ``spec.cells()``.

    Args:
        spec: the grid to run.
        processes: worker count (None = one per CPU, capped at the
            batch count). A worker takes the next of the seed-ordered
            batches of :func:`_batches` when it finishes one.
        parallel: False forces serial in-process execution — the
            reference the parallel path is tested bit-identical to.
    """
    cells = spec.cells()
    if not parallel or len(cells) <= 1:
        processes = 1
    elif processes is None:
        processes = multiprocessing.cpu_count()
    batches = _batches(cells, processes)
    tasks = [
        (spec, [cells[index] for index in batch], processes > 1)
        for batch in batches
    ]
    if processes <= 1:
        outputs = [_run_batch(*task) for task in tasks]
    else:
        with multiprocessing.Pool(min(processes, len(batches))) as pool:
            outputs = pool.starmap(_run_batch, tasks, chunksize=1)
    results = [None] * len(cells)
    for batch, output in zip(batches, outputs):
        for index, result in zip(batch, output):
            results[index] = result
    return results
