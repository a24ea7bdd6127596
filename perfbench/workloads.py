"""The benchmark's four seeded workloads and its behaviour digest.

Every workload is a pure function of ``--seed``: the seed picks the
closed batch, the arrival schema, the simulation RNG and (for the
grid) the replicate seeds, so one seed always yields the same inputs
and, the simulator being deterministic, the same digest.

* ``core-open`` — the ``open-long`` shape of
  ``benchmarks/bench_core_speed.py``: wound-wait, instant commit,
  write-only exclusive locks, a closed seed batch plus sustained
  arrivals of larger transactions. No optional layer attaches.
* ``stack-chaos`` — an open system below saturation with every
  optional layer at once: Paxos Commit (F=1), quorum replication at
  factor 3 with a 30% read mix, lossy/duplicating/jittery network,
  write-ahead logs, and site crashes.
* ``observed-2pc`` — closed batches under two-phase commit with full
  observation (tracer, sampler, attribution); each batch's burst of
  restarts drives the observer's probe stream hard. One run is three
  replicate batches: a single batch's abort storm is chaotic (its
  event count moves by 8% from seed to seed), three average it out.
* ``sweep-grid`` — a pooled ``run_sweep`` grid of short open-system
  cells (policies x commit protocols x four replicate seeds).

``ladder_rung`` rebuilds ``stack-chaos`` one layer at a time, from bare
instant commit up to the full stack (rungs in ``ladder.LADDER``); its
top rung is ``stack-chaos``.
"""

from __future__ import annotations

import hashlib
import random

from ladder import LADDER
from repro.core.system import TransactionSystem
from repro.experiments import SweepSpec
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.observe import ObserveConfig
from repro.sim.runtime import SimulationConfig
from repro.sim.workload import WorkloadSpec, random_system

# Sizes give one run about 1-3 s of host time on a 2-vCPU machine, so a
# 25 s measurement medians several fresh processes.
CORE_OPEN_ARRIVALS = 6000
STACK_CHAOS_ARRIVALS = 2200
OBSERVED_BATCH = 300
OBSERVED_REPLICATES = 3
SWEEP_ARRIVALS = 450

# BENCH_core's digest surface plus the commit, network and log ledgers,
# so a change in any attached layer's behaviour moves the digest.
DIGEST_FIELDS = (
    "policy", "commit_protocol", "replica_protocol", "replication_factor",
    "committed", "total", "end_time", "aborts", "wounds", "deaths",
    "timeouts", "detected", "crash_aborts", "unavailable_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated", "injected",
    "measured_committed", "inflight_area",
    "acceptor_messages", "coordinator_takeovers",
    "net_sent", "net_delivered", "net_dropped", "net_duplicates",
    "net_retransmits", "net_acks", "net_inflight", "partitions",
    "partition_time",
    "log_forces", "tail_losses", "torn_writes", "amnesia_wipes",
    "log_replays", "in_doubt_resolved", "retained_lock_time",
)


def result_digest(result) -> str:
    """Hash of every digest field of one simulation result."""
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in DIGEST_FIELDS)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def combined_digest(results) -> str:
    """Digest of a list of results (a sweep grid, in cell order)."""
    blob = ",".join(result_digest(r) for r in results)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def problems(result) -> list[str]:
    """Why a run does not count as a finished run (empty when it does)."""
    found = []
    if result.truncated:
        found.append("truncated")
    if result.deadlocked:
        found.append("deadlocked")
    if result.committed != result.total:
        found.append(f"committed {result.committed} of {result.total}")
    return found


def core_open(seed: int):
    spec = WorkloadSpec(
        n_transactions=200, n_entities=64, n_sites=8,
        entities_per_txn=(3, 5), actions_per_entity=(1, 3),
        hotspot_skew=0.4,
    )
    batch = random_system(random.Random(seed), spec)
    return batch, "wound-wait", SimulationConfig(
        arrival_rate=0.3, max_transactions=CORE_OPEN_ARRIVALS,
        arrival_spread=200.0, warmup_time=50.0, workload=spec,
        seed=seed, workload_seed=seed, max_time=400_000.0,
    )


def ladder_rung(seed: int, rung: str):
    """``stack-chaos`` with the layers up to and including ``rung``."""
    level = LADDER.index(rung)
    spec = WorkloadSpec(
        n_entities=24, n_sites=6, entities_per_txn=(2, 3),
        actions_per_entity=(0, 1), hotspot_skew=0.4, read_fraction=0.3,
        replication_factor=3 if level >= 2 else 1,
    )
    config = SimulationConfig(
        arrival_rate=0.2, max_transactions=STACK_CHAOS_ARRIVALS,
        warmup_time=50.0, workload=spec, seed=seed, workload_seed=seed,
        network_delay=0.5, max_events=5_000_000,
        commit_protocol="paxos-commit" if level >= 1 else "instant",
        commit_fault_tolerance=1,
        replica_protocol="quorum" if level >= 2 else "rowa",
        network=(
            NetworkConfig(loss_rate=0.02, dup_rate=0.01, jitter=0.2)
            if level >= 3 else None
        ),
        durability=DurabilityConfig(flush_time=0.2) if level >= 4 else None,
        failure_rate=0.001 if level >= 5 else 0.0,
        repair_time=8.0,
    )
    return TransactionSystem([]), "wound-wait", config


def observed_2pc(seed: int, observe: bool = True):
    """One closed batch; ``build`` runs ``OBSERVED_REPLICATES`` of them."""
    spec = WorkloadSpec(
        n_transactions=OBSERVED_BATCH, n_entities=32, n_sites=8,
        entities_per_txn=(2, 4), actions_per_entity=(0, 2),
        hotspot_skew=0.5,
    )
    system = random_system(random.Random(seed), spec)
    return system, "wound-wait", SimulationConfig(
        arrival_spread=OBSERVED_BATCH / 2.0, seed=seed,
        commit_protocol="two-phase", network_delay=0.5,
        max_events=5_000_000,
        observe=(
            ObserveConfig(trace=True, metrics_window=25.0, attribution=True)
            if observe else None
        ),
    )


def sweep_spec(seed: int) -> SweepSpec:
    workload = WorkloadSpec(
        n_entities=64, n_sites=8, entities_per_txn=(2, 4),
        actions_per_entity=(0, 2), hotspot_skew=0.2,
    )
    return SweepSpec(
        policies=("wound-wait", "wait-die"),
        protocols=("instant", "two-phase", "paxos-commit"),
        arrival_rates=(0.3,),
        seeds=tuple(range(4 * seed, 4 * seed + 4)),
        workload=workload,
        base=SimulationConfig(
            max_transactions=SWEEP_ARRIVALS, warmup_time=20.0,
            network_delay=0.5,
        ),
    )


def build(workload: str, seed: int, variant: str = "") -> list[tuple]:
    """The ``(system, policy, config)`` simulations of one run of a
    simulator workload, run one after another.

    ``variant`` selects ``plain`` (``observed-2pc`` without its
    observer) or a ladder rung (``stack-chaos``).
    """
    if workload == "core-open":
        return [core_open(seed)]
    if workload == "stack-chaos":
        return [ladder_rung(seed, variant or LADDER[-1])]
    if workload == "observed-2pc":
        first = OBSERVED_REPLICATES * seed
        return [
            observed_2pc(first + k, observe=variant != "plain")
            for k in range(OBSERVED_REPLICATES)
        ]
    raise ValueError(f"unknown simulator workload {workload!r}")
