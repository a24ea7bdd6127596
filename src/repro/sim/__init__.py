"""Discrete-event simulation of a distributed lock scheduler.

The paper reasons statically about *all* legal interleavings; this
package provides the dynamic counterpart — a simulator that executes a
:class:`repro.core.TransactionSystem` across its sites under a chosen
contention policy:

* ``blocking`` — pure waiting; deadlocks are possible and detected when
  the event queue drains with work remaining (this is the regime the
  paper's certificates speak about);
* ``wound-wait`` / ``wait-die`` — the timestamp prevention schemes of
  Rosenkrantz, Stearns & Lewis [RSL], the practical baselines;
* ``timeout`` — abort-and-restart on lock waits exceeding a deadline;
* ``detect`` — periodic wait-for-graph cycle detection with youngest-
  victim abort.

Orthogonally to the policy, an atomic-commit protocol
(:mod:`repro.sim.commit`: ``instant``, ``two-phase``,
``presumed-abort``) decides when a finished transaction is durably
committed, and a fault injector (:mod:`repro.sim.failures`) can crash
and repair sites — together they turn the lock-conflict model into a
full distributed-transaction system with blocked participants,
coordinator recovery, and abort cascades. An arrival process
(:mod:`repro.sim.arrivals`, ``arrival_rate > 0``) opens the system:
fresh transactions keep arriving on a Poisson clock and steady-state
metrics (throughput, concurrency, latency percentiles) are measured
past a warm-up window. A replica-control layer
(:mod:`repro.sim.replication`, ``WorkloadSpec.replication_factor > 1``)
maps each logical entity to a replica set of sites and routes reads
(shared locks) and writes (exclusive locks) through ``rowa``,
``rowa-available``, or ``quorum`` — failures then cost availability,
which the run integrates per protocol. A durability model
(:mod:`repro.sim.durability`, ``SimulationConfig(durability=
DurabilityConfig(...))``) gives each site a simulated write-ahead log:
protocol force points cost real flush time, crashes truncate state to
the log (with optional tail-loss / torn-write / amnesia faults), and
recovery replays the log, re-acquires the log-implied locks, and
resolves in-doubt transactions by protocol inquiry.

Every run records a trace of its completed operations, and its
``serializable`` verdict tests the final attempts' part of that trace
with the theory's Lemma 1 criterion, D(S'), extended to shared reads.
Replicated runs can record a trace that is not a legal schedule — under
``rowa-available``, whose writes lock only the replicas they reach, two
attempts can hold one entity in conflicting modes through disjoint
replica sets — and such a run is not serializable.

An observability layer (:mod:`repro.sim.observe`, enabled through
``SimulationConfig(observe=ObserveConfig(...))``) taps the run's probe
stream for structured event traces (JSONL / Chrome ``trace_event``),
windowed simulated-time metrics attached to the result, and a flight
recorder that dumps the recent past on deadlocks, crashes, and abort
cascades — with no per-event cost when disabled.
"""

from repro.sim.arrivals import ArrivalProcess, ArrivalStream, OpenSystem
from repro.sim.commit import (
    CommitProtocol,
    InstantCommit,
    PresumedAbortCommit,
    TwoPhaseCommit,
    make_protocol,
    protocol_names,
)
from repro.sim.durability import DurabilityConfig, DurabilityManager
from repro.sim.events import EventQueue, HandlerRegistry
from repro.sim.failures import FailureInjector
from repro.sim.locks import SiteLockManager
from repro.sim.metrics import SimulationResult, percentile, percentiles
from repro.sim.observe import (
    EventTracer,
    FlightRecorder,
    MetricsSampler,
    ObserveConfig,
    ObserverHub,
    ProbeSink,
)
from repro.sim.replication import (
    ReplicaControl,
    ReplicaManager,
    ReplicatedSchema,
    make_replica_control,
    replica_control_names,
)
from repro.sim.policies import (
    BlockingPolicy,
    DetectionPolicy,
    Policy,
    TimeoutPolicy,
    WaitDiePolicy,
    WoundWaitPolicy,
    make_policy,
    policy_names,
)
from repro.sim.runtime import (
    SimulationConfig,
    Simulator,
    find_deadlocking_seed,
    simulate,
)
from repro.sim.waitsfor import WaitsForGraph
from repro.sim.workload import (
    WorkloadSpec,
    random_schema,
    random_system,
    random_transaction,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalStream",
    "BlockingPolicy",
    "CommitProtocol",
    "DetectionPolicy",
    "DurabilityConfig",
    "DurabilityManager",
    "EventQueue",
    "EventTracer",
    "FailureInjector",
    "FlightRecorder",
    "HandlerRegistry",
    "InstantCommit",
    "MetricsSampler",
    "ObserveConfig",
    "ObserverHub",
    "OpenSystem",
    "Policy",
    "ProbeSink",
    "PresumedAbortCommit",
    "ReplicaControl",
    "ReplicaManager",
    "ReplicatedSchema",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SiteLockManager",
    "TimeoutPolicy",
    "TwoPhaseCommit",
    "WaitDiePolicy",
    "WaitsForGraph",
    "WorkloadSpec",
    "WoundWaitPolicy",
    "find_deadlocking_seed",
    "make_policy",
    "make_protocol",
    "make_replica_control",
    "percentile",
    "percentiles",
    "policy_names",
    "protocol_names",
    "random_schema",
    "replica_control_names",
    "random_system",
    "random_transaction",
    "simulate",
]
