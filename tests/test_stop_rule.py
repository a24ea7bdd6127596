"""A run stops in one place: the run loop's drain test.

With fault injection or a network model attached, the upkeep chains
(a site's crash/recover pairs, Poisson partition episodes,
retransmission timers) never stop themselves. Before every event the
run loop tests whether any uncommitted work or retained lock is left,
and stops the run at the first moment neither is. These tests hold the
loop to that rule, from the first event on.
"""

import random

import pytest

from repro.core.system import TransactionSystem
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system


def _drained(sim) -> bool:
    return not sim.has_uncommitted() and sim._retained_total == 0


class TestIdleOpenRun:
    """An open run whose first Poisson gap lies past ``max_time`` has
    no work when it starts: it ends at time 0, dispatching nothing."""

    @pytest.mark.parametrize(
        "upkeep",
        [
            {"failure_rate": 1.0},
            {"network": NetworkConfig(partition_rate=1.0)},
        ],
        ids=["crashes", "partitions"],
    )
    def test_ends_before_the_first_event(self, upkeep):
        sim = Simulator(
            TransactionSystem([]),
            "wound-wait",
            SimulationConfig(
                arrival_rate=1e-6, max_time=50.0,
                workload=WorkloadSpec(n_sites=4), seed=3, **upkeep,
            ),
        )
        result = sim.run()
        assert result.end_time == 0.0
        assert result.crashes == result.partitions == 0
        assert sim._events_processed == 0
        assert result.injected == 0 and not result.truncated


SPEC = WorkloadSpec(
    n_transactions=12, n_entities=8, n_sites=4, entities_per_txn=(2, 3),
    actions_per_entity=(0, 1), hotspot_skew=0.5, read_fraction=0.3,
    replication_factor=2,
)
LOSSY = dict(loss_rate=0.2, dup_rate=0.1, jitter=0.5)
POISSON_CUTS = dict(partition_rate=0.05, partition_duration=10.0)
#: name -> (the run's upkeep settings, the chains they start)
CASES = {
    "failures": (
        dict(failure_rate=0.02, repair_time=5.0), {"site_crash"}
    ),
    "lossy-network": (
        dict(network=NetworkConfig(**LOSSY)), {"net_retransmit"}
    ),
    "partitions": (
        dict(network=NetworkConfig(**POISSON_CUTS)),
        {"net_partition_start"},
    ),
    "all-with-durability": (
        dict(
            failure_rate=0.02, repair_time=5.0,
            network=NetworkConfig(**LOSSY, **POISSON_CUTS),
            durability=DurabilityConfig(flush_time=0.2),
        ),
        {"site_crash", "net_partition_start", "net_retransmit"},
    ),
}


class TestOneStopRule:
    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_no_event_after_the_work_drains(self, name, seed):
        upkeep, chains = CASES[name]
        sim = Simulator(
            random_system(random.Random(seed), SPEC),
            "wound-wait",
            SimulationConfig(
                seed=seed, workload=SPEC, commit_protocol="two-phase",
                replica_protocol="rowa-available", network_delay=0.5,
                **upkeep,
            ),
        )
        dispatch = sim._registry.dispatch
        drained_at = [0.0] if _drained(sim) else []
        late = []
        depth = 0

        def watching(payload):
            # The channel dispatches a delivered payload from inside
            # its handler; only the loop's own events count.
            nonlocal depth
            if not depth and drained_at:
                late.append((sim._now, payload))
            depth += 1
            try:
                dispatch(payload)
            finally:
                depth -= 1
            if not depth and not drained_at and _drained(sim):
                drained_at.append(sim._now)

        sim._registry.dispatch = watching
        result = sim.run()
        assert result.committed == result.total
        assert not result.truncated
        assert drained_at, "the work never drained"
        assert late == []
        assert result.end_time == drained_at[0]
        # The chains did not stop themselves: each is still queued.
        queued = set()
        while sim._queue:
            queued.add(sim._queue.pop()[1][0])
        assert chains <= queued
