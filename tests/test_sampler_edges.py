"""The metrics sampler's waits-for edge count at each window close.

Under every policy the sampler reads the edges from the lock tables'
queues (``Simulator._wait_for_edges()``), without visiting any
transaction. The count must equal a full rebuild's over the instances
(``tests.helpers.reference_wait_for_edges``) at every close; the grid
below checks it under wound-wait, wait-die and timeout.
"""

import itertools
import random

import pytest

from repro.sim.observe import ObserveConfig
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import reference_wait_for_edges


def _observed(policy, reads, factor, failures, seed=1) -> Simulator:
    spec = WorkloadSpec(
        n_transactions=6, n_entities=8, n_sites=3,
        entities_per_txn=(2, 3), actions_per_entity=(0, 1),
        hotspot_skew=0.8, read_fraction=reads, replication_factor=factor,
    )
    return Simulator(
        random_system(random.Random(seed), spec),
        policy,
        SimulationConfig(
            arrival_rate=0.8, max_transactions=50, workload=spec,
            seed=seed, workload_seed=seed, timeout=4.0,
            replica_protocol="rowa-available" if factor > 1 else "rowa",
            failure_rate=0.02 if failures else 0.0, repair_time=5.0,
            observe=ObserveConfig(metrics_window=5.0),
        ),
    )


GRID = list(itertools.product(
    ("wound-wait", "wait-die", "timeout"), (0.0, 0.3), (1, 2), (False, True)
))


class TestEdgeCountAtWindowClose:
    @pytest.mark.parametrize("policy,reads,factor,failures", GRID)
    def test_count_equals_the_full_rebuild(
        self, policy, reads, factor, failures
    ):
        sim = _observed(policy, reads, factor, failures)
        sampler = sim.observe.sampler
        edge_count = sampler._edge_count
        counts = []

        def checked():
            count = edge_count()
            full = sum(
                len(h) for h in reference_wait_for_edges(sim).values()
            )
            assert count == full, sim.now
            counts.append(count)
            return count

        sampler._edge_count = checked
        result = sim.run()
        assert result.committed == result.total
        assert len(counts) == len(result.timeseries["windows"]) > 1
        if policy != "wait-die":
            assert any(counts), "no window closed with a waits-for edge"

    def test_a_window_close_visits_no_committed_transaction(self):
        sim = _observed("wound-wait", 0.3, 1, False)
        sampler = sim.observe.sampler
        edge_count = sampler._edge_count
        visited = []

        class Visits(list):
            """The instance list, recording each instance it hands out."""

            def __iter__(self):
                for inst in list.__iter__(self):
                    visited.append(inst.status)
                    yield inst

            def __getitem__(self, index):
                inst = list.__getitem__(self, index)
                visited.append(inst.status)
                return inst

        committed_at_close = []

        def counting():
            live = sim._instances
            committed_at_close.append(
                sum(inst.status == _COMMITTED for inst in live)
            )
            sim._instances = Visits(live)
            try:
                return edge_count()
            finally:
                sim._instances = live

        sampler._edge_count = counting
        result = sim.run()
        assert result.committed == result.total
        assert max(committed_at_close) > 0
        assert not visited, "a window close read an instance"
