"""Property tests for the core model invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exhaustive import enumerate_complete_schedules
from repro.core.prefix import SystemPrefix
from repro.core.schedule import Schedule
from repro.core.serialization import d_graph, is_serializable
from repro.util.bitset import bits_of

from tests.helpers import small_random_system

pytestmark = pytest.mark.properties

seeds = st.integers(min_value=0, max_value=10_000)


class TestTransactionInvariants:
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_lock_before_unlock_everywhere(self, seed):
        system = small_random_system(seed, n_transactions=2)
        for t in system.transactions:
            for entity in t.entities:
                assert t.precedes(
                    t.lock_node(entity), t.unlock_node(entity)
                )

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_same_site_total_order(self, seed):
        system = small_random_system(seed, n_transactions=2)
        for t in system.transactions:
            for site in t.sites_touched():
                nodes = t.nodes_at_site(site)
                for a, b in zip(nodes, nodes[1:]):
                    assert t.precedes(a, b)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_lock_skeleton_preserves_lock_order(self, seed):
        system = small_random_system(seed, n_transactions=1)
        t = system[0]
        skeleton = t.lock_skeleton()
        for a in t.entities:
            for b in t.entities:
                if a == b:
                    continue
                assert t.precedes(
                    t.lock_node(a), t.lock_node(b)
                ) == skeleton.precedes(
                    skeleton.lock_node(a), skeleton.lock_node(b)
                )


class TestScheduleInvariants:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_enumerated_schedules_replay(self, seed):
        system = small_random_system(
            seed, n_transactions=2, n_entities=3
        )
        for schedule in enumerate_complete_schedules(system, limit=30):
            replayed = Schedule(system, schedule.steps)
            assert replayed.is_complete()
            prefix = replayed.prefix()
            for i, t in enumerate(system.transactions):
                assert prefix.masks[i] == t.dag.all_nodes_mask()

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_serial_schedules_always_serializable(self, seed):
        system = small_random_system(seed, n_transactions=3)
        order = list(range(len(system)))
        random.Random(seed).shuffle(order)
        schedule = Schedule.serial(system, order)
        assert is_serializable(schedule)
        graph = d_graph(schedule)
        # arcs must all agree with the serial order
        position = {txn: i for i, txn in enumerate(order)}
        for u, v, _label in graph.arcs():
            assert position[u] < position[v]

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_sparse_and_full_d_graph_agree(self, seed):
        system = small_random_system(
            seed, n_transactions=2, n_entities=3
        )
        for schedule in enumerate_complete_schedules(system, limit=20):
            assert d_graph(schedule, full=True).is_acyclic() == d_graph(
                schedule, full=False
            ).is_acyclic()


class TestPrefixInvariants:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_schedule_prefixes_are_down_sets(self, seed):
        system = small_random_system(seed, n_transactions=2)
        for schedule in enumerate_complete_schedules(system, limit=10):
            for cut in range(0, len(schedule.steps), 3):
                partial = Schedule(system, schedule.steps[:cut])
                prefix = partial.prefix()
                for i, t in enumerate(system.transactions):
                    assert t.dag.is_down_set(prefix.masks[i])

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_holders_unique_along_executions(self, seed):
        system = small_random_system(seed, n_transactions=2)
        for schedule in enumerate_complete_schedules(system, limit=10):
            for cut in range(len(schedule.steps) + 1):
                partial = Schedule(system, schedule.steps[:cut])
                partial.prefix().holders()  # must not raise

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_complete_prefix_holds_nothing(self, seed):
        system = small_random_system(seed, n_transactions=2)
        prefix = SystemPrefix.complete(system)
        assert prefix.holders() == {}
        for i in range(len(system)):
            assert prefix.locked_not_unlocked(i) == frozenset()
            assert list(bits_of(prefix.remaining_mask(i))) == []
