"""Property-based cross-validation of the paper's algorithms against the
exhaustive oracle and against each other.

Random instances come from the workload generator keyed by a
hypothesis-drawn seed: deterministic, shrinkable, and guaranteed valid
by construction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exhaustive import (
    find_deadlock,
    find_lemma1_violation,
    is_safe_and_deadlock_free,
)
from repro.analysis.minimal_prefix import check_pair_minimal_prefix
from repro.analysis.pairs import check_pair
from repro.analysis.theorem1 import find_deadlock_prefix
from repro.core.reduction import (
    is_deadlock_partial_schedule,
    is_deadlock_prefix,
    reduction_graph,
)
from repro.core.schedule import Schedule
from repro.core.serialization import d_graph

from tests.helpers import small_random_system

pytestmark = pytest.mark.properties

seeds = st.integers(min_value=0, max_value=10_000)


class TestPairAlgorithms:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_theorem3_matches_oracle(self, seed):
        system = small_random_system(seed, n_transactions=2)
        expected = bool(
            is_safe_and_deadlock_free(system, max_states=250_000)
        )
        assert bool(check_pair(system[0], system[1])) == expected

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_minimal_prefix_matches_theorem3(self, seed):
        system = small_random_system(seed, n_transactions=2)
        assert bool(check_pair(system[0], system[1])) == bool(
            check_pair_minimal_prefix(system[0], system[1])
        )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_theorem3_on_centralized_matches_lemma2(self, seed):
        from repro.analysis.centralized import check_centralized_pair

        system = small_random_system(
            seed, n_transactions=2, n_sites=1, shape="sequential"
        )
        assert bool(check_pair(system[0], system[1])) == bool(
            check_centralized_pair(system[0], system[1])
        )


class TestTheorem1:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_deadlock_iff_deadlock_prefix(self, seed):
        system = small_random_system(seed, n_transactions=2)
        direct = find_deadlock(system, max_states=250_000)
        prefix = find_deadlock_prefix(system, max_states=250_000)
        assert (direct is None) == (prefix is None)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_deadlock_witness_properties(self, seed):
        system = small_random_system(seed, n_transactions=2)
        witness = find_deadlock(system, max_states=250_000)
        if witness is None:
            return
        # The witness is a genuine deadlock partial schedule, and its
        # prefix's reduction graph is cyclic (Theorem 1, "if" direction).
        assert is_deadlock_partial_schedule(witness)
        assert reduction_graph(witness.prefix()).find_cycle() is not None
        assert is_deadlock_prefix(witness.prefix())

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_deadlock_prefix_witness_properties(self, seed):
        system = small_random_system(seed, n_transactions=2)
        witness = find_deadlock_prefix(system, max_states=250_000)
        if witness is None:
            return
        assert is_deadlock_prefix(witness.prefix)
        graph = reduction_graph(witness.prefix)
        cycle = list(witness.cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert graph.has_arc(a, b)


class TestLemma1:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_violation_schedule_has_cyclic_digraph(self, seed):
        system = small_random_system(seed, n_transactions=2)
        violation = find_lemma1_violation(system, max_states=250_000)
        if violation is None:
            return
        # replay the witness and re-derive the cycle
        replayed = Schedule(system, violation.schedule.steps)
        assert d_graph(replayed).find_cycle() is not None

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_lemma1_is_conjunction(self, seed):
        from repro.analysis.exhaustive import (
            find_unserializable_schedule,
        )

        system = small_random_system(seed, n_transactions=2)
        unsafe = find_unserializable_schedule(system, max_states=250_000)
        deadlock = find_deadlock(system, max_states=250_000)
        lemma1 = find_lemma1_violation(system, max_states=250_000)
        assert ((unsafe is None) and (deadlock is None)) == (
            lemma1 is None
        )


class TestCorollary1:
    """Pair safe+DF ⇔ every pair of linear extensions is safe+DF."""

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_extension_reducibility(self, seed):
        from repro.analysis.centralized import check_centralized_pair

        system = small_random_system(
            seed, n_transactions=2, n_entities=3
        )
        t1, t2 = system[0], system[1]
        pair_ok = bool(check_pair(t1, t2))
        extensions_ok = all(
            bool(check_centralized_pair(e1, e2))
            for e1 in t1.linear_extensions()
            for e2 in t2.linear_extensions()
        )
        assert pair_ok == extensions_ok
