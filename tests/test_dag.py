"""Unit and property tests for repro.util.dag."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitset import bits_of, from_indices
from repro.util.dag import CycleError, Dag, DagBuilder


def diamond() -> Dag:
    """0 -> {1, 2} -> 3."""
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@st.composite
def random_dags(draw, max_nodes=7):
    """Random DAG: arcs only forward along a hidden permutation."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    perm = draw(st.permutations(range(n)))
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.append((perm[i], perm[j]))
    return Dag(n, arcs)


class TestConstruction:
    def test_empty(self):
        dag = Dag(0)
        assert dag.n == 0
        assert dag.topological_order() == []

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 5)])

    def test_rejects_cycle(self):
        with pytest.raises(CycleError) as info:
            Dag(3, [(0, 1), (1, 2), (2, 0)])
        assert set(info.value.cycle) == {0, 1, 2}

    def test_duplicate_arcs_merged(self):
        dag = Dag(2, [(0, 1), (0, 1)])
        assert dag.arcs == frozenset({(0, 1)})


class TestClosure:
    def test_diamond_descendants(self):
        dag = diamond()
        assert set(bits_of(dag.descendants(0))) == {1, 2, 3}
        assert set(bits_of(dag.descendants(1))) == {3}
        assert dag.descendants(3) == 0

    def test_diamond_ancestors(self):
        dag = diamond()
        assert set(bits_of(dag.ancestors(3))) == {0, 1, 2}
        assert dag.ancestors(0) == 0

    def test_precedes(self):
        dag = diamond()
        assert dag.precedes(0, 3)
        assert not dag.precedes(3, 0)
        assert not dag.precedes(1, 2)

    def test_comparable(self):
        dag = diamond()
        assert dag.comparable(0, 3)
        assert not dag.comparable(1, 2)


class TestTopologicalOrder:
    def test_respects_arcs(self):
        dag = diamond()
        order = dag.topological_order()
        pos = {u: i for i, u in enumerate(order)}
        for u, v in dag.arcs:
            assert pos[u] < pos[v]

    @given(random_dags())
    def test_property_respects_arcs(self, dag):
        order = dag.topological_order()
        assert sorted(order) == list(range(dag.n))
        pos = {u: i for i, u in enumerate(order)}
        for u, v in dag.arcs:
            assert pos[u] < pos[v]


class TestLinearExtensions:
    def test_diamond_count(self):
        # 0 first, 3 last, 1/2 in either order: 2 extensions.
        assert len(list(diamond().linear_extensions())) == 2

    def test_antichain_count(self):
        dag = Dag(3)
        assert len(list(dag.linear_extensions())) == 6

    @given(random_dags(max_nodes=6))
    @settings(max_examples=40)
    def test_every_extension_is_topological(self, dag):
        extensions = list(dag.linear_extensions())
        assert len(extensions) == len(set(extensions))
        for ext in extensions:
            pos = {u: i for i, u in enumerate(ext)}
            for u, v in dag.arcs:
                assert pos[u] < pos[v]

    @given(random_dags(max_nodes=6))
    @settings(max_examples=40)
    def test_count_matches_enumeration(self, dag):
        assert dag.count_linear_extensions() == len(
            list(dag.linear_extensions())
        )


class TestDownSets:
    def test_chain_down_sets(self):
        dag = Dag(3, [(0, 1), (1, 2)])
        assert sorted(dag.down_sets()) == [0b000, 0b001, 0b011, 0b111]

    @given(random_dags(max_nodes=6))
    @settings(max_examples=40)
    def test_down_sets_are_down_closed(self, dag):
        seen = set()
        for mask in dag.down_sets():
            assert mask not in seen
            seen.add(mask)
            assert dag.is_down_set(mask)

    @given(random_dags(max_nodes=5))
    @settings(max_examples=30)
    def test_down_set_enumeration_complete(self, dag):
        """Every down-closed subset appears in the enumeration."""
        enumerated = set(dag.down_sets())
        for mask in range(1 << dag.n):
            assert (mask in enumerated) == dag.is_down_set(mask)

    def test_down_closure(self):
        dag = diamond()
        assert dag.down_closure(from_indices([3])) == 0b1111
        assert dag.down_closure(from_indices([1])) == 0b0011


class TestMinimalNodes:
    def test_full_graph(self):
        dag = diamond()
        assert dag.minimal_nodes(dag.all_nodes_mask()) == 0b0001

    def test_residual(self):
        dag = diamond()
        # After executing {0}: minimal remaining are 1 and 2.
        remaining = dag.all_nodes_mask() & ~1
        assert set(bits_of(dag.minimal_nodes(remaining))) == {1, 2}


class TestMaximalDownSetAvoiding:
    def test_avoid_top(self):
        dag = diamond()
        assert dag.maximal_down_set_avoiding(from_indices([3])) == 0b0111

    def test_avoid_root_removes_everything(self):
        dag = diamond()
        assert dag.maximal_down_set_avoiding(from_indices([0])) == 0

    @given(random_dags(max_nodes=6), st.integers(min_value=0))
    @settings(max_examples=40)
    def test_result_is_maximal(self, dag, seed):
        rng = random.Random(seed)
        forbidden = from_indices(
            u for u in range(dag.n) if rng.random() < 0.3
        )
        result = dag.maximal_down_set_avoiding(forbidden)
        assert dag.is_down_set(result)
        assert result & forbidden == 0
        # maximality: every down-set avoiding `forbidden` is contained
        for mask in dag.down_sets():
            if mask & forbidden == 0:
                assert mask & ~result == 0


class TestTransitiveReduction:
    def test_removes_transitive_arc(self):
        dag = Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert dag.transitive_reduction().arcs == frozenset(
            {(0, 1), (1, 2)}
        )

    @given(random_dags(max_nodes=6))
    @settings(max_examples=40)
    def test_preserves_order(self, dag):
        reduced = dag.transitive_reduction()
        for u in range(dag.n):
            assert reduced.descendants(u) == dag.descendants(u)
        assert reduced.arcs <= dag.transitive_closure_arcs()


class TestRestrictedTo:
    def test_induced_subgraph(self):
        dag = diamond()
        sub = dag.restricted_to(from_indices([0, 1, 3]))
        # renumbered: 0->0, 1->1, 3->2
        assert sub.n == 3
        assert sub.arcs == frozenset({(0, 1), (1, 2)})


class TestDagBuilder:
    def test_chain(self):
        b = DagBuilder()
        nodes = b.add_nodes(3)
        b.add_chain(nodes)
        dag = b.build()
        assert dag.precedes(nodes[0], nodes[2])

    def test_node_count(self):
        b = DagBuilder()
        b.add_node()
        b.add_node()
        assert b.node_count == 2

    def test_build_validates(self):
        b = DagBuilder()
        u, v = b.add_nodes(2)
        b.add_arc(u, v)
        b.add_arc(v, u)
        with pytest.raises(CycleError):
            b.build()


class TestEquality:
    def test_equal(self):
        assert Dag(2, [(0, 1)]) == Dag(2, [(0, 1)])

    def test_not_equal(self):
        assert Dag(2, [(0, 1)]) != Dag(2)

    def test_hashable(self):
        assert len({Dag(2, [(0, 1)]), Dag(2, [(0, 1)])}) == 1


# The nine queries that read the transitive closure in bulk, each with
# arguments spanning every node subset of a small Dag.
CLOSURE_QUERIES = {
    "linear_extensions": lambda d: sorted(d.linear_extensions()),
    "count_linear_extensions": lambda d: d.count_linear_extensions(),
    "down_sets": lambda d: sorted(d.down_sets()),
    "is_down_set": lambda d: [d.is_down_set(m) for m in range(1 << d.n)],
    "down_closure": lambda d: [d.down_closure(m) for m in range(1 << d.n)],
    "minimal_nodes": lambda d: [
        d.minimal_nodes(m) for m in range(1 << d.n)
    ],
    "maximal_down_set_avoiding": lambda d: [
        d.maximal_down_set_avoiding(m) for m in range(1 << d.n)
    ],
    "transitive_reduction": lambda d: d.transitive_reduction(),
    "transitive_closure_arcs": lambda d: d.transitive_closure_arcs(),
}


class TestTrustedDag:
    """``Dag.trusted`` defers its closure; every query must still
    answer exactly as the validating constructor's Dag does."""

    FORWARD_DAGS = [
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        (6, [(0, 2), (1, 2), (2, 4), (0, 4), (3, 5), (0, 3), (2, 4)]),
    ]

    @pytest.mark.parametrize("query", sorted(CLOSURE_QUERIES))
    @pytest.mark.parametrize("n, arcs", FORWARD_DAGS)
    def test_closure_query_on_a_fresh_trusted_dag(self, query, n, arcs):
        ask = CLOSURE_QUERIES[query]
        assert ask(Dag.trusted(n, arcs)) == ask(Dag(n, arcs))

    def test_arcs_iterate_in_the_validated_order(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 20)
            arcs = [
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(0, 40))
            ]
            assert list(Dag.trusted(n, arcs).arcs) == list(Dag(n, arcs).arcs)

    def test_generated_arcs_are_packed_and_read_in_drawn_order(self):
        # The generator hands its flat arc list over as an array('I'),
        # 4 bytes per node id; reading ``arcs`` still builds the set in
        # drawn order, as the validating Dag does.
        from repro.sim.workload import (
            CompiledWorkload, WorkloadSpec, random_schema,
        )

        rng = random.Random(11)
        spec = WorkloadSpec(
            n_entities=12, n_sites=4, entities_per_txn=(2, 6),
            actions_per_entity=(0, 3), cross_arc_p=0.3,
        )
        generate = CompiledWorkload(spec, random_schema(rng, 12, 4)).generate
        arcs_seen = 0
        for i in range(50):
            dag = generate(f"T{i}", rng).dag
            flat = dag._arc_src
            assert isinstance(flat, array) and flat.typecode == "I"
            drawn = list(zip(flat[::2], flat[1::2]))
            arcs_seen += len(drawn)
            assert list(dag.arcs) == list(Dag(dag.n, drawn).arcs)
        assert arcs_seen > 0
