"""Trusted construction: the generator's output is valid by construction.

Every generated transaction — closed batches, ``random_transaction``
calls and open-system arrivals — is built through
``CompiledWorkload.generate`` -> ``Dag.from_masks`` ->
``Transaction.trusted``, none of which validate their input. These
properties pin the two halves of that bargain over random workload
specs:

* the validating constructor *accepts* every trusted product, with or
  without fixed ``entities=``, and every ``random_system`` batch, and
  rebuilds an equal transaction whose name-keyed tables answer like the
  trusted one's lazily built ones (the generator really does only emit
  well-formed transactions), and the masks the generator lays down are
  the validating ``Dag``'s;
* a trusted Dag's lazily computed closure answers like the closure the
  validating ``Dag(n, arcs)`` computes at construction.

The generator's draw stream itself is pinned by digest in
``tests/test_workload.py::TestGeneratorGolden``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transaction import Transaction
from repro.sim.workload import (
    SHAPES,
    CompiledWorkload,
    WorkloadSpec,
    random_schema,
    random_system,
)
from repro.util.dag import Dag

pytestmark = pytest.mark.properties

seeds = st.integers(min_value=0, max_value=1000)


@st.composite
def workload_specs(draw):
    return WorkloadSpec(
        n_transactions=draw(st.integers(min_value=0, max_value=4)),
        n_entities=draw(st.integers(min_value=1, max_value=14)),
        n_sites=draw(st.integers(min_value=1, max_value=5)),
        entities_per_txn=(
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=2, max_value=6)),
        ),
        actions_per_entity=(
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=1, max_value=3)),
        ),
        cross_arc_p=draw(st.sampled_from([0.0, 0.25, 0.6, 1.0])),
        shape=draw(st.sampled_from(SHAPES)),
        hotspot_skew=draw(st.sampled_from([0.0, 0.5, 1.5])),
        read_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


def _generate(spec, schema_seed, txn_seed, entities=None):
    schema = random_schema(
        random.Random(schema_seed), spec.n_entities, spec.n_sites
    )
    return CompiledWorkload(spec, schema).generate(
        "T", random.Random(txn_seed), entities
    )


def _assert_revalidates(trusted):
    # The generator lays the Dag's masks down as it draws each arc; they
    # and the arc order must be what the validating Dag makes of the
    # drawn arcs (kept flat, in drawn order, until .arcs is first read).
    flat = trusted.dag._arc_src
    drawn = Dag(trusted.dag.n, zip(flat[::2], flat[1::2]))
    assert trusted.dag.successor_masks() == drawn.successor_masks()
    assert trusted.dag.predecessor_masks() == drawn.predecessor_masks()
    assert list(trusted.dag.arcs) == list(drawn.arcs)
    # Must not raise MalformedTransactionError / CycleError.
    revalidated = Transaction(
        trusted.name,
        trusted.ops,
        trusted.dag.arcs,
        trusted.schema,
        trusted.read_set,
    )
    assert revalidated == trusted
    # The lazily built name-keyed tables answer as the validated ones.
    assert revalidated.entities == trusted.entities
    for entity in trusted.entities:
        assert revalidated.lock_node(entity) == trusted.lock_node(entity)
        assert revalidated.unlock_node(entity) == (
            trusted.unlock_node(entity)
        )
    assert revalidated.sites_touched() == trusted.sites_touched()
    for site in trusted.sites_touched():
        assert revalidated.nodes_at_site(site) == (
            trusted.nodes_at_site(site)
        )


class TestTrustedEqualsValidated:
    @given(workload_specs(), seeds, seeds)
    @settings(max_examples=120)
    def test_validating_constructor_accepts_trusted_product(
        self, spec, schema_seed, txn_seed
    ):
        _assert_revalidates(_generate(spec, schema_seed, txn_seed))

    @given(workload_specs(), seeds, seeds, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_validating_constructor_accepts_fixed_entities(
        self, spec, schema_seed, txn_seed, picker
    ):
        pool = [f"e{i}" for i in range(spec.n_entities)]
        entities = picker.sample(pool, picker.randint(0, len(pool)))
        trusted = _generate(spec, schema_seed, txn_seed, entities)
        _assert_revalidates(trusted)
        if entities:
            assert trusted.entities == frozenset(entities)

    @given(workload_specs(), seeds)
    @settings(max_examples=60)
    def test_validating_constructor_accepts_random_system(self, spec, seed):
        system = random_system(random.Random(seed), spec)
        assert len(system) == spec.n_transactions
        for trusted in system:
            _assert_revalidates(trusted)

    @given(workload_specs(), seeds, seeds)
    @settings(max_examples=60)
    def test_lazy_closure_answers_like_the_validated_dag(
        self, spec, schema_seed, txn_seed
    ):
        t_dag = _generate(spec, schema_seed, txn_seed).dag
        v_dag = Dag(t_dag.n, t_dag.arcs)
        assert t_dag._anc is None  # reading the arcs computed nothing
        assert t_dag.predecessor_masks() == v_dag.predecessor_masks()
        assert t_dag.successor_masks() == v_dag.successor_masks()
        for u in range(t_dag.n):
            assert t_dag.ancestors(u) == v_dag.ancestors(u)
            assert t_dag.descendants(u) == v_dag.descendants(u)
        assert (
            t_dag.cached_topological_order()
            == v_dag.cached_topological_order()
        )
        assert t_dag.transitive_closure_arcs() == (
            v_dag.transitive_closure_arcs()
        )
        assert t_dag.transitive_reduction() == v_dag.transitive_reduction()


def test_trusted_dag_defers_the_closure():
    dag = Dag.trusted(3, [(0, 1), (1, 2)])
    assert dag._anc is None and dag._desc is None
    assert dag.predecessor_masks() == [0, 1, 2]  # no closure needed
    assert dag._anc is None
    assert dag.ancestors(2) == 0b011  # first use materializes it
    assert dag._anc is not None
    assert dag == Dag(3, [(0, 1), (1, 2)])


def test_trusted_transaction_requires_no_validation_pass():
    # A deliberately *malformed* input (no Unlock) is accepted silently
    # on the trusted path — the point of the constructor is that it
    # skips the checks, so feeding it unproven input is a caller bug.
    from repro.core.entity import DatabaseSchema
    from repro.core.operations import Operation

    schema = DatabaseSchema({"x": "s0"})
    t = Transaction.trusted("T", [Operation.lock("x")], [], schema)
    assert t.entities == frozenset({"x"})
