"""Trusted construction: the validation-free path equals the validated one.

The arrival-to-verdict fast path builds every open-system arrival
through ``CompiledWorkload.generate`` -> ``Transaction.trusted`` ->
``Dag.trusted``, none of which validate their input — the generator
guarantees the invariants by construction. These properties pin the
two directions of that bargain over random workload specs:

* the trusted product is *equal* to what the validating path produces
  from the same RNG state — ops, arcs, schema, read set, site
  grouping, lock/unlock tables, and the RNG stream position itself;
* the validating constructor *accepts* every trusted product (i.e. the
  generator really does only emit well-formed transactions).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transaction import Transaction
from repro.sim.workload import (
    CompiledWorkload,
    WorkloadSpec,
    random_schema,
    random_transaction,
)
from repro.util.dag import Dag

pytestmark = pytest.mark.properties

shapes = st.sampled_from(
    ["random", "two_phase", "sequential", "ordered_2pl"]
)


@st.composite
def workload_specs(draw):
    return WorkloadSpec(
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
        shape=draw(shapes),
        hotspot_skew=draw(st.sampled_from([0.0, 0.5, 1.5])),
        read_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


def _generate_both(spec, schema_seed, txn_seed):
    schema = random_schema(
        random.Random(schema_seed), spec.n_entities, spec.n_sites
    )
    compiled = CompiledWorkload(spec, schema)
    validating_rng = random.Random(txn_seed)
    trusted_rng = random.Random(txn_seed)
    validated = random_transaction("T", validating_rng, schema, spec)
    trusted = compiled.generate("T", trusted_rng)
    return validated, trusted, validating_rng, trusted_rng


class TestTrustedEqualsValidated:
    @given(
        workload_specs(),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=120)
    def test_compiled_generate_equals_random_transaction(
        self, spec, schema_seed, txn_seed
    ):
        validated, trusted, validating_rng, trusted_rng = _generate_both(
            spec, schema_seed, txn_seed
        )
        assert trusted == validated  # name, ops, dag arcs, schema, reads
        assert trusted.ops == validated.ops
        assert trusted.dag.arcs == validated.dag.arcs
        assert trusted.read_set == validated.read_set
        assert trusted.schema is validated.schema
        assert trusted._site_nodes == validated._site_nodes
        assert trusted._lock_node == validated._lock_node
        assert trusted._unlock_node == validated._unlock_node
        assert trusted.entities == validated.entities
        # The draw streams advanced identically: the next draw agrees.
        assert validating_rng.random() == trusted_rng.random()

    @given(
        workload_specs(),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=120)
    def test_validating_constructor_accepts_trusted_product(
        self, spec, schema_seed, txn_seed
    ):
        _, trusted, _, _ = _generate_both(spec, schema_seed, txn_seed)
        # Must not raise MalformedTransactionError / CycleError.
        revalidated = Transaction(
            trusted.name,
            trusted.ops,
            trusted.dag.arcs,
            trusted.schema,
            trusted.read_set,
        )
        assert revalidated == trusted
        assert revalidated._site_nodes == trusted._site_nodes

    @given(
        workload_specs(),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60)
    def test_lazy_closure_answers_like_the_validated_dag(
        self, spec, schema_seed, txn_seed
    ):
        validated, trusted, _, _ = _generate_both(
            spec, schema_seed, txn_seed
        )
        v_dag, t_dag = validated.dag, trusted.dag
        assert t_dag.predecessor_masks() == v_dag.predecessor_masks()
        assert t_dag.successor_masks() == v_dag.successor_masks()
        for u in range(t_dag.n):
            assert t_dag.ancestors(u) == v_dag.ancestors(u)
            assert t_dag.descendants(u) == v_dag.descendants(u)
        assert (
            t_dag.cached_topological_order()
            == v_dag.cached_topological_order()
        )


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
