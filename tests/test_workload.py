"""Tests for repro.sim.workload (random generators)."""

import hashlib
import itertools
import random

import pytest

from repro.analysis.policies import follows_lock_order
from repro.sim.workload import (
    SHAPES,
    WorkloadSpec,
    random_schema,
    random_system,
    random_transaction,
)


class TestSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(shape="mystery")


class TestRandomSchema:
    def test_all_entities_placed(self):
        schema = random_schema(random.Random(0), 8, 3)
        assert len(schema.entities) == 8
        assert len(schema.sites) == 3

    def test_more_sites_than_entities(self):
        schema = random_schema(random.Random(0), 2, 5)
        assert len(schema.sites) == 2


class TestRandomTransaction:
    def test_validity_across_seeds_and_shapes(self):
        """Construction must always produce a well-formed transaction
        (validation happens inside Transaction.__init__)."""
        for shape in ("random", "two_phase", "sequential", "ordered_2pl"):
            for seed in range(30):
                rng = random.Random(seed)
                schema = random_schema(rng, 6, 3)
                spec = WorkloadSpec(shape=shape, actions_per_entity=(0, 2))
                t = random_transaction("T", rng, schema, spec)
                assert t.entities

    def test_sequential_shape_is_total_order(self):
        rng = random.Random(1)
        schema = random_schema(rng, 5, 2)
        spec = WorkloadSpec(shape="sequential")
        t = random_transaction("T", rng, schema, spec)
        assert t.is_sequential()

    def test_two_phase_shape_is_two_phase(self):
        for seed in range(20):
            rng = random.Random(seed)
            schema = random_schema(rng, 6, 3)
            spec = WorkloadSpec(shape="two_phase")
            t = random_transaction("T", rng, schema, spec)
            assert t.is_two_phase(), f"seed {seed}"

    def test_ordered_2pl_follows_global_order(self):
        for seed in range(20):
            rng = random.Random(seed)
            schema = random_schema(rng, 6, 3)
            spec = WorkloadSpec(shape="ordered_2pl")
            t = random_transaction("T", rng, schema, spec)
            assert t.is_two_phase()
            assert follows_lock_order(t, sorted(schema.entities))

    def test_fixed_entities(self):
        rng = random.Random(2)
        schema = random_schema(rng, 6, 2)
        spec = WorkloadSpec()
        t = random_transaction(
            "T", rng, schema, spec, entities=["e0", "e1"]
        )
        assert t.entities == {"e0", "e1"}

    def test_hotspot_skew_concentrates(self):
        spec_uniform = WorkloadSpec(hotspot_skew=0.0, entities_per_txn=(2, 2))
        spec_hot = WorkloadSpec(hotspot_skew=3.0, entities_per_txn=(2, 2))
        hot_hits = uniform_hits = 0
        for seed in range(120):
            rng = random.Random(seed)
            schema = random_schema(rng, 8, 2)
            if "e0" in random_transaction(
                "T", rng, schema, spec_hot
            ).entities:
                hot_hits += 1
            rng = random.Random(seed)
            schema = random_schema(rng, 8, 2)
            if "e0" in random_transaction(
                "T", rng, schema, spec_uniform
            ).entities:
                uniform_hits += 1
        assert hot_hits > uniform_hits


class TestFixedEntitiesChecked:
    """A caller's ``entities`` are checked before anything is drawn."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "entities, message",
        [
            (["e1", "e0", "e1"], "'e1' is listed twice"),
            (["e0", "zz"], "'zz' is not in the schema"),
        ],
    )
    def test_rejected_in_every_shape(self, shape, entities, message):
        rng = random.Random(2)
        schema = random_schema(rng, 6, 2)
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            random_transaction(
                "T", rng, schema, WorkloadSpec(shape=shape),
                entities=entities,
            )
        assert rng.getstate() == state


class TestRandomSystem:
    def test_system_size(self):
        system = random_system(
            random.Random(0), WorkloadSpec(n_transactions=5)
        )
        assert len(system) == 5

    def test_ordered_2pl_system_certified(self):
        """ordered_2pl workloads pass the paper's static test."""
        from repro.analysis.fixed_k import check_system

        for seed in range(10):
            system = random_system(
                random.Random(seed),
                WorkloadSpec(n_transactions=4, shape="ordered_2pl"),
            )
            assert check_system(system), f"seed {seed}"


class TestSpecValidation:
    """WorkloadSpec.__post_init__ rejects nonsensical parameters."""

    def test_defaults_are_valid(self):
        WorkloadSpec()

    def test_rejects_inverted_entities_range(self):
        with pytest.raises(ValueError, match="entities_per_txn.*lo > hi"):
            WorkloadSpec(entities_per_txn=(4, 2))

    def test_rejects_inverted_actions_range(self):
        with pytest.raises(
            ValueError, match="actions_per_entity.*lo > hi"
        ):
            WorkloadSpec(actions_per_entity=(3, 1))

    def test_rejects_negative_range_bounds(self):
        with pytest.raises(ValueError, match="non-negative"):
            WorkloadSpec(entities_per_txn=(-1, 2))
        with pytest.raises(ValueError, match="non-negative"):
            WorkloadSpec(actions_per_entity=(-2, -1))

    def test_rejects_cross_arc_p_outside_unit_interval(self):
        with pytest.raises(ValueError, match="cross_arc_p"):
            WorkloadSpec(cross_arc_p=-0.1)
        with pytest.raises(ValueError, match="cross_arc_p"):
            WorkloadSpec(cross_arc_p=1.5)

    def test_rejects_negative_hotspot_skew(self):
        with pytest.raises(ValueError, match="hotspot_skew"):
            WorkloadSpec(hotspot_skew=-0.5)

    def test_rejects_empty_pools(self):
        with pytest.raises(ValueError, match="n_entities"):
            WorkloadSpec(n_entities=0)
        with pytest.raises(ValueError, match="n_sites"):
            WorkloadSpec(n_sites=0)
        with pytest.raises(ValueError, match="n_transactions"):
            WorkloadSpec(n_transactions=-1)

    def test_rejects_unknown_shape_still(self):
        with pytest.raises(ValueError, match="shape"):
            WorkloadSpec(shape="zigzag")

    def test_boundary_values_accepted(self):
        WorkloadSpec(
            entities_per_txn=(0, 0),
            actions_per_entity=(2, 2),
            cross_arc_p=1.0,
            hotspot_skew=0.0,
            n_transactions=0,
        )


def _batch_digest(transactions) -> str:
    """sha256 of each transaction's name, ops, arcs and read set."""
    h = hashlib.sha256()
    for t in transactions:
        h.update(repr((
            t.name,
            [str(op) for op in t.ops],
            sorted(t.dag.arcs),
            sorted(t.read_set),
        )).encode())
    return h.hexdigest()[:16]


def _golden_spec(shape, skew, reads):
    return WorkloadSpec(
        n_transactions=6,
        n_entities=9,
        n_sites=3,
        entities_per_txn=(0, 5),
        actions_per_entity=(0, 2),
        shape=shape,
        hotspot_skew=skew,
        read_fraction=reads,
    )


# random_system(Random(19), _golden_spec(shape, skew, reads)) per cell.
GOLDEN_BATCHES = {
    ("random", 0.0, 0.0): "10d00bcfa477c2fa",
    ("random", 0.0, 0.3): "9598e96fde062239",
    ("random", 0.5, 0.0): "bcb35f17535786e3",
    ("random", 0.5, 0.3): "1fc29feba52ae19b",
    ("two_phase", 0.0, 0.0): "caebbd3747a641fc",
    ("two_phase", 0.0, 0.3): "ca9cd9bd4fe02c75",
    ("two_phase", 0.5, 0.0): "0d9745ff1045debb",
    ("two_phase", 0.5, 0.3): "cb85d22579ef7824",
    ("sequential", 0.0, 0.0): "97094a5475579bf9",
    ("sequential", 0.0, 0.3): "d0bd670168d23433",
    ("sequential", 0.5, 0.0): "d926b25ed80306a0",
    ("sequential", 0.5, 0.3): "99461e618699f1c9",
    ("ordered_2pl", 0.0, 0.0): "ecace345903e9898",
    ("ordered_2pl", 0.0, 0.3): "ea05b81fb5de8c3f",
    ("ordered_2pl", 0.5, 0.0): "cabfc1946e49f6ab",
    ("ordered_2pl", 0.5, 0.3): "29c8c693a34fb5f1",
}

# One fixed-entities transaction per shape over one schema, seed 23.
GOLDEN_FIXED_ENTITIES = "da950749882f2cdf"


class TestGeneratorGolden:
    """The generator's output, pinned by digest.

    Every closed-batch digest and the serial==parallel sweep guarantee
    rest on generated workloads, so the draw stream is part of a
    workload's identity: a change here moves every downstream pin.
    The digests do not depend on ``PYTHONHASHSEED``.
    """

    @pytest.mark.parametrize(
        "shape, skew, reads",
        itertools.product(SHAPES, (0.0, 0.5), (0.0, 0.3)),
    )
    def test_random_system_batch(self, shape, skew, reads):
        system = random_system(
            random.Random(19), _golden_spec(shape, skew, reads)
        )
        assert _batch_digest(system) == GOLDEN_BATCHES[shape, skew, reads]

    def test_fixed_entities(self):
        rng = random.Random(23)
        schema = random_schema(rng, 9, 3)
        batch = [
            random_transaction(
                f"T{shape}", rng, schema, _golden_spec(shape, 0.0, 0.3),
                entities=["e7", "e2", "e4"],
            )
            for shape in SHAPES
        ]
        assert _batch_digest(batch) == GOLDEN_FIXED_ENTITIES
