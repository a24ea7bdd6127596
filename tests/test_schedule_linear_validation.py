"""The linear Schedule validator against the ancestors-based oracle.

``Schedule.__init__`` historically tested every step's full ancestor
mask; the fast path tests only the direct predecessors, which is
equivalent by induction (an executed set that always contained each
step's predecessors is a down-set, and over down-sets "some ancestor
missing" and "some direct predecessor missing" coincide). This suite
pins the equivalence operationally: over random legal and illegal step
sequences, the production validator and a faithful reimplementation of
the historical one reach the same verdict, and reject at the same step
index for the same reason class.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import OpKind
from repro.core.schedule import IllegalScheduleError, Schedule
from repro.sim.workload import WorkloadSpec, random_system

pytestmark = pytest.mark.properties

STEP_RE = re.compile(r"step (\d+):")


def ancestors_oracle(system, steps):
    """The pre-fast-path validator: full ancestor masks per step.

    Returns None when the sequence is legal, else the offending step
    index — exactly the historical acceptance logic of
    ``Schedule.__init__``.
    """
    masks = [0] * len(system)
    holder = {}
    for position, (txn, node) in enumerate(steps):
        if not 0 <= txn < len(system):
            return position
        t = system[txn]
        if not 0 <= node < t.node_count:
            return position
        if masks[txn] >> node & 1:
            return position
        if t.dag.ancestors(node) & ~masks[txn]:
            return position
        op = t.ops[node]
        if op.kind is OpKind.LOCK:
            current = holder.get(op.entity)
            if current is not None and current != txn:
                return position
            holder[op.entity] = txn
        elif op.kind is OpKind.UNLOCK:
            holder.pop(op.entity, None)
        masks[txn] |= 1 << node
    return None


def linear_verdict(system, steps):
    """(accepted, failing step index) from the production validator."""
    try:
        Schedule(system, steps)
    except IllegalScheduleError as exc:
        return False, int(STEP_RE.search(str(exc)).group(1))
    return True, None


def random_steps(rng, system, legal_bias):
    """A random step sequence, biased toward legal interleavings.

    With probability ``legal_bias`` each appended step is drawn from
    the currently legal continuations (ready nodes whose Lock is not
    blocked); otherwise any (txn, node) pair may be appended —
    duplicates, order violations, and lock conflicts included.
    """
    steps = []
    masks = [0] * len(system)
    holder = {}
    total = sum(t.node_count for t in system)
    for _ in range(rng.randint(0, total + 4)):
        legal = []
        if rng.random() < legal_bias:
            for txn, t in enumerate(system):
                for node in range(t.node_count):
                    if masks[txn] >> node & 1:
                        continue
                    if t.dag.ancestors(node) & ~masks[txn]:
                        continue
                    op = t.ops[node]
                    if (
                        op.kind is OpKind.LOCK
                        and holder.get(op.entity, txn) != txn
                    ):
                        continue
                    legal.append((txn, node))
        if legal:
            txn, node = rng.choice(legal)
        else:
            txn = rng.randrange(len(system))
            node = rng.randrange(system[txn].node_count + 1)
        steps.append((txn, node))
        if txn < len(system) and node < system[txn].node_count:
            op = system[txn].ops[node]
            if op.kind is OpKind.LOCK and holder.get(op.entity, txn) == txn:
                holder[op.entity] = txn
            elif op.kind is OpKind.UNLOCK:
                holder.pop(op.entity, None)
            masks[txn] |= 1 << node
    return steps


@given(
    st.integers(min_value=0, max_value=2_000),
    st.sampled_from(["random", "two_phase", "sequential"]),
    st.sampled_from([0.5, 0.9, 1.0]),
)
@settings(max_examples=120)
def test_linear_validator_matches_ancestors_oracle(
    seed, shape, legal_bias
):
    rng = random.Random(seed)
    spec = WorkloadSpec(
        n_transactions=3,
        n_entities=5,
        n_sites=3,
        entities_per_txn=(1, 3),
        actions_per_entity=(0, 2),
        shape=shape,
    )
    system = random_system(rng, spec)
    steps = random_steps(rng, system, legal_bias)
    expected_failure = ancestors_oracle(system, steps)
    accepted, failed_at = linear_verdict(system, steps)
    if expected_failure is None:
        assert accepted, f"oracle accepts, linear validator rejects: {steps}"
    else:
        assert not accepted
        assert failed_at == expected_failure, (
            f"different failing step: oracle {expected_failure}, "
            f"linear {failed_at} for {steps}"
        )


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60)
def test_accepted_schedules_agree_on_masks_and_lock_orders(seed):
    rng = random.Random(seed)
    spec = WorkloadSpec(
        n_transactions=3, n_entities=4, n_sites=2,
        entities_per_txn=(1, 2), actions_per_entity=(0, 1),
    )
    system = random_system(rng, spec)
    steps = random_steps(rng, system, 1.0)
    if ancestors_oracle(system, steps) is not None:
        return  # only legal sequences compared here
    schedule = Schedule(system, steps)
    # The executed prefix is what the old validator accumulated.
    masks = [0] * len(system)
    for txn, node in steps:
        masks[txn] |= 1 << node
    assert list(schedule.prefix().masks) == masks
    # Lock orders recorded during validation equal a full rescan.
    rescan = {}
    for txn, node in steps:
        op = system[txn].ops[node]
        if op.kind is OpKind.LOCK:
            rescan.setdefault(op.entity, []).append(txn)
    assert schedule.lock_sequences() == rescan
    # Steps materialize lazily but faithfully.
    assert [tuple(step) for step in schedule.steps] == steps
