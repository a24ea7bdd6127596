"""Property tests for the durability model's replay state.

The :class:`~repro.sim.durability.DurabilityManager` keeps each
site's replay state (the key of every durable record and the open
prepares) current as records become durable, and re-derives one
site's state from its log only after a disk fault drops records. A
hypothesis state machine drives one manager through random
interleavings of forces, flush completions and crashes with torn
writes, tail loss and amnesia on several sites; after every step each
site's ``has_prepare`` / ``has_decision`` answers, record keys and
open prepares must equal what a derivation from the site's whole log
gives (``tests.helpers.log_replay_state``).

Paxos ``accept`` records repeat their key (one per registered vote),
and a prepare or decision can be forced again after a fault dropped
it, so a dropped record's key may still be backed by an older record.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.durability import DurabilityConfig
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.helpers import log_replay_state

pytestmark = pytest.mark.properties

SPEC = WorkloadSpec(
    n_transactions=4,
    n_entities=6,
    n_sites=3,
    entities_per_txn=(2, 3),
    replication_factor=2,
)
SITES = ("s0", "s1", "s2")
TXNS = range(2)
ATTEMPTS = range(2)
FLUSH = 0.5

#: crash-time disk faults: (torn write, tail loss, amnesia) rates.
FAULTS = {
    "none": (0.0, 0.0, 0.0),
    "torn": (1.0, 0.0, 0.0),
    "tail": (0.0, 1.0, 0.0),
    "torn+tail": (1.0, 1.0, 0.0),
    "amnesia": (0.0, 0.0, 1.0),
}

sites = st.sampled_from(SITES)
txns = st.sampled_from(TXNS)
attempts = st.sampled_from(ATTEMPTS)
#: most forces complete at once; the rest wait for a flush step.
durable = st.sampled_from([True, True, True, False])


class ReplayStateMachine(RuleBasedStateMachine):
    """One manager, checked against its whole logs after every step."""

    def __init__(self):
        super().__init__()
        system = random_system(random.Random(13), SPEC)
        self.sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=0,
                workload=SPEC,
                commit_protocol="paxos-commit",
                durability=DurabilityConfig(flush_time=FLUSH),
            ),
        )
        assert self.sim.site_names() == SITES
        self.dur = self.sim.durability
        #: dur_flush events issued but not yet delivered.
        self.flushes = []

    def _force(self, site, record, durable):
        dur = self.dur
        # Like the commit protocols' force seam: a record already in
        # flight is not forced twice.
        if dur.flush_pending(site, record):
            return
        dur.force(site, record, lambda: None)
        event = (
            "dur_flush", record[1], self.sim.site_id(site),
            dur._next_lsn - 1,
        )
        if durable:
            self.sim._registry.dispatch(event)
        else:
            self.flushes.append(event)

    @rule(site=sites, txn=txns, attempt=attempts,
          eid=st.integers(0, 2), held=st.integers(0, 2),
          durable=durable)
    def prepare(self, site, txn, attempt, eid, held, durable):
        self._force(site, ("prepare", txn, attempt, ((eid, held),)), durable)

    @rule(site=sites, txn=txns, attempt=attempts,
          verdict=st.sampled_from(["commit", "abort"]),
          durable=durable)
    def decision(self, site, txn, attempt, verdict, durable):
        self._force(site, ("decision", txn, attempt, verdict), durable)

    @rule(site=sites, txn=txns, attempt=attempts, voter=sites,
          durable=durable)
    def accept(self, site, txn, attempt, voter, durable):
        self._force(site, ("accept", txn, attempt, voter), durable)

    @precondition(lambda self: self.flushes)
    @rule(pick=st.integers(0, 7))
    def flush(self, pick):
        # Completions on different sites interleave freely; a flush
        # a crash cancelled is swallowed.
        self.sim._registry.dispatch(
            self.flushes.pop(pick % len(self.flushes))
        )

    @rule(site=sites, fault=st.sampled_from(sorted(FAULTS)))
    def crash(self, site, fault):
        torn, tail, amnesia = FAULTS[fault]
        self.dur.config = DurabilityConfig(
            flush_time=FLUSH,
            torn_write_rate=torn,
            tail_loss_rate=tail,
            amnesia_rate=amnesia,
        )
        self.dur.on_site_crash(site)

    @invariant()
    def matches_whole_log(self):
        dur = self.dur
        for site in SITES:
            sid = self.sim.site_id(site)
            keys, open_prepares = log_replay_state(dur.log(site))
            assert dur._index[sid] == keys, site
            assert dur._open[sid] == open_prepares, site
            for txn in TXNS:
                for attempt in ATTEMPTS:
                    assert dur.has_prepare(site, txn, attempt) == (
                        ("prepare", txn, attempt) in keys
                    )
                    assert dur.has_decision(site, txn, attempt) == (
                        ("decision", txn, attempt) in keys
                    )


TestReplayState = ReplayStateMachine.TestCase
TestReplayState.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
