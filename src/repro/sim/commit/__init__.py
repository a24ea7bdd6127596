"""Pluggable atomic-commit protocols for the simulator.

The execution layer (:mod:`repro.sim.runtime`) walks each
transaction's partial order; *this* package decides what "the last
operation finished" means for durability:

* ``instant`` — commit locally the moment execution completes; no
  messages, no blocking (the pre-commit-subsystem behaviour, and the
  default);
* ``two-phase`` — a coordinator site runs classic 2PC over the
  transaction's participant sites: PREPARE out, VOTE back, decision
  out, ACK back, every cross-site hop charged ``network_delay``. Locks
  are retained through the PREPARED window (strict release-at-commit),
  which is what makes commit a *coordination* problem: waiters block
  on the coordinator, and wound-wait must not wound a prepared holder;
* ``presumed-abort`` — 2PC with the presumed-abort optimisation: an
  aborting coordinator writes nothing and notifies nobody, so the
  abort path costs zero messages (participants presume abort);
* ``paxos-commit`` — Gray & Lamport's non-blocking commit: votes are
  registered at 2F+1 acceptor sites and any up acceptor takes over a
  round whose leader stays down past ``commit_timeout``, so a
  coordinator crash is masked instead of stalling prepared holders.
  At F=0 (``commit_fault_tolerance=0``) it is message-for-message 2PC.

Protocols interact with the runtime only through its public surface
(``register_handler``, ``schedule``, ``transmit``, ``suspect_down``,
``count``, ``site_is_up``, ``transaction_sites``, ``mark_prepared``,
``finish_commit``, ``abort_from_commit``, ``release_retained``), so a
new protocol is a self-contained module that registers its own event
kinds — the core loop never learns them.
"""

from repro.sim.commit.base import (
    CommitProtocol,
    make_protocol,
    protocol_names,
    register_protocol,
)
from repro.sim.commit.instant import InstantCommit
from repro.sim.commit.paxos import PaxosCommit
from repro.sim.commit.presumed_abort import PresumedAbortCommit
from repro.sim.commit.twophase import TwoPhaseCommit

__all__ = [
    "CommitProtocol",
    "InstantCommit",
    "PaxosCommit",
    "PresumedAbortCommit",
    "TwoPhaseCommit",
    "make_protocol",
    "protocol_names",
    "register_protocol",
]
