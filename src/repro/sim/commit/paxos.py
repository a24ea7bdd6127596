"""Paxos Commit: non-blocking atomic commit (Gray & Lamport).

*Consensus on Transaction Commit* replaces 2PC's single point of
failure — the coordinator — with a bank of 2F+1 **acceptor** sites
that durably register the participants' votes. The protocol masks up
to F simultaneous site failures:

1. the leader (initially the transaction's coordinator site) sends
   PREPARE to every participant, exactly as in 2PC (``cm_prepare``);
2. each participant sends its yes-vote to *all* acceptors
   (``cm_vote``) instead of to the coordinator alone; an up acceptor
   registers the vote on its log and relays the acceptance to the
   leader (``cm_learn`` — free when the acceptor shares the leader's
   site, which is what makes F=0 collapse to 2PC's message bill);
3. the decision is COMMIT as soon as the leader learns that, for every
   participant, a **majority** of acceptors registered its vote — the
   decision is then durable no matter which F sites crash next — and
   the release fan-out (``cm_release`` + ACKs) is inherited from 2PC;
4. if the leader is down when the retry timer fires
   (``config.commit_timeout``), the next up acceptor in rotation
   *takes over* the round (counted in ``coordinator_takeovers``): it
   runs a phase-1 round trip to every up acceptor (``cm_state``) to
   recover the registered votes, then finishes the round itself.
   Prepared participants therefore stop blocking on a crashed
   coordinator — the stall 2PC cannot avoid (its retry handler can
   only wait).

Acceptor state is durable across crashes; a *down* acceptor simply
receives no messages, so votes addressed to it are lost until a
retransmitted PREPARE makes the participant vote again. Without a
durability model that durability is an assumption (the registry just
persists in round state); with one (``config.durability``) it is
earned — an acceptor forces an *accept* record before registering a
vote, a takeover leader forces a *ballot* record before deposing the
old one, and an amnesia log-wipe really does empty the site's
registries (:meth:`PaxosCommit.on_durability_wipe`), which is exactly
the failure the 2F+1 redundancy is there to mask.

Degeneracy contract, pinned by the golden-digest suite: with
``commit_fault_tolerance=0`` there is exactly one acceptor, co-located
with the coordinator, every relay is free, takeover has no candidate —
the round is message-for-message (and therefore digest-for-digest)
classic 2PC at failure rate 0.

Abort handling keeps 2PC's presumed-nothing convention (the leader
notifies voters, voters ACK), so the protocols differ only where the
replicated registrars matter.
"""

from __future__ import annotations

from repro.sim.commit.base import register_protocol
from repro.sim.commit.twophase import TwoPhaseCommit

__all__ = ["PaxosCommit"]


class _PaxosRound:
    """Round state: the durable acceptor registry plus the current
    leader's learned view.

    ``coordinator`` names the *current leader's site* (the inherited
    2PC messaging helpers charge delays relative to it); takeovers
    reassign it. ``accepted`` is each acceptor's durable vote registry;
    ``learned`` maps a participant site to the acceptors the leader
    knows have registered its vote. ``ballot`` increments per takeover
    so a deposed leader's stale retry chain and phase-1 responses are
    ignored.
    """

    __slots__ = ("attempt", "coordinator", "participants", "decided",
                 "deciding", "acceptors", "majority", "ballot",
                 "accepted", "learned")

    def __init__(self, attempt: int, coordinator: str,
                 participants: frozenset[str],
                 acceptors: tuple[str, ...]):
        self.attempt = attempt
        self.coordinator = coordinator
        self.participants = participants
        self.decided = False
        self.deciding = False  # decision record mid-flush (see _Round)
        self.acceptors = acceptors
        self.majority = len(acceptors) // 2 + 1
        self.ballot = 0
        self.accepted: dict[str, set[str]] = {a: set() for a in acceptors}
        self.learned: dict[str, set[str]] = {}

    @property
    def votes(self) -> set[str]:
        """Participants the leader knows are majority-registered.

        The inherited 2PC machinery reads ``round.votes`` (re-PREPARE
        targeting, abort notification counts); exposing the
        majority-learned set here lets it operate unchanged.
        """
        majority = self.majority
        return {
            site
            for site, acceptors in self.learned.items()
            if len(acceptors) >= majority
        }


@register_protocol
class PaxosCommit(TwoPhaseCommit):
    """2F+1-acceptor Paxos Commit with coordinator failover."""

    name = "paxos-commit"
    retains_locks = True
    notify_on_abort = True

    def attach(self, sim) -> None:
        super().attach(sim)
        self.fault_tolerance = max(0, sim.config.commit_fault_tolerance)
        sim.register_handler("cm_learn", self._on_learn)
        sim.register_handler("cm_state", self._on_state)

    def _send_acceptor_to(self, src: str, dst: str,
                          payload: tuple) -> None:
        """Route an acceptor-bank message site-to-site (chaos seam)."""
        self.sim.result.acceptor_messages += 1
        self._send_to(src, dst, payload)

    # ------------------------------------------------------------------
    # leader side
    # ------------------------------------------------------------------

    def on_execution_complete(self, inst) -> None:
        sim = self.sim
        sim.mark_prepared(inst)
        coordinator, sites = sim.transaction_sites(inst.index)
        acceptors = sim.acceptor_sites(
            coordinator, 2 * self.fault_tolerance + 1
        )
        round = _PaxosRound(
            inst.attempt, coordinator, frozenset(sites), acceptors
        )
        self._rounds[inst.index] = round
        self._broadcast_prepare(inst.index, round)
        sim.schedule(
            sim.config.commit_timeout,
            ("cm_retry", inst.index, inst.attempt, round.ballot),
        )

    def _learn(self, txn: int, round: _PaxosRound, site: str,
               acceptor: str) -> None:
        """The leader learns that ``acceptor`` registered ``site``'s
        vote; decide once every participant is majority-registered."""
        round.learned.setdefault(site, set()).add(acceptor)
        if not round.decided and round.votes == round.participants:
            self._decide(txn, round, "commit", self._apply_commit)

    def _on_learn(self, txn: int, acceptor: str, site: str,
                  attempt: int) -> None:
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if not self.sim.site_is_up(round.coordinator):
            return  # leader down: the relay is lost; phase 1 recovers it
        self._learn(txn, round, site, acceptor)

    def _on_state(self, txn: int, acceptor: str, attempt: int,
                  ballot: int) -> None:
        """Phase-1 response: an up acceptor's durable registry reaches
        the new leader (state read at delivery — it only grows)."""
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if ballot != round.ballot:
            return  # a newer takeover superseded this phase 1
        if not self.sim.site_is_up(round.coordinator):
            return  # the new leader crashed too; the next one re-asks
        for site in round.accepted.get(acceptor, ()):
            self._learn(txn, round, site, acceptor)

    def _next_leader(self, round: _PaxosRound) -> str | None:
        """The first up acceptor after the current leader, in rotation
        order; None when every acceptor is down (the round stalls,
        exactly like 2PC — more than F failures void the guarantee)."""
        acceptors = round.acceptors
        try:
            start = acceptors.index(round.coordinator)
        except ValueError:  # pragma: no cover - leaders are acceptors
            start = 0
        for step in range(1, len(acceptors) + 1):
            candidate = acceptors[(start + step) % len(acceptors)]
            if candidate != round.coordinator and not self.sim.suspect_down(
                candidate
            ):
                return candidate
        return None

    def _on_retry(self, txn: int, attempt: int, ballot: int) -> None:
        sim = self.sim
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if ballot != round.ballot:
            return  # a takeover re-armed the chain under a newer ballot
        if round.deciding:
            # The decision record is mid-flush (durability model):
            # keep the chain alive so a crash-cancelled flush is
            # re-driven.
            sim.schedule(
                sim.config.commit_timeout,
                ("cm_retry", txn, attempt, ballot),
            )
            return
        if sim.suspect_down(round.coordinator):
            # The leader is suspected (crashed — or, under a network
            # model, silent past the suspicion timeout): rotate.
            new_leader = self._next_leader(round)
            if new_leader is None:
                # Every acceptor down (> F failures): nothing to do but
                # wait, as 2PC would.
                sim.schedule(
                    sim.config.commit_timeout,
                    ("cm_retry", txn, attempt, ballot),
                )
                return
            # The new leader forces its ballot record before deposing
            # the old one; a crash mid-flush re-arms the old chain so
            # the next retry rotates again.
            self._force(
                new_leader,
                ("ballot", txn, attempt, round.ballot + 1),
                lambda: self._takeover(
                    txn, round, attempt, ballot, new_leader
                ),
                lambda: sim.schedule(
                    sim.config.commit_timeout,
                    ("cm_retry", txn, attempt, ballot),
                ),
            )
            return
        missing = round.participants - round.votes
        if not missing:
            # Every participant is majority-registered but no decision
            # stands — only reachable when a leader crash cancelled the
            # decision flush. Re-drive it.
            self._decide(txn, round, "commit", self._apply_commit)
            return
        if any(sim.suspect_down(site) for site in missing):
            # A missing voter is suspected down: its unprepared
            # execution state is presumed lost (2PC's abort rule,
            # unchanged).
            self._decide(txn, round, "abort", self._apply_abort)
            return
        # Transient loss: re-PREPARE the under-registered participants;
        # they re-vote to the full acceptor bank.
        self._broadcast_prepare(txn, round, only_missing=True)
        sim.schedule(
            sim.config.commit_timeout, ("cm_retry", txn, attempt, ballot)
        )

    def _rearm_retry(self, txn: int, round: _PaxosRound) -> None:
        """Paxos retries are ballot-tagged so a takeover can invalidate
        stale chains; re-arm under the round's current ballot."""
        self.sim.schedule(
            self.sim.config.commit_timeout,
            ("cm_retry", txn, round.attempt, round.ballot),
        )

    def _takeover(
        self, txn: int, round: _PaxosRound, attempt: int, ballot: int,
        new_leader: str,
    ) -> None:
        """Ballot-flush continuation: depose the old leader unless a
        decision or a competing takeover superseded us."""
        sim = self.sim
        if (self._rounds.get(txn) is not round or round.decided
                or round.deciding):
            return
        if round.attempt != attempt or round.ballot != ballot:
            return  # a competing takeover won while we flushed
        if not sim.site_is_up(new_leader):  # pragma: no cover
            # A crash cancels the flush, so this cannot fire; re-arm
            # the chain defensively all the same.
            sim.schedule(
                sim.config.commit_timeout,
                ("cm_retry", txn, attempt, ballot),
            )
            return
        round.ballot += 1
        round.coordinator = new_leader
        round.learned = {}
        sim.result.coordinator_takeovers += 1
        # Phase 1: recover the registered votes from the up
        # acceptors. The co-located registry merges for free; every
        # other up acceptor costs a query/response round trip.
        for acceptor in round.acceptors:
            if acceptor == new_leader:
                for site in round.accepted[acceptor]:
                    self._learn(txn, round, site, acceptor)
                    if round.decided:
                        return
            elif not sim.suspect_down(acceptor):
                # Query + response modelled as one round trip; under
                # a network model the pair rides the channel as a
                # single retransmitted unit.
                sim.count("commit_messages", 2)
                sim.result.acceptor_messages += 2
                sim.transmit(
                    sim.site_id(new_leader), sim.site_id(acceptor),
                    2 * self._delay(new_leader, acceptor),
                    ("cm_state", txn, acceptor, attempt, round.ballot),
                )
        sim.schedule(
            sim.config.commit_timeout,
            ("cm_retry", txn, attempt, round.ballot),
        )

    # ------------------------------------------------------------------
    # participant / acceptor side
    # ------------------------------------------------------------------

    def _send_votes(self, txn: int, site: str, attempt: int,
                    round: _PaxosRound) -> None:
        """The participant's yes-vote goes to *every* acceptor, not
        just the leader (the inherited ``_on_prepare`` and its
        prepare-record force are unchanged)."""
        for acceptor in round.acceptors:
            self._send_acceptor_to(
                site, acceptor,
                ("cm_vote", txn, acceptor, site, attempt),
            )

    def _on_vote(self, txn: int, acceptor: str, site: str,
                 attempt: int) -> None:
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        sim = self.sim
        if not sim.site_is_up(acceptor):
            return  # vote lost at a down acceptor; a re-vote refills it
        if site in round.accepted[acceptor]:
            # A re-vote the acceptor already durably registered:
            # register/relay without a second force.
            self._register_vote(txn, round, acceptor, site, attempt)
            return
        # The acceptor forces its accept record before registering:
        # what phase 1 reads after a crash must be what was promised.
        self._force(
            acceptor, ("accept", txn, attempt, site),
            lambda: self._accept_if_current(txn, acceptor, site, attempt),
        )

    def _register_vote(self, txn: int, round: _PaxosRound,
                       acceptor: str, site: str, attempt: int) -> None:
        round.accepted[acceptor].add(site)
        if acceptor == round.coordinator:
            # Registrar and leader share a site: the relay is internal.
            self._learn(txn, round, site, acceptor)
        else:
            self._send_acceptor_to(
                acceptor, round.coordinator,
                ("cm_learn", txn, acceptor, site, attempt),
            )

    def _accept_if_current(self, txn: int, acceptor: str, site: str,
                           attempt: int) -> None:
        """Accept-flush continuation: register if the round stands."""
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if not self.sim.site_is_up(acceptor):
            return  # pragma: no cover - a crash cancels the flush
        self._register_vote(txn, round, acceptor, site, attempt)

    # ------------------------------------------------------------------
    # durability hooks
    # ------------------------------------------------------------------

    def on_durability_wipe(self, site: str) -> None:
        """An amnesia crash emptied ``site``'s log: its acceptor
        registries are gone with it — the redundancy the 2F+1 bank
        exists to absorb (a majority of honest registries still
        decides correctly)."""
        for round in self._rounds.values():
            accepted = round.accepted.get(site)
            if accepted:
                accepted.clear()
