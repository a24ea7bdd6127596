"""Two-phase commit over the transaction's participant sites.

When a transaction finishes executing, the site of its first operation
becomes the *coordinator* and every site it touched a *participant*.
The round then exchanges messages, each cross-site hop charged
``config.network_delay`` (same-site delivery is free, matching the
execution layer's cross-site model):

1. coordinator -> participants: PREPARE (``cm_prepare``);
2. participant -> coordinator: VOTE yes (``cm_vote``) — execution
   already finished, so a reachable participant always votes yes;
3. all votes in -> the transaction commits at the coordinator and the
   decision travels back out (``cm_release``), releasing the locks the
   participant retained; the participant ACKs (counted, not simulated).

Failures make it interesting (see :mod:`repro.sim.failures`):

* messages addressed to a down site are lost;
* a retry timer (``cm_retry``, period ``config.commit_timeout``)
  re-sends PREPARE to participants whose vote is missing — transient
  losses delay the round rather than kill it;
* if at retry time a missing voter is *down*, its unprepared state is
  volatile and lost, so the coordinator decides ABORT (the transaction
  releases everything and restarts — an abort cascade under
  contention);
* while the *coordinator* is down no decision can be taken: prepared
  participants keep their locks and conflicting transactions block on
  the coordinator's recovery (``prepared_block_time``);
* a commit decision addressed to a down participant is retransmitted
  until the site recovers, so retained locks outlive the crash — the
  classic blocked-participant window of 2PC.

The PREPARED window also bends the contention policies: a prepared
holder can no longer be wounded (the runtime downgrades ABORT_HOLDER
to WAIT_PREPARED), which is sound because a decision always arrives in
finite time.

The round observes the protocol's classic force points
(:mod:`repro.sim.durability`): a participant forces a *prepare* record
before VOTE-YES, the coordinator forces the *decision* record before
the release fan-out, and a participant forces the decision before
releasing and ACKing. Every force goes through one helper,
:meth:`TwoPhaseCommit._force`: with a durability model attached
(``config.durability``) it costs ``flush_time`` on that site's
timeline; without one (``sim.durability is None``) it completes at
once and costs nothing, so the same handlers run both models.
Crash-recovered participants resolve their in-doubt transactions by
inquiry (only a log leaves a participant in doubt): ``cm_inquire``
asks the coordinator, which answers with a decision (``cm_status``),
re-PREPAREs a still-open round, or reports abort; a participant that
lost its volatile state before its prepare record became durable
answers PREPARE with ``cm_refuse``, aborting the round.
"""

from __future__ import annotations

from repro.sim.commit.base import CommitProtocol, register_protocol

__all__ = ["TwoPhaseCommit"]

#: the runtime's committed-status literal (a value import would be an
#: import cycle; see repro.sim.runtime).
_COMMITTED = "committed"


class _Round:
    """Coordinator-side state of one commit round."""

    __slots__ = ("attempt", "coordinator", "participants", "votes",
                 "decided", "deciding")

    def __init__(self, attempt: int, coordinator: str,
                 participants: frozenset[str]):
        self.attempt = attempt
        self.coordinator = coordinator
        self.participants = participants
        self.votes: set[str] = set()
        self.decided = False
        # True while the coordinator's decision record is being
        # flushed (it stays set only under a durability model): the
        # outcome is chosen but not yet durable, so no competing
        # decision may start and no inquiry may be answered with the
        # opposite verdict.
        self.deciding = False


@register_protocol
class TwoPhaseCommit(CommitProtocol):
    """Classic presumed-nothing 2PC: every decision is acknowledged."""

    name = "two-phase"
    retains_locks = True
    #: presumed-abort flips this: aborts are silent (no ABORT round,
    #: no acks), participants presume.
    notify_on_abort = True

    def attach(self, sim) -> None:
        super().attach(sim)
        self._rounds: dict[int, _Round] = {}
        sim.register_handler("cm_prepare", self._on_prepare)
        sim.register_handler("cm_vote", self._on_vote)
        sim.register_handler("cm_retry", self._on_retry)
        sim.register_handler("cm_release", self._on_release)
        # Recovery-inquiry events: only ever sent under a durability
        # model, but registered unconditionally (registration is free
        # and keeps the handler table uniform).
        sim.register_handler("cm_inquire", self._on_inquire)
        sim.register_handler("cm_status", self._on_status)
        sim.register_handler("cm_refuse", self._on_refuse)

    # ------------------------------------------------------------------
    # messaging helpers
    # ------------------------------------------------------------------

    def _delay(self, coordinator: str, site: str) -> float:
        if site == coordinator:
            return 0.0
        return self.sim.config.network_delay

    def _send(self, delay: float, payload: tuple) -> None:
        """Count one protocol message and schedule its delivery."""
        self.sim.result.commit_messages += 1
        self.sim.schedule(delay, payload)

    def _send_to(self, src: str, dst: str, payload: tuple) -> None:
        """Count one protocol message and route it site-to-site.

        This is the chaos seam: under a network model the message rides
        the retransmission channel (loss, duplication, partitions, acks
        and backoff); without one :meth:`Simulator.transmit` is a plain
        scheduled delivery, bit-identical to :meth:`_send`.
        """
        sim = self.sim
        sim.result.commit_messages += 1
        sim.transmit(
            sim.site_id(src), sim.site_id(dst),
            self._delay(src, dst), payload,
        )

    # ------------------------------------------------------------------
    # force points
    # ------------------------------------------------------------------

    def _force(self, site: str, record: tuple, cont, cancel=None) -> None:
        """Force ``record`` onto ``site``'s log, then run ``cont``.

        Without a durability model every force is instant and free:
        ``cont`` runs at once. With one, a record already being flushed
        at ``site`` (a duplicate message's force) is dropped, so only
        the in-flight force's ``cont`` runs, and a crash of the site
        mid-flush runs ``cancel`` instead of ``cont`` (see
        :meth:`DurabilityManager.force`).
        """
        dur = self.sim.durability
        if dur is None:
            cont()
        elif not dur.flush_pending(site, record):
            dur.force(site, record, cont, cancel)

    def _logged(self, site: str, kind: str, txn: int, attempt: int) -> bool:
        """Whether ``site``'s log already holds this attempt's ``kind``
        (``prepare`` or ``decision``) record; never without a log."""
        dur = self.sim.durability
        if dur is None:
            return False
        lookup = dur.has_prepare if kind == "prepare" else dur.has_decision
        return lookup(site, txn, attempt)

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def on_execution_complete(self, inst) -> None:
        sim = self.sim
        sim.mark_prepared(inst)
        coordinator, sites = sim.transaction_sites(inst.index)
        round = _Round(inst.attempt, coordinator, frozenset(sites))
        self._rounds[inst.index] = round
        self._broadcast_prepare(inst.index, round)
        sim.schedule(
            sim.config.commit_timeout,
            ("cm_retry", inst.index, inst.attempt),
        )

    def _broadcast_prepare(
        self, txn: int, round: _Round, only_missing: bool = False
    ) -> None:
        for site in sorted(round.participants):
            if only_missing and site in round.votes:
                continue
            self._send_to(
                round.coordinator, site,
                ("cm_prepare", txn, site, round.attempt),
            )

    def _on_vote(self, txn: int, site: str, attempt: int) -> None:
        round = self._rounds.get(txn)
        if (round is None or round.attempt != attempt or round.decided
                or round.deciding):
            return
        if not self.sim.site_is_up(round.coordinator):
            return  # vote lost; the retry loop re-collects it
        round.votes.add(site)
        if round.votes == round.participants:
            self._decide(txn, round, "commit", self._apply_commit)

    def _decide(self, txn: int, round: _Round, verdict: str, apply) -> None:
        """Force the coordinator's ``verdict`` record, then ``apply`` it.

        The record is forced before anything irreversible happens. A
        coordinator crash mid-flush cancels it (the decision was never
        taken); the cancel re-arms the retry chain, which re-drives the
        decision after recovery — the retry branches that reach a
        decide consume the chain, so without the re-arm a crash here
        would orphan the round.
        """
        if round.deciding or round.decided:
            return
        if verdict == "abort" and not self.notify_on_abort:
            # Presumed-abort's whole optimisation: aborts are never
            # logged (absent records read as ABORT), so no force.
            apply(txn, round)
            return
        round.deciding = True

        def done() -> None:
            round.deciding = False
            if not round.decided:
                apply(txn, round)

        def cancel() -> None:
            round.deciding = False
            self._rearm_retry(txn, round)

        self._force(
            round.coordinator,
            ("decision", txn, round.attempt, verdict),
            done, cancel,
        )

    def _apply_commit(self, txn: int, round: _Round) -> None:
        sim = self.sim
        round.decided = True
        sim.finish_commit(sim.instance(txn))
        for site in sorted(round.participants):
            self._send_to(
                round.coordinator, site,
                ("cm_release", txn, site, round.attempt),
            )
            # The participant's ACK is counted when it actually
            # processes the decision (see _on_release) — a down
            # participant has not acknowledged anything yet.

    def _rearm_retry(self, txn: int, round: _Round) -> None:
        """Restart the retry chain for a round whose decision flush was
        crash-cancelled. Subclasses with richer retry payloads (Paxos
        tags retries with the ballot) override this. A duplicate chain
        is harmless: every ``cm_retry`` delivery re-checks the round's
        identity and decision state before acting."""
        self.sim.schedule(
            self.sim.config.commit_timeout,
            ("cm_retry", txn, round.attempt),
        )

    def _apply_abort(self, txn: int, round: _Round) -> None:
        sim = self.sim
        round.decided = True
        if self.notify_on_abort:
            # ABORT to every participant that voted, plus their acks.
            sim.result.commit_messages += 2 * len(round.votes)
        del self._rounds[txn]
        sim.abort_from_commit(sim.instance(txn))

    def _on_retry(self, txn: int, attempt: int) -> None:
        sim = self.sim
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if round.deciding:
            # The decision record is mid-flush: keep the chain alive
            # so a crash-cancelled flush is re-driven.
            sim.schedule(
                sim.config.commit_timeout, ("cm_retry", txn, attempt)
            )
            return
        if not sim.site_is_up(round.coordinator):
            # Coordinator down: no decision possible; prepared
            # participants stay blocked until it recovers.
            sim.schedule(
                sim.config.commit_timeout, ("cm_retry", txn, attempt)
            )
            return
        missing = round.participants - round.votes
        if not missing:
            # Every vote is in but no decision stands — only reachable
            # when a coordinator crash cancelled the decision flush
            # (without a durability model the force completes at once,
            # so the decision fires at the last vote). Re-drive it.
            self._decide(txn, round, "commit", self._apply_commit)
            return
        if any(sim.suspect_down(site) for site in missing):
            # A missing voter is suspected down (crashed, or — under a
            # network model — silent past the suspicion timeout): its
            # unprepared execution state is presumed lost, so the round
            # cannot complete.
            self._decide(txn, round, "abort", self._apply_abort)
            return
        # Transient loss: re-send PREPARE to the missing voters only.
        self._broadcast_prepare(txn, round, only_missing=True)
        sim.schedule(
            sim.config.commit_timeout, ("cm_retry", txn, attempt)
        )

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def _on_prepare(self, txn: int, site: str, attempt: int) -> None:
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        sim = self.sim
        if not sim.site_is_up(site):
            return  # message lost: the participant is down
        if self._logged(site, "prepare", txn, attempt):
            # Already durably prepared (a retransmitted PREPARE, or a
            # recovered participant being re-asked): vote again
            # without a second force.
            self._send_votes(txn, site, attempt, round)
            return
        sid = sim.site_id(site)
        inst = sim.instance(txn)
        locks = tuple(sorted(e for e in inst.retained if e[1] == sid))
        if not locks:
            # The site lost this transaction's volatile state (a crash
            # wiped its lock table — possibly with log amnesia —
            # before the prepare record became durable): it must not
            # vote yes on state it no longer has.
            self._send_to(
                site, round.coordinator,
                ("cm_refuse", txn, site, attempt),
            )
            return
        # Execution finished before the round began, so the vote is
        # yes once the prepare record is durable.
        self._force(
            site, ("prepare", txn, attempt, locks),
            lambda: self._vote_if_current(txn, site, attempt),
        )

    def _send_votes(
        self, txn: int, site: str, attempt: int, round: _Round
    ) -> None:
        """Send the participant's yes-vote (Paxos fans out instead)."""
        self._send_to(
            site, round.coordinator,
            ("cm_vote", txn, site, attempt),
        )

    def _vote_if_current(self, txn: int, site: str, attempt: int) -> None:
        """Flush-completion continuation: vote if the round stands."""
        round = self._rounds.get(txn)
        if round is None or round.attempt != attempt or round.decided:
            return
        if not self.sim.site_is_up(site):
            return  # pragma: no cover - a crash cancels the flush
        self._send_votes(txn, site, attempt, round)

    def _on_release(self, txn: int, site: str, attempt: int) -> None:
        sim = self.sim
        if sim.instance(txn).attempt != attempt:
            return  # stale: the round aborted and the txn moved on
        if not sim.site_is_up(site):
            # Participant down: retransmit the decision until it
            # recovers — its retained locks stay blocked meanwhile.
            self._send(
                sim.config.commit_timeout,
                ("cm_release", txn, site, attempt),
            )
            return
        self._release(txn, site, attempt)

    def _release(self, txn: int, site: str, attempt: int) -> None:
        """Force the commit decision at the participant, then release.

        The force is what makes a later crash replay skip this
        transaction instead of re-entering doubt; a decision already on
        the site's log releases at once.
        """
        if self._logged(site, "decision", txn, attempt):
            self._apply_release(txn, site, attempt)
            return
        self._force(
            site, ("decision", txn, attempt, "commit"),
            lambda: self._apply_release(txn, site, attempt),
        )

    def _apply_release(self, txn: int, site: str, attempt: int) -> None:
        """Release the participant's retained locks and ACK."""
        sim = self.sim
        inst = sim.instance(txn)
        if inst.attempt != attempt:
            return  # the round aborted while the record flushed
        sim.release_retained(inst, site)
        sim.result.commit_messages += 1  # the participant's ACK
        if not inst.retained:
            self._rounds.pop(txn, None)
        if sim.durability is not None:
            sim.durability.resolved(txn, site)

    # ------------------------------------------------------------------
    # recovery inquiry (durability model only)
    # ------------------------------------------------------------------

    def inquiry_target(self, txn: int) -> str | None:
        round = self._rounds.get(txn)
        if round is not None:
            return round.coordinator
        return self.sim.transaction_sites(txn)[0]

    def _on_inquire(self, txn: int, site: str, attempt: int) -> None:
        """A recovered participant asks about an in-doubt transaction.

        Answer with the durable truth: COMMIT if the transaction
        committed at this attempt, a re-PREPARE if the round is still
        collecting votes (the inquirer's vote may be the missing one),
        ABORT otherwise — 2PC logs its aborts, presumed-abort answers
        from the absence of a record; the message is the same.
        """
        sim = self.sim
        coordinator = self.inquiry_target(txn)
        if not sim.site_is_up(coordinator):
            return  # lost; the participant's requery re-asks
        inst = sim.instance(txn)
        if inst.status == _COMMITTED and inst.attempt == attempt:
            self._send_to(
                coordinator, site,
                ("cm_status", txn, site, attempt, "commit"),
            )
            return
        round = self._rounds.get(txn)
        if (round is not None and round.attempt == attempt
                and not round.decided):
            if round.deciding:
                # The verdict is mid-flush: answering now could
                # contradict it. Stay silent; the requery re-asks.
                return
            self._send_to(
                coordinator, site,
                ("cm_prepare", txn, site, attempt),
            )
            return
        self._send_to(
            coordinator, site,
            ("cm_status", txn, site, attempt, "abort"),
        )

    def _on_status(
        self, txn: int, site: str, attempt: int, verdict: str
    ) -> None:
        """An inquiry answer reached the recovered participant."""
        sim = self.sim
        if not sim.site_is_up(site):
            return  # lost; the requery re-asks after the next recovery
        if verdict == "commit" and sim.instance(txn).attempt == attempt:
            self._release(txn, site, attempt)
            return
        # ABORT (or a stale attempt): presumption resolves the doubt;
        # the global abort path owns any remaining lock state. Only a
        # log's recovery replay inquires, so the model is attached.
        sim.durability.resolved(txn, site)

    def _on_refuse(self, txn: int, site: str, attempt: int) -> None:
        """A participant refused PREPARE: its volatile state is gone."""
        round = self._rounds.get(txn)
        if (round is None or round.attempt != attempt or round.decided
                or round.deciding):
            return
        if not self.sim.site_is_up(round.coordinator):
            return  # lost; the retry loop aborts on suspicion instead
        self._decide(txn, round, "abort", self._apply_abort)

    # ------------------------------------------------------------------
    # runtime callbacks
    # ------------------------------------------------------------------

    def on_abort(self, inst) -> None:
        self._rounds.pop(inst.index, None)
