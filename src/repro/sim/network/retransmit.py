"""The retransmission substrate: acks, backoff, duplicate suppression.

Every cross-site message handed to :meth:`Simulator.transmit` while a
network model is attached becomes a *logical send* with a sequence
number. The channel puts physical copies of it on the wire — the
original, retransmissions on an exponential-backoff timer chain, and
any copies the network spontaneously duplicates — until the receiver's
ack comes back. The receiver dispatches the payload exactly once
(sequence-number dedup suppresses every later copy) and re-acks every
copy it sees, so a lost ack can never wedge the sender.

Ledger: every physical data copy is counted at independent code points
so the identity

    ``net_sent == net_delivered + net_dropped + net_duplicates
    + net_inflight``

is a real invariant, not an arithmetic tautology — ``net_sent`` when a
copy is put on the wire, ``net_dropped`` when a copy is eaten (loss
draw, partition cut, or arrival at a crashed site), ``net_delivered``
when a fresh copy dispatches its payload, ``net_duplicates`` when a
copy is suppressed, and ``net_inflight`` up on enqueue / down on
arrival (its end-of-run value is the copies still in the queue). Acks
are control traffic outside the data ledger and are counted separately
(``net_acks``); ``net_retransmits`` counts timer-driven resends. Every
counter but ``net_inflight`` goes through :meth:`Simulator.count`, so
a traced run's counter stream replays the ledger history;
``net_inflight`` follows from the others and is bumped inline, which
keeps its churn out of the stream.

Retransmission chains die on their own once the run has no
uncommitted work and no retained locks left — the same drain condition
the failure injector uses — so a message addressed to a permanently
unreachable site cannot keep the event queue alive forever.

The channel also feeds failure suspicion: per destination it tracks
the send time of the oldest unacked message, and
:meth:`NetworkModel.suspect_down` suspects a site once that age
exceeds ``suspect_timeout`` — the timeout-based knowledge a real
protocol has, replacing the omniscient ``site_is_up()`` checks.
"""

from __future__ import annotations

__all__ = ["RetransmitChannel"]


class _Pending:
    """One unacked logical send."""

    __slots__ = ("seq", "src", "dst", "delay", "payload", "sent_at")

    def __init__(self, seq, src, dst, delay, payload, sent_at):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.delay = delay
        self.payload = payload
        self.sent_at = sent_at


class RetransmitChannel:
    """Reliable delivery over the chaos model's lossy links."""

    def __init__(self, model):
        self.model = model
        self.sim = model.sim
        config = model.config
        self.timeout = config.retransmit_timeout
        self.backoff = config.retransmit_backoff
        self.cap = config.retransmit_cap
        self._next_seq = 0
        #: seq -> _Pending, while unacked.
        self.outstanding: dict[int, _Pending] = {}
        #: seqs whose payload was dispatched (suppresses later copies).
        self.delivered: set[int] = set()
        #: dst sid -> {seq: send time}, the suspicion bookkeeping.
        self._unacked_to: dict[int, dict[int, float]] = {}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, delay: float, payload: tuple) -> None:
        """Start a logical send: first copy plus the backoff chain.

        The first copy's event carries the inner payload
        (``("net_deliver", seq, src, dst, payload)``), so the sched
        probe the ObserverHub emits at send time lets attribution open
        the same in-network interval it opens for a direct send;
        retransmitted and duplicated copies use ``net_redeliver`` and
        stay invisible to attribution — the interval a lost first copy
        opened simply stays open until some copy finally delivers,
        which is exactly how retransmission waits fold into the
        coordinator/fanout segments.
        """
        sim = self.sim
        seq = self._next_seq
        self._next_seq = seq + 1
        self.outstanding[seq] = _Pending(
            seq, src, dst, delay, payload, sim._now
        )
        self._unacked_to.setdefault(dst, {})[seq] = sim._now
        sim.count("net_sent")
        sim.result.net_inflight += 1
        sim.schedule(
            delay + self.model.jitter_draw(),
            ("net_deliver", seq, src, dst, payload),
        )
        sim.schedule(self.timeout, ("net_retransmit", seq, 1))

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def on_deliver(self, seq, src, dst, payload) -> None:
        self._deliver(seq, src, dst, payload)

    def on_redeliver(self, seq, src, dst, payload) -> None:
        self._deliver(seq, src, dst, payload)

    def _deliver(self, seq, src, dst, payload) -> None:
        sim = self.sim
        result = sim.result
        result.net_inflight -= 1
        model = self.model
        if model.cut_between(src, dst) or model.loss_draw():
            sim.count("net_dropped")
            return
        if not sim.site_id_is_up(dst):
            # Arrived at a crashed site: lost with it. The sender keeps
            # retransmitting and delivers after the repair.
            sim.count("net_dropped")
            return
        if seq in self.delivered:
            sim.count("net_duplicates")
            self._send_ack(seq, src, dst)  # the earlier ack may be lost
            return
        self.delivered.add(seq)
        sim.count("net_delivered")
        if model.dup_draw():
            # The network spontaneously duplicates the message; the
            # copy arrives after its own jitter and is suppressed above.
            sim.count("net_sent")
            result.net_inflight += 1
            sim.schedule(
                model.jitter_draw(),
                ("net_redeliver", seq, src, dst, payload),
            )
        self._send_ack(seq, src, dst)
        # Dispatch through the registry *attribute*, so the observer's
        # dispatch shadow (when attached) emits the inner event probe —
        # traced runs see the real message kind at its real delivery
        # time, and attribution closes the interval the send opened.
        sim._registry.dispatch(payload)

    # ------------------------------------------------------------------
    # acks
    # ------------------------------------------------------------------

    def _send_ack(self, seq, src, dst) -> None:
        sim = self.sim
        sim.count("net_acks")
        sim.schedule(
            sim.config.network_delay + self.model.jitter_draw(),
            ("net_ack", seq, dst, src),
        )

    def on_ack(self, seq, src, dst) -> None:
        model = self.model
        if model.cut_between(src, dst) or model.loss_draw():
            # Lost ack: the sender retransmits, the receiver re-acks.
            return
        rec = self.outstanding.pop(seq, None)
        if rec is not None:
            pending = self._unacked_to.get(rec.dst)
            if pending is not None:
                pending.pop(seq, None)

    # ------------------------------------------------------------------
    # the backoff chain
    # ------------------------------------------------------------------

    def on_retransmit(self, seq, n) -> None:
        rec = self.outstanding.get(seq)
        if rec is None:
            return  # acked; the chain dies
        sim = self.sim
        if not (sim.has_uncommitted() or sim._retained_total > 0):
            # Nothing left for the message to influence: drop it so the
            # queue can drain (mirrors the failure injector's drain
            # condition).
            self.outstanding.pop(seq, None)
            pending = self._unacked_to.get(rec.dst)
            if pending is not None:
                pending.pop(seq, None)
            return
        sim.count("net_retransmits")
        sim.count("net_sent")
        sim.result.net_inflight += 1
        sim.schedule(
            rec.delay + self.model.jitter_draw(),
            ("net_redeliver", seq, rec.src, rec.dst, rec.payload),
        )
        pause = min(self.timeout * self.backoff ** n, self.cap)
        sim.schedule(pause, ("net_retransmit", seq, n + 1))

    # ------------------------------------------------------------------
    # failure suspicion
    # ------------------------------------------------------------------

    def oldest_unacked_age(self, dst: int, now: float) -> float:
        """Age of the oldest unacked message to ``dst`` (0 if none)."""
        pending = self._unacked_to.get(dst)
        if not pending:
            return 0.0
        return now - min(pending.values())
