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

What the channel keeps: one record per logical send in ``messages``
(seq -> :class:`_Message`), holding the send's route, delay, payload
and send time, the number of its copies on the wire, whether its
payload was dispatched, and whether it is *open* — unacked, so its
backoff chain still resends it. A copy put on the wire (first send,
retransmission, spontaneous duplicate) adds one to the count; a copy
that lands takes one off, whether it is dropped, suppressed or
dispatched. A record closes when its ack arrives or the drain path
below stops its chain, and is forgotten once it is closed and no copy
of it is on the wire: the first moment no copy can arrive again, so
duplicate suppression reads the record's ``delivered`` flag and gives
every copy the answer a never-pruned set of delivered sequence
numbers would. The channel thus holds the in-flight window, not the
run's history.

Retransmission chains die on their own once the run has no
uncommitted work and no retained locks left — the same drain condition
the failure injector uses — so a message addressed to a permanently
unreachable site cannot keep the event queue alive forever.

The channel also feeds failure suspicion: the age of the oldest open
message to a destination is the least send time over its open
records, and :meth:`NetworkModel.suspect_down` suspects a site once
that age exceeds ``suspect_timeout`` — the timeout-based knowledge a
real protocol has, replacing the omniscient ``site_is_up()`` checks.
"""

from __future__ import annotations

__all__ = ["RetransmitChannel"]


class _Message:
    """One logical send, kept while a copy of it can still arrive."""

    __slots__ = (
        "src", "dst", "delay", "payload", "sent_at", "copies",
        "delivered", "open",
    )

    def __init__(self, src, dst, delay, payload, sent_at):
        self.src = src
        self.dst = dst
        self.delay = delay
        self.payload = payload
        self.sent_at = sent_at
        self.copies = 1  # copies on the wire
        self.delivered = False  # payload dispatched
        self.open = True  # unacked: the backoff chain still resends


class RetransmitChannel:
    """Reliable delivery over the chaos model's lossy links.

    ``messages`` maps the sequence number of every logical send that
    is open or has a copy on the wire to its :class:`_Message`; see
    the module docstring for when a record is forgotten.
    """

    def __init__(self, model):
        self.model = model
        self.sim = model.sim
        config = model.config
        self.timeout = config.retransmit_timeout
        self.backoff = config.retransmit_backoff
        self.cap = config.retransmit_cap
        self._next_seq = 0
        self.messages: dict[int, _Message] = {}

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
        self.messages[seq] = _Message(src, dst, delay, payload, sim._now)
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
        # The copy has landed, whatever its fate below: take it off the
        # count first, and forget a closed message with none left.
        messages = self.messages
        msg = messages[seq]
        msg.copies -= 1
        if not (msg.open or msg.copies):
            del messages[seq]
        model = self.model
        if model.cut_between(src, dst) or model.loss_draw():
            sim.count("net_dropped")
            return
        if not sim.site_id_is_up(dst):
            # Arrived at a crashed site: lost with it. The sender keeps
            # retransmitting and delivers after the repair.
            sim.count("net_dropped")
            return
        if msg.delivered:
            sim.count("net_duplicates")
            self._send_ack(seq, src, dst)  # the earlier ack may be lost
            return
        msg.delivered = True
        sim.count("net_delivered")
        if model.dup_draw():
            # The network spontaneously duplicates the message; the
            # copy arrives after its own jitter and is suppressed above.
            # (A message the drain path closed may have been forgotten
            # above: its new copy puts it back.)
            msg.copies += 1
            messages[seq] = msg
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
        msg = self.messages.get(seq)
        if msg is not None:
            self._close(seq, msg)

    def _close(self, seq, msg) -> None:
        """Stop ``msg``'s backoff chain; forget it if no copy is out."""
        msg.open = False
        if not msg.copies:
            del self.messages[seq]

    # ------------------------------------------------------------------
    # the backoff chain
    # ------------------------------------------------------------------

    def on_retransmit(self, seq, n) -> None:
        msg = self.messages.get(seq)
        if msg is None or not msg.open:
            return  # acked or drained; the chain dies
        sim = self.sim
        if not (sim.has_uncommitted() or sim._retained_total > 0):
            # Nothing left for the message to influence: stop its
            # chain so the queue can drain (mirrors the failure
            # injector's drain condition).
            self._close(seq, msg)
            return
        msg.copies += 1
        sim.count("net_retransmits")
        sim.count("net_sent")
        sim.result.net_inflight += 1
        sim.schedule(
            msg.delay + self.model.jitter_draw(),
            ("net_redeliver", seq, msg.src, msg.dst, msg.payload),
        )
        try:
            pause = min(self.timeout * self.backoff ** n, self.cap)
        except OverflowError:
            # backoff ** n left the float range, far past the cap (a
            # message unacked for ~1,000 resends under total loss).
            pause = self.cap
        sim.schedule(pause, ("net_retransmit", seq, n + 1))

    # ------------------------------------------------------------------
    # failure suspicion
    # ------------------------------------------------------------------

    def oldest_unacked_age(self, dst: int, now: float) -> float:
        """Age of the oldest unacked message to ``dst`` (0 if none).

        A scan of the in-flight window: suspicion asks rarely, and the
        window holds tens of records.
        """
        sent = [
            msg.sent_at for msg in self.messages.values()
            if msg.open and msg.dst == dst
        ]
        return now - min(sent) if sent else 0.0
