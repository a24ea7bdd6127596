"""The network chaos model: loss, duplication, jitter, partitions.

:class:`NetworkModel` is what the simulator's two network seams call
once it is attached: :meth:`Simulator.transmit` hands every
cross-site message to its retransmission channel, and
:meth:`Simulator.suspect_down` asks :meth:`NetworkModel.suspect_down`.
Attaching registers the model's own event kinds —
``net_deliver``/``net_redeliver`` (message copies in flight),
``net_ack``, ``net_retransmit`` (the backoff timer chain), and
``net_partition_start``/``net_partition_stop`` (episode edges) — and
patches nothing. With ``SimulationConfig.network`` unset nothing
attaches and both seams keep their perfect-network bodies.

Chaos draws come from a dedicated ``random.Random`` stream derived
from the run seed (the same independent-stream pattern the
``FailureInjector`` uses), so enabling chaos never perturbs arrival
times, restart jitter, or crash schedules — and a chaos-off config is
bit-for-bit the seed behaviour, which the golden matrix pins.

Partition semantics: at most one episode is active at a time; the
site set is split into two sides and every message copy whose source
and destination fall on opposite sides is dropped at delivery time
(in-flight copies are cut too — a partition that starts mid-flight
eats the packet). Partitioned sites stay *up*: they are never marked
crashed, their lock tables keep serving local work, and only
:meth:`Simulator.suspect_down` — timeout-based suspicion from ack
ages — lets protocols route around them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.network.retransmit import RetransmitChannel

__all__ = ["NetworkConfig", "NetworkModel"]

#: seed-derivation constant of the chaos stream (the failure injector
#: uses 0x5EED; distinct constants keep the streams independent).
_CHAOS_SALT = 0xC4A05


@dataclass(frozen=True)
class NetworkConfig:
    """Adversarial-network parameters of a run.

    Attributes:
        loss_rate: i.i.d. probability that a message copy is dropped
            in flight (each copy — original, retransmission, duplicate,
            ack — draws independently).
        dup_rate: probability that a delivered message is spontaneously
            duplicated by the network; the extra copy is suppressed by
            the receiver's sequence-number dedup and counted in
            ``net_duplicates``.
        jitter: per-copy delay jitter, uniform in ``[0, jitter]``,
            added on top of the configured link delay.
        partition_rate: Poisson arrival rate of partition episodes
            (0 disables random partitions).
        partition_duration: duration of each Poisson-arriving episode.
        partition_schedule: scripted episodes, a tuple of
            ``(start, duration, side)`` entries where ``side`` is the
            tuple of site *names* on one side of the cut (the other
            side is the complement). Scripted and Poisson episodes can
            be combined; overlapping starts are skipped (one cut at a
            time).
        retransmit_timeout: first retransmission deadline of an
            unacked message.
        retransmit_backoff: multiplicative backoff factor applied to
            each successive retransmission interval (>= 1).
        retransmit_cap: upper bound on the backoff interval.
        suspect_timeout: failure-suspicion threshold — a site whose
            oldest unacked message has waited longer than this is
            *suspected* by :meth:`Simulator.suspect_down`.
    """

    loss_rate: float = 0.0
    dup_rate: float = 0.0
    jitter: float = 0.0
    partition_rate: float = 0.0
    partition_duration: float = 20.0
    partition_schedule: tuple = ()
    retransmit_timeout: float = 2.0
    retransmit_backoff: float = 2.0
    retransmit_cap: float = 16.0
    suspect_timeout: float = 8.0

    def __post_init__(self) -> None:
        for label, value in (
            ("loss_rate", self.loss_rate),
            ("dup_rate", self.dup_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        for label, value in (
            ("jitter", self.jitter),
            ("partition_rate", self.partition_rate),
            ("partition_duration", self.partition_duration),
        ):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")
        for label, value in (
            ("retransmit_timeout", self.retransmit_timeout),
            ("retransmit_cap", self.retransmit_cap),
            ("suspect_timeout", self.suspect_timeout),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be > 0, got {value}")
        if self.retransmit_backoff < 1.0:
            raise ValueError(
                f"retransmit_backoff must be >= 1, "
                f"got {self.retransmit_backoff}"
            )
        normalized = []
        for entry in self.partition_schedule:
            start, duration, side = entry
            if start < 0 or duration <= 0:
                raise ValueError(
                    f"partition episode needs start >= 0 and duration > 0, "
                    f"got ({start}, {duration})"
                )
            if not side:
                raise ValueError("partition side must name at least one site")
            normalized.append((float(start), float(duration), tuple(side)))
        object.__setattr__(self, "partition_schedule", tuple(normalized))

    @property
    def partitions_possible(self) -> bool:
        """Whether any partition episode can occur in this config."""
        return self.partition_rate > 0 or bool(self.partition_schedule)

    @property
    def enabled(self) -> bool:
        """Whether this config perturbs the network at all."""
        return (
            self.loss_rate > 0
            or self.dup_rate > 0
            or self.jitter > 0
            or self.partitions_possible
        )


class NetworkModel:
    """Chaos behind the simulator's message and suspicion seams."""

    def __init__(self, sim):
        self.sim = sim
        self.config: NetworkConfig = sim.config.network
        # Dedicated chaos stream: an independent derivation of the run
        # seed, so chaos draws never perturb the main RNG and the
        # chaos-off config replays the seed behaviour bit for bit.
        self.rng = random.Random(
            (sim.config.seed + 1) * 1_000_003 + _CHAOS_SALT
        )
        self.channel = RetransmitChannel(self)
        #: sids on side A of the active cut (side B is the complement);
        #: None while the network is whole.
        self.cut: frozenset | None = None
        self._cut_since = 0.0
        self._episodes: list[tuple[float, float, frozenset]] = []

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self) -> None:
        sim = self.sim
        channel = self.channel
        sim.register_handler("net_deliver", channel.on_deliver)
        sim.register_handler("net_redeliver", channel.on_redeliver)
        sim.register_handler("net_ack", channel.on_ack)
        sim.register_handler("net_retransmit", channel.on_retransmit)
        sim.register_handler("net_partition_start", self._on_partition_start)
        sim.register_handler("net_partition_stop", self._on_partition_stop)
        n_sites = len(sim.site_names())
        for i, (start, duration, side) in enumerate(
            self.config.partition_schedule
        ):
            known = sim.site_names()
            unknown = [name for name in side if name not in known]
            if unknown:
                raise ValueError(
                    f"partition side names unknown sites {unknown!r} "
                    f"(schema sites: {list(known)!r})"
                )
            sids = frozenset(sim.site_id(name) for name in side)
            if len(sids) >= n_sites:
                raise ValueError(
                    f"partition side {side!r} must be a proper subset "
                    f"of the {n_sites} sites"
                )
            self._episodes.append((start, duration, sids))
            sim.schedule(start, ("net_partition_start", i))
        if self.config.partition_rate > 0 and n_sites >= 2:
            sim.schedule(
                self.rng.expovariate(self.config.partition_rate),
                ("net_partition_start", -1),
            )

    # ------------------------------------------------------------------
    # failure suspicion
    # ------------------------------------------------------------------

    def suspect_down(self, site: str) -> bool:
        """Whether ``site`` is crashed or its oldest unacked message is
        older than ``suspect_timeout``."""
        sim = self.sim
        if not sim.site_is_up(site):
            return True  # genuinely crashed sites stay suspected
        sid = sim.site_id(site)
        age = self.channel.oldest_unacked_age(sid, sim._now)
        return age > self.config.suspect_timeout

    # ------------------------------------------------------------------
    # chaos draws
    # ------------------------------------------------------------------

    def loss_draw(self) -> bool:
        p = self.config.loss_rate
        return p > 0.0 and self.rng.random() < p

    def dup_draw(self) -> bool:
        p = self.config.dup_rate
        return p > 0.0 and self.rng.random() < p

    def jitter_draw(self) -> float:
        j = self.config.jitter
        return self.rng.uniform(0.0, j) if j > 0.0 else 0.0

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------

    def cut_between(self, a: int, b: int) -> bool:
        """Whether the active cut separates sids ``a`` and ``b``."""
        side = self.cut
        return side is not None and ((a in side) != (b in side))

    def reachable(self, a: int, b: int) -> bool:
        """Whether sids ``a`` and ``b`` are on the same side (or the
        network is whole)."""
        side = self.cut
        return side is None or (a in side) == (b in side)

    def _work_pending(self) -> bool:
        sim = self.sim
        return sim.has_uncommitted() or sim._retained_total > 0

    def _on_partition_start(self, idx: int) -> None:
        sim = self.sim
        if idx < 0:
            # A Poisson-arriving episode.
            if not self._work_pending():
                return  # batch drained; let the chain die
            if self.cut is not None:
                self._schedule_next_poisson()
                return
            duration = self.config.partition_duration
            side = self._random_side()
            if side is None:
                return  # single-site schema: nothing to split
        else:
            if self.cut is not None:
                return  # overlapping scripted episodes: first one wins
            _start, duration, side = self._episodes[idx]
        # Bookkeeping hook runs before the cut flips, so availability
        # integration covers the pre-cut interval with pre-cut state.
        sim.replicas.on_partition_cut()
        self.cut = side
        self._cut_since = sim._now
        sim.count("partitions")
        sim.schedule(duration, ("net_partition_stop", idx))

    def _on_partition_stop(self, idx: int) -> None:
        sim = self.sim
        if self.cut is None:
            return
        # The replica manager integrates with the cut still active and
        # schedules catch-up for copies that missed writes while
        # unreachable (the partition-side analogue of a repair).
        sim.replicas.on_partition_heal()
        self.cut = None
        sim.result.partition_time += sim._now - self._cut_since
        if idx < 0 and self._work_pending():
            self._schedule_next_poisson()

    def _schedule_next_poisson(self) -> None:
        self.sim.schedule(
            self.rng.expovariate(self.config.partition_rate),
            ("net_partition_start", -1),
        )

    def _random_side(self) -> frozenset | None:
        n = len(self.sim.site_names())
        if n < 2:
            return None
        sids = list(range(n))
        self.rng.shuffle(sids)
        k = self.rng.randint(1, n - 1)
        return frozenset(sids[:k])
