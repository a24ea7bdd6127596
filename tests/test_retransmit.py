"""The retransmission channel's per-message state, against a shadow.

The channel keeps a record of a logical send only while the send is
open (unacked, its backoff chain still resending) or has a copy on the
wire. A shadow oracle follows every copy from outside the channel: it
wraps ``Simulator.schedule`` (each copy put on the wire), the four
``net_*`` handlers (each copy landing, each ack, each timer), the
chaos model's loss draw and the suspicion query, and it never forgets
a delivered sequence number. Against it:

1. after every event the channel holds exactly the messages that are
   open or have a copy on the wire, so never more than were ever open
   or on the wire at once;
2. every arriving copy meets the fate the never-forgetting oracle
   gives it: dropped, dispatched, or suppressed as a duplicate;
3. ``oldest_unacked_age`` answers every suspicion query as the oracle
   does.

The configurations cover the chaos battery, a ``stack-chaos``-shaped
open run with every layer attached, a network whose duplicates
routinely land after the ack, and the drain path (the timers a
finished run leaves queued, fired after it).
"""

import functools
import random

import pytest

from repro.core.system import TransactionSystem
from repro.sim.commit import protocol_names
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.replication import replica_control_names
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

from tests.test_chaos_conformance import SPEC, chaos_simulators


class ChannelShadow:
    """An outside record of one run's messages that forgets nothing."""

    def __init__(self, sim):
        self.sim = sim
        self.model = model = sim.network
        self.channel = channel = model.channel
        self.wire = {}  # seq -> copies scheduled and not yet landed
        self.open = {}  # seq -> (dst, send time) until acked or drained
        self.delivered = set()  # every dispatched seq, never pruned
        self.peak = 0  # most seqs open or on the wire at once
        self.max_held = 0  # most records the channel held at once
        self.held_mismatches = []
        self.fate_mismatches = []
        self.age_mismatches = []
        self.fates = dict.fromkeys(("dropped", "dispatched", "suppressed"), 0)
        self.late_duplicates = 0  # suppressed copies of an acked send
        self.drains = 0  # open sends whose chain the drain path stopped
        self.age_queries = 0
        self._draws = []  # every loss draw, in order
        self._inner = []  # payloads dispatched from inside a handler
        self._depth = 0
        handlers = sim._registry._handlers
        for kind, wrap in (
            ("net_deliver", self._land),
            ("net_redeliver", self._land),
            ("net_ack", self._ack),
            ("net_retransmit", self._retransmit),
        ):
            handlers[kind] = functools.partial(wrap, handlers[kind])
        sim.schedule = functools.partial(self._schedule, sim.schedule)
        sim._registry.dispatch = functools.partial(
            self._dispatch, sim._registry.dispatch
        )
        model.loss_draw = functools.partial(self._loss_draw, model.loss_draw)
        channel.oldest_unacked_age = functools.partial(
            self._age, channel.oldest_unacked_age
        )

    # -- wrappers -------------------------------------------------------

    def _schedule(self, real, delay, payload):
        kind = payload[0]
        if kind == "net_deliver" or kind == "net_redeliver":
            seq = payload[1]
            self.wire[seq] = self.wire.get(seq, 0) + 1
            if kind == "net_deliver":  # the first copy: a new send
                self.open[seq] = (payload[3], self.sim._now)
        real(delay, payload)

    def _loss_draw(self, real):
        lost = real()
        self._draws.append(lost)
        return lost

    def _dispatch(self, real, payload):
        self._depth += 1
        try:
            real(payload)
        finally:
            self._depth -= 1
        if self._depth:
            self._inner.append(payload)  # the channel dispatching a payload
        else:
            self._between_events()

    def _land(self, real, seq, src, dst, payload):
        sim = self.sim
        result = sim.result
        left = self.wire[seq] - 1
        if left:
            self.wire[seq] = left
        else:
            del self.wire[seq]
        acked = seq not in self.open and seq in self.delivered
        cut = self.model.cut_between(src, dst)
        up = sim.site_id_is_up(dst)
        draws, inner = len(self._draws), len(self._inner)
        dropped, duplicates = result.net_dropped, result.net_duplicates
        real(seq, src, dst, payload)
        # The copy's own loss draw is the first one it made (none when
        # the cut ate it).
        if cut or self._draws[draws] or not up:
            want = "dropped"
        elif seq in self.delivered:
            want = "suppressed"
        else:
            want = "dispatched"
            self.delivered.add(seq)
        got = []
        if result.net_dropped > dropped:
            got.append("dropped")
        if result.net_duplicates > duplicates:
            got.append("suppressed")
        if any(p is payload for p in self._inner[inner:]):
            got.append("dispatched")
        del self._inner[inner:]
        if got != [want]:
            self.fate_mismatches.append((sim._now, seq, want, got))
        self.fates[want] += 1
        if want == "suppressed" and acked:
            self.late_duplicates += 1

    def _ack(self, real, seq, src, dst):
        cut = self.model.cut_between(src, dst)
        draws = len(self._draws)
        real(seq, src, dst)
        if not (cut or self._draws[draws]):
            self.open.pop(seq, None)

    def _retransmit(self, real, seq, n):
        sim = self.sim
        if seq in self.open and not (
            sim.has_uncommitted() or sim._retained_total > 0
        ):
            del self.open[seq]
            self.drains += 1
        real(seq, n)

    def _age(self, real, dst, now):
        got = real(dst, now)
        sent = [t for d, t in self.open.values() if d == dst]
        want = now - min(sent) if sent else 0.0
        if got != want:
            self.age_mismatches.append((now, dst, got, want))
        self.age_queries += 1
        return got

    # -- the per-event check --------------------------------------------

    def _between_events(self):
        live = self.open.keys() | self.wire.keys()
        if len(live) > self.peak:
            self.peak = len(live)
        held = self.channel.messages.keys()
        if len(held) > self.max_held:
            self.max_held = len(held)
        if held != live and len(self.held_mismatches) < 3:
            self.held_mismatches.append(
                (self.sim._now, sorted(held - live), sorted(live - held))
            )

    def report(self) -> dict:
        """What the run showed, as plain data (the sim is dropped)."""
        live = self.open.keys() | self.wire.keys()
        return {
            "held_mismatches": self.held_mismatches,
            "final_held": sorted(self.channel.messages),
            "final_live": sorted(live),
            "peak": self.peak,
            "max_held": self.max_held,
            "fate_mismatches": self.fate_mismatches[:3],
            "fates": self.fates,
            "late_duplicates": self.late_duplicates,
            "drains": self.drains,
            "age_mismatches": self.age_mismatches[:3],
            "age_queries": self.age_queries,
        }


def fire_leftovers(sim):
    """Dispatch the events a finished run left queued, in time order.

    ``run()`` stops as soon as no work is left, so a retransmission
    timer never fires after that point inside it; firing the leftovers
    sends every open message down the drain path and lands every copy
    still on the wire.
    """
    queue = sim._queue
    while queue:
        sim._now, payload = queue.pop()
        sim._registry.dispatch(payload)


def observe(sim, leftovers=False) -> dict:
    shadow = ChannelShadow(sim)
    sim.run()
    if leftovers:
        fire_leftovers(sim)
    return shadow.report()


@functools.lru_cache(maxsize=None)
def battery(protocol, replica) -> tuple:
    """Reports of every chaos-battery run of one protocol pair."""
    return tuple(observe(sim) for sim in chaos_simulators(protocol, replica))


def stack_chaos(seed, arrivals=250):
    """``stack-chaos``'s shape, shortened: paxos-commit, quorum reads,
    a lossy network, write-ahead logs and crashes, open arrivals."""
    spec = WorkloadSpec(
        n_entities=24, n_sites=6, entities_per_txn=(2, 3),
        actions_per_entity=(0, 1), hotspot_skew=0.4, read_fraction=0.3,
        replication_factor=3,
    )
    return Simulator(
        TransactionSystem([]),
        "wound-wait",
        SimulationConfig(
            arrival_rate=0.2, max_transactions=arrivals, warmup_time=50.0,
            workload=spec, seed=seed, workload_seed=seed,
            network_delay=0.5, commit_protocol="paxos-commit",
            commit_fault_tolerance=1, replica_protocol="quorum",
            network=NetworkConfig(loss_rate=0.02, dup_rate=0.01, jitter=0.2),
            durability=DurabilityConfig(flush_time=0.2),
            failure_rate=0.001, repair_time=8.0,
        ),
    )


def battery_shaped(protocol, seed, network, failure_rate=0.0):
    """The chaos battery's workload over quorum replicas."""
    return Simulator(
        random_system(random.Random(7), SPEC),
        "wound-wait",
        SimulationConfig(
            seed=seed, workload=SPEC, commit_protocol=protocol,
            replica_protocol="quorum", network_delay=0.5,
            commit_timeout=6.0, failure_rate=failure_rate,
            repair_time=8.0, network=network,
        ),
    )


#: duplicates that routinely land after the ack: ``dup_rate`` 0.4 and
#: jitter three times the link delay
LATE_DUPLICATES = NetworkConfig(loss_rate=0.1, dup_rate=0.4, jitter=1.5)
#: lossy enough, with timers short enough against its jitter, that
#: sends are still open, with copies on the wire, when the work is done
DRAINED = NetworkConfig(
    loss_rate=0.4, dup_rate=0.5, jitter=3.0,
    retransmit_timeout=0.5, retransmit_cap=2.0,
)


@functools.lru_cache(maxsize=None)
def special(name) -> tuple:
    if name == "stack-chaos":
        return tuple(observe(stack_chaos(seed)) for seed in range(2))
    if name == "late-duplicates":
        return tuple(
            observe(battery_shaped(protocol, seed, LATE_DUPLICATES))
            for protocol in ("two-phase", "paxos-commit")
            for seed in range(2)
        )
    return tuple(
        observe(
            battery_shaped(protocol, seed, DRAINED, failure_rate=0.01),
            leftovers=True,
        )
        for protocol in ("two-phase", "paxos-commit")
        for seed in range(3)
    )


SPECIAL = ("stack-chaos", "late-duplicates", "drained")
PAIRS = [(p, r) for p in protocol_names() for r in replica_control_names()]


def all_reports():
    for pair in PAIRS:
        yield from battery(*pair)
    for name in SPECIAL:
        yield from special(name)


class TestHeldRecords:
    """1. The channel holds the in-flight window, not the history."""

    @pytest.mark.parametrize("protocol, replica", PAIRS)
    def test_battery_holds_open_or_on_the_wire(self, protocol, replica):
        for report in battery(protocol, replica):
            self._holds_live(report)

    @pytest.mark.parametrize("name", SPECIAL)
    def test_special_runs_hold_open_or_on_the_wire(self, name):
        for report in special(name):
            self._holds_live(report)

    @staticmethod
    def _holds_live(report):
        assert report["held_mismatches"] == []
        assert report["final_held"] == report["final_live"]
        assert report["max_held"] <= report["peak"]

    def test_stack_chaos_keeps_a_small_window(self):
        for report in special("stack-chaos"):
            landed = sum(report["fates"].values())
            assert len(report["final_held"]) <= 10
            assert report["peak"] < 100
            assert landed > 50 * report["peak"]

    def test_leftovers_leave_nothing(self):
        for report in special("drained"):
            assert report["final_held"] == []


class TestFates:
    """2. Every copy meets the never-forgetting oracle's fate."""

    @pytest.mark.parametrize("protocol, replica", PAIRS)
    def test_battery_fates(self, protocol, replica):
        for report in battery(protocol, replica):
            assert report["fate_mismatches"] == []

    @pytest.mark.parametrize("name", SPECIAL)
    def test_special_fates(self, name):
        for report in special(name):
            assert report["fate_mismatches"] == []

    def test_every_fate_occurs(self):
        totals = dict.fromkeys(("dropped", "dispatched", "suppressed"), 0)
        for report in all_reports():
            for fate, n in report["fates"].items():
                totals[fate] += n
        assert all(totals.values()), totals

    def test_duplicates_land_after_the_ack(self):
        assert all(
            report["late_duplicates"] > 0
            for report in special("late-duplicates")
        )

    def test_drain_path_runs(self):
        assert all(report["drains"] > 0 for report in special("drained"))

    def test_drained_send_delivered_late_keeps_its_duplicate(self):
        # A send the drain path closed while its copy was on the wire:
        # the copy lands fresh and the network duplicates it. Landing
        # forgets the record (closed, no copy out), so the duplicate
        # must put it back, and then be suppressed.
        sim = Simulator(
            TransactionSystem([]),
            "wound-wait",
            SimulationConfig(network=NetworkConfig(dup_rate=0.5)),
        )
        calls = []
        sim.register_handler("late_msg", lambda: calls.append(sim._now))
        model = sim.network
        channel = model.channel
        channel.send(0, 1, 0.5, ("late_msg",))
        assert not sim.has_uncommitted()  # nothing to run: drain
        channel.on_retransmit(0, 1)
        assert not channel.messages[0].open
        model.dup_draw = lambda: True
        channel.on_deliver(0, 0, 1, ("late_msg",))
        assert len(calls) == 1
        assert channel.messages[0].copies == 1
        model.dup_draw = lambda: False
        channel.on_redeliver(0, 0, 1, ("late_msg",))
        assert len(calls) == 1
        assert sim.result.net_duplicates == 1
        assert channel.messages == {}


class TestSuspicionAges:
    """3. ``oldest_unacked_age`` gives the oracle's answer."""

    @pytest.mark.parametrize("protocol, replica", PAIRS)
    def test_battery_ages(self, protocol, replica):
        for report in battery(protocol, replica):
            assert report["age_mismatches"] == []

    @pytest.mark.parametrize("name", SPECIAL)
    def test_special_ages(self, name):
        for report in special(name):
            assert report["age_mismatches"] == []

    def test_suspicion_is_asked(self):
        assert sum(r["age_queries"] for r in all_reports()) > 100


class TestTotalLoss:
    def test_unacked_for_a_thousand_resends_ends_truncated(self):
        # Every copy is lost, so the first cross-site message is resent
        # until max_time: past the 1,024th resend, backoff ** n leaves
        # the float range and the pause must stay at the cap.
        sim = Simulator(
            TransactionSystem([]),
            "wound-wait",
            SimulationConfig(
                arrival_rate=0.5, max_transactions=20,
                commit_protocol="two-phase", network_delay=0.5,
                network=NetworkConfig(loss_rate=1.0),
            ),
        )
        result = sim.run()
        assert result.truncated
        assert result.net_delivered == 0
        assert result.net_retransmits > 1024
        assert result.end_time <= sim.config.max_time
