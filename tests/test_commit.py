"""Tests for the atomic-commit subsystem (repro.sim.commit)."""

import pytest

from repro.cli import main
from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim.commit import (
    CommitProtocol,
    InstantCommit,
    PaxosCommit,
    PresumedAbortCommit,
    TwoPhaseCommit,
    make_protocol,
    protocol_names,
)
from repro.sim.runtime import (
    _ABORTED,
    _PREPARED,
    _RUNNING,
    SimulationConfig,
    Simulator,
    simulate,
)

from tests.helpers import seq

TWO_SITE_SCHEMA = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})


def deadlock_pair() -> TransactionSystem:
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ly", "Ux", "Uy"], TWO_SITE_SCHEMA),
            seq("T2", ["Ly", "Lx", "Uy", "Ux"], TWO_SITE_SCHEMA),
        ]
    )


def shared_x_pair() -> TransactionSystem:
    schema = DatabaseSchema.from_groups({"s1": ["x"]})
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ux"], schema),
            seq("T2", ["Lx", "Ux"], schema),
        ]
    )


class TestRegistry:
    def test_names(self):
        assert protocol_names() == [
            "instant", "paxos-commit", "presumed-abort", "two-phase"
        ]

    def test_make_protocol(self):
        assert isinstance(make_protocol("instant"), InstantCommit)
        assert isinstance(make_protocol("two-phase"), TwoPhaseCommit)
        assert isinstance(
            make_protocol("presumed-abort"), PresumedAbortCommit
        )
        assert isinstance(make_protocol("paxos-commit"), PaxosCommit)

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="unknown commit protocol"):
            make_protocol("three-phase")

    def test_unknown_protocol_in_config(self):
        config = SimulationConfig(commit_protocol="nope")
        with pytest.raises(KeyError):
            Simulator(deadlock_pair(), "blocking", config)

    def test_base_protocol_is_abstract(self):
        proto = CommitProtocol()
        with pytest.raises(NotImplementedError):
            proto.on_execution_complete(None)


class TestInstant:
    def test_instant_has_no_commit_phase(self):
        result = simulate(
            deadlock_pair(),
            "wound-wait",
            SimulationConfig(seed=1, commit_protocol="instant"),
        )
        assert result.committed == 2
        assert result.commit_messages == 0
        assert result.prepared_block_time == 0.0
        assert all(lat == 0.0 for lat in result.commit_latencies)
        assert result.latencies == [
            e + c
            for e, c in zip(
                result.exec_latencies, result.commit_latencies
            )
        ]


class TestTwoPhase:
    def test_commits_with_exact_message_count(self):
        # Each transaction spans both sites: one completed round costs
        # PREPARE + VOTE + COMMIT + ACK per participant = 8 messages.
        result = simulate(
            deadlock_pair(),
            "wound-wait",
            SimulationConfig(
                seed=1, commit_protocol="two-phase", network_delay=0.25
            ),
        )
        assert result.committed == 2
        assert result.serializable is True
        assert result.commit_messages == 16

    def test_commit_latency_is_one_round_trip(self):
        delay = 0.25
        result = simulate(
            deadlock_pair(),
            "wound-wait",
            SimulationConfig(
                seed=1, commit_protocol="two-phase", network_delay=delay
            ),
        )
        # Decision lands when the remote participant's vote arrives.
        assert result.commit_latencies == [2 * delay, 2 * delay]
        for total, exec_, commit in zip(
            result.latencies,
            result.exec_latencies,
            result.commit_latencies,
        ):
            assert total == pytest.approx(exec_ + commit)

    @pytest.mark.parametrize(
        "policy", ["blocking", "wound-wait", "wait-die", "timeout",
                   "detect"]
    )
    @pytest.mark.parametrize("protocol", ["two-phase", "presumed-abort"])
    def test_all_policies_commit_and_serialize(self, policy, protocol):
        for s in range(6):
            result = simulate(
                deadlock_pair(),
                policy,
                SimulationConfig(
                    seed=s, commit_protocol=protocol, network_delay=0.5
                ),
            )
            if policy == "blocking" and result.deadlocked:
                continue  # the paper's regime: blocking may wedge
            assert result.committed == 2, f"{policy} seed {s}"
            assert result.serializable is True

    def test_locks_drain_at_end(self):
        sim = Simulator(
            deadlock_pair(),
            "wound-wait",
            SimulationConfig(
                seed=3, commit_protocol="two-phase", network_delay=0.5
            ),
        )
        result = sim.run()
        assert result.committed == 2
        for site in sim._sites.values():
            assert site.involved() == []

    def test_retained_locks_block_later_requests(self):
        """Under 2PC a conflicting request waits out the PREPARED
        window of the holder even though the Unlock already executed:
        T2's Lx is blocked for T1's commit round trip to site s2."""
        schema = DatabaseSchema.from_groups({"s1": ["x"], "s2": ["y"]})
        system = TransactionSystem(
            [
                seq("T1", ["Lx", "Ly", "Ux", "Uy"], schema),
                seq("T2", ["Lx", "Ux"], schema),
            ]
        )
        blocked = 0.0
        for s in range(10):
            result = simulate(
                system,
                "blocking",
                SimulationConfig(
                    seed=s, commit_protocol="two-phase",
                    network_delay=1.0,
                ),
            )
            assert result.committed == 2
            assert not result.deadlocked
            blocked += result.prepared_block_time
        assert blocked > 0.0


class TestPreparedWindow:
    def _prepared_simulator(self) -> Simulator:
        sim = Simulator(
            shared_x_pair(),
            "wound-wait",
            SimulationConfig(
                commit_protocol="two-phase", network_delay=1.0
            ),
        )
        holder = sim.instance(1)
        holder.timestamp = 5.0  # younger than the requester below
        x, s1 = sim.entity_id("x"), sim.site_id("s1")
        site = sim._site_for_entity("x")
        site.request(1, x)
        sim.mark_prepared(holder)
        holder.lock_sites[x] = (s1,)
        holder.retained.add((x, s1))
        sim._retained_total += 1
        return sim

    def test_wound_wait_does_not_wound_prepared_holder(self):
        sim = self._prepared_simulator()
        requester = sim.instance(0)
        requester.timestamp = 1.0  # older: would normally wound
        sim._request_lock(requester, sim.system[0].lock_node("x"))
        assert sim.instance(1).status == _PREPARED
        assert sim.result.wounds == 0
        assert sim.result.prepared_blocks == 1
        assert [key[0] for key in requester.waiting] == [sim.entity_id("x")]

    def test_no_wound_on_committed_holder_awaiting_release(self):
        """After the commit decision the holder is _COMMITTED but its
        cm_release may still be in flight: it is just as unwoundable
        as a prepared holder, and the conflict counts as a prepared
        block, not a wound."""
        sim = self._prepared_simulator()
        holder = sim.instance(1)
        sim.finish_commit(holder)  # decision taken, release in flight
        assert {e for e, _s in holder.retained} == {sim.entity_id("x")}
        requester = sim.instance(0)
        requester.timestamp = 1.0  # older: would normally wound
        sim._request_lock(requester, sim.system[0].lock_node("x"))
        assert sim.result.wounds == 0
        assert sim.result.prepared_blocks == 1
        assert [key[0] for key in requester.waiting] == [sim.entity_id("x")]

    def test_release_retained_charges_blocked_time(self):
        sim = self._prepared_simulator()
        requester = sim.instance(0)
        requester.timestamp = 1.0
        sim._request_lock(requester, sim.system[0].lock_node("x"))
        holder = sim.instance(1)
        sim._now = 7.5  # decision arrives later
        sim.finish_commit(holder)
        sim.release_retained(holder)
        assert sim._site_for_entity("x").holder(sim.entity_id("x")) == 0
        assert not holder.retained
        assert sim.result.prepared_block_time == pytest.approx(7.5)

    def test_abort_from_commit_restarts_transaction(self):
        sim = self._prepared_simulator()
        holder = sim.instance(1)
        sim.abort_from_commit(holder)
        assert holder.status == _ABORTED
        assert holder.retained == set()
        assert sim._site_for_entity("x").holder(sim.entity_id("x")) is None
        assert sim.result.commit_aborts == 1
        assert sim.result.aborts == 1

    def test_abort_from_commit_ignores_unprepared(self):
        sim = self._prepared_simulator()
        runner = sim.instance(0)
        assert runner.status == _RUNNING
        sim.abort_from_commit(runner)
        assert runner.status == _RUNNING
        assert sim.result.commit_aborts == 0


class TestAckAccounting:
    def test_ack_counted_at_delivery_not_at_decision(self):
        """The regression: the commit decision used to charge every
        participant's ACK the instant the decision was taken, crediting
        acknowledgements from a participant that was *down* and had not
        even received the decision. The ACK now lands when the
        participant actually processes ``cm_release``."""
        from repro.sim.commit.twophase import _Round

        sim = Simulator(
            deadlock_pair(),
            "wound-wait",
            SimulationConfig(
                commit_protocol="two-phase", network_delay=0.5
            ),
        )
        # Make site_is_up() consult the per-site flags (no injector).
        sim.failures = object()
        proto = sim.commit
        round = _Round(0, "s1", frozenset({"s1", "s2"}))
        round.votes = {"s1", "s2"}
        proto._rounds[0] = round
        inst = sim.instance(0)
        sim.mark_prepared(inst)
        sim._mark_site("s2", False)  # participant down at decision time

        proto._decide(0, round, "commit", proto._apply_commit)
        # Exactly the two RELEASE sends — no ACK from anyone yet, and
        # in particular none from the crashed s2.
        assert sim.result.commit_messages == 2

        proto._on_release(0, "s1", 0)
        assert sim.result.commit_messages == 3  # s1's ACK

        proto._on_release(0, "s2", 0)
        # s2 is down: the decision is retransmitted (one message), but
        # still no ACK — the participant never saw it.
        assert sim.result.commit_messages == 4

        sim._mark_site("s2", True)
        proto._on_release(0, "s2", 0)
        assert sim.result.commit_messages == 5  # s2's ACK, at delivery


class TestPresumedAbort:
    def test_presumed_abort_is_a_two_phase_variant(self):
        proto = make_protocol("presumed-abort")
        assert isinstance(proto, TwoPhaseCommit)
        assert proto.notify_on_abort is False
        assert proto.retains_locks is True

    def test_same_decisions_fewer_messages_under_failures(self):
        """PA makes identical decisions at identical times but skips
        the abort round, so it never sends more messages than 2PC."""
        base = dict(network_delay=0.5, failure_rate=0.02,
                    repair_time=8.0)
        tp_msgs = pa_msgs = commit_aborts = 0
        for s in range(8):
            tp = simulate(
                deadlock_pair(), "wound-wait",
                SimulationConfig(
                    seed=s, commit_protocol="two-phase", **base
                ),
            )
            pa = simulate(
                deadlock_pair(), "wound-wait",
                SimulationConfig(
                    seed=s, commit_protocol="presumed-abort", **base
                ),
            )
            assert pa.committed == tp.committed
            assert pa.latencies == tp.latencies
            tp_msgs += tp.commit_messages
            pa_msgs += pa.commit_messages
            commit_aborts += tp.commit_aborts
        assert pa_msgs <= tp_msgs
        if commit_aborts:
            assert pa_msgs < tp_msgs


class TestCommitCli:
    def test_simulate_with_commit_flags(self, tmp_path, capsys):
        path = tmp_path / "pair.txn"
        path.write_text(
            "schema s1: x\nschema s2: y\n\n"
            "txn T1\n  seq Lx Ly Ux Uy\nend\n\n"
            "txn T2\n  seq Ly Lx Uy Ux\nend\n"
        )
        code = main(
            [
                "simulate", str(path),
                "--policies", "wound-wait",
                "--commit", "instant", "two-phase", "presumed-abort",
                "--network-delay", "0.5",
                "--failure-rate", "0.01",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "two-phase" in out
        assert "presumed-abort" in out
        assert "c-latency" in out
