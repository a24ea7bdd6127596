"""Chaos conformance: invariants every protocol must hold under an
adversarial network ("jepsen-lite").

Parametrized over ``protocol_names()`` x ``replica_control_names()`` —
a protocol added to either registry is automatically under test. Each
cell runs a replicated workload through message loss, duplication,
jitter, scripted and Poisson partitions, and (in one configuration)
composed site crashes, then asserts the invariants chaos is not
allowed to break:

* atomicity: every transaction ends committed exactly once — no
  half-aborted instances, no split-brain double commit, and the
  latency ledgers agree with the instance states;
* lock-table drain: a finished run leaves every site's lock table
  empty (retransmission chains and partition episodes terminate);
* ``aborts_by_cause`` partitions ``aborts`` exactly — chaos-induced
  aborts are attributed, never silently dropped;
* the message ledger balances: every physical copy put on the wire is
  delivered, dropped, or suppressed as a duplicate, with the remainder
  still in flight at the end of the run, and every accepted copy was
  acked.

The degradation tests pin the headline behaviour: through a partition
a majority-quorum system keeps committing while a ROWA/2PC system
stalls, and after the heal both converge (retransmissions deliver,
missed replicas catch up, every transaction commits).
"""

import random

import pytest

from repro.core.system import TransactionSystem
from repro.sim.commit import protocol_names
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.replication import replica_control_names
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

SPEC = WorkloadSpec(
    n_transactions=30,
    n_entities=10,
    n_sites=4,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.6,
    read_fraction=0.3,
    replication_factor=3,
)


def chaos_configs():
    """The adversarial-network variants each cell must survive."""
    yield "lossy", NetworkConfig(
        loss_rate=0.15, dup_rate=0.1, jitter=0.3
    ), 0.0
    yield "partitioned", NetworkConfig(
        loss_rate=0.05,
        partition_schedule=((8.0, 25.0, ("s0",)), (60.0, 20.0, ("s2", "s3"))),
    ), 0.0
    yield "composed", NetworkConfig(
        loss_rate=0.1, dup_rate=0.05, jitter=0.2, partition_rate=0.01,
        partition_duration=15.0,
    ), 0.01


def chaos_simulators(protocol, replica):
    """Yield an unrun simulator for every cell of the matrix."""
    system = random_system(random.Random(7), SPEC)
    for _name, network, failure_rate in chaos_configs():
        for seed in range(2):
            yield Simulator(
                system,
                "wound-wait",
                SimulationConfig(
                    seed=seed,
                    workload=SPEC,
                    commit_protocol=protocol,
                    replica_protocol=replica,
                    network_delay=0.5,
                    commit_timeout=6.0,
                    failure_rate=failure_rate,
                    repair_time=8.0,
                    network=network,
                ),
            )


def chaos_runs(protocol, replica):
    """Yield (sim, result) for every completed cell of the matrix."""
    for sim in chaos_simulators(protocol, replica):
        result = sim.run()
        assert not result.truncated
        assert not result.deadlocked
        yield sim, result


@pytest.mark.parametrize("replica", replica_control_names())
@pytest.mark.parametrize("protocol", protocol_names())
class TestChaosConformance:
    def test_atomicity_and_final_states(self, protocol, replica):
        for sim, result in chaos_runs(protocol, replica):
            statuses = [inst.status for inst in sim._instances]
            assert all(status is _COMMITTED for status in statuses)
            assert result.committed == result.total == len(statuses)
            assert len(result.latencies) == result.committed
            assert len(result.commit_latencies) == result.committed
            for inst in sim._instances:
                assert inst.retained == set()
                assert inst.waiting == {}

    def test_locks_drain_at_end(self, protocol, replica):
        for sim, _result in chaos_runs(protocol, replica):
            for name, site in sim._sites.items():
                assert site.involved() == [], (protocol, replica, name)

    def test_aborts_by_cause_partition(self, protocol, replica):
        for _sim, result in chaos_runs(protocol, replica):
            assert sum(result.aborts_by_cause.values()) == result.aborts

    def test_message_ledger_balances(self, protocol, replica):
        saw_chaos = False
        for _sim, result in chaos_runs(protocol, replica):
            assert result.net_sent == (
                result.net_delivered
                + result.net_dropped
                + result.net_duplicates
                + result.net_inflight
            )
            # Every accepted copy — fresh or suppressed — was acked.
            assert result.net_acks == (
                result.net_delivered + result.net_duplicates
            )
            assert result.net_inflight >= 0
            assert result.net_retransmits <= result.net_sent
            if result.net_dropped > 0 or result.net_duplicates > 0:
                saw_chaos = True
        # The battery actually exercised the adversary.
        assert saw_chaos


class TestChaosWithDurability:
    """The full stack: lossy partitioned network, site crashes, and a
    faulty disk (tail loss on every crash) — composed, the invariants
    must still hold and recovery must actually run."""

    PROTOCOLS = [p for p in protocol_names() if p != "instant"]

    def _run(self, protocol, seed):
        system = random_system(random.Random(7), SPEC)
        sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=seed,
                workload=SPEC,
                commit_protocol=protocol,
                replica_protocol="quorum",
                network_delay=0.5,
                commit_timeout=6.0,
                failure_rate=0.01,
                repair_time=8.0,
                network=NetworkConfig(
                    loss_rate=0.1, dup_rate=0.05, jitter=0.2,
                    partition_rate=0.01, partition_duration=15.0,
                ),
                durability=DurabilityConfig(
                    flush_time=0.5, tail_loss_rate=0.3,
                    torn_write_rate=0.1,
                ),
            ),
        )
        result = sim.run()
        return sim, result

    def test_composed_faults_hold_invariants(self):
        saw_replay = False
        for protocol in self.PROTOCOLS:
            for seed in range(3):
                sim, result = self._run(protocol, seed)
                tag = (protocol, seed)
                assert not result.truncated, tag
                statuses = [inst.status for inst in sim._instances]
                assert all(s is _COMMITTED for s in statuses), tag
                assert result.committed == result.total, tag
                for inst in sim._instances:
                    assert inst.retained == set(), tag
                for name, site in sim._sites.items():
                    assert site.involved() == [], tag + (name,)
                assert sim.durability.in_doubt() == set(), tag
                assert (
                    sum(result.aborts_by_cause.values()) == result.aborts
                ), tag
                assert result.log_forces > 0, tag
                if result.log_replays > 0:
                    saw_replay = True
        # The battery exercised crash-recovery replay, not just forces.
        assert saw_replay


class TestNetworkConfigValidation:
    @pytest.mark.parametrize("field", ["loss_rate", "dup_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_bounded(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["jitter", "partition_rate", "partition_duration"]
    )
    def test_negatives_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: -1.0})

    @pytest.mark.parametrize(
        "field", ["retransmit_timeout", "retransmit_cap", "suspect_timeout"]
    )
    def test_zero_timers_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: 0.0})

    def test_backoff_below_one_rejected(self):
        with pytest.raises(ValueError, match="retransmit_backoff"):
            NetworkConfig(retransmit_backoff=0.5)

    @pytest.mark.parametrize(
        "episode",
        [(-1.0, 5.0, ("s0",)), (1.0, 0.0, ("s0",)), (1.0, 5.0, ())],
    )
    def test_bad_episodes_rejected(self, episode):
        with pytest.raises(ValueError, match="partition"):
            NetworkConfig(partition_schedule=(episode,))

    def test_default_config_is_inert(self):
        config = NetworkConfig()
        assert not config.enabled
        assert not config.partitions_possible


class TestWiring:
    def test_inert_config_attaches_nothing(self):
        system = random_system(random.Random(7), SPEC)
        sim = Simulator(
            system, "wound-wait",
            SimulationConfig(workload=SPEC, network=NetworkConfig()),
        )
        assert sim.network is None

    def test_enabled_config_attaches(self):
        system = random_system(random.Random(7), SPEC)
        sim = Simulator(
            system, "wound-wait",
            SimulationConfig(
                workload=SPEC, network_delay=0.5,
                network=NetworkConfig(loss_rate=0.1),
            ),
        )
        assert sim.network is not None
        result = sim.run()
        assert result.net_sent > 0

    def test_partition_side_must_be_proper_subset(self):
        system = random_system(random.Random(7), SPEC)
        with pytest.raises(ValueError, match="proper subset"):
            Simulator(
                system, "wound-wait",
                SimulationConfig(
                    workload=SPEC,
                    network=NetworkConfig(
                        partition_schedule=(
                            (1.0, 5.0, ("s0", "s1", "s2", "s3")),
                        )
                    ),
                ),
            )

    def test_partition_counters(self):
        system = random_system(random.Random(7), SPEC)
        sim = Simulator(
            system, "wound-wait",
            SimulationConfig(
                workload=SPEC, network_delay=0.5, seed=1,
                network=NetworkConfig(
                    partition_schedule=((5.0, 20.0, ("s0",)),)
                ),
            ),
        )
        result = sim.run()
        assert result.partitions == 1
        assert result.partition_time == pytest.approx(20.0)


def _window_commits(sim, start, stop):
    return sum(
        1 for inst in sim._instances if start <= inst.commit_time <= stop
    )


class TestGracefulDegradation:
    """Majority sides ride through a partition; ROWA/2PC stalls."""

    START, DURATION = 10.0, 60.0

    def _run(self, protocol, replica, seed=5):
        spec = WorkloadSpec(
            n_transactions=40,
            n_entities=10,
            n_sites=5,
            entities_per_txn=(2, 3),
            actions_per_entity=(0, 1),
            hotspot_skew=0.5,
            read_fraction=0.3,
            replication_factor=3,
        )
        system = random_system(random.Random(11), spec)
        sim = Simulator(
            system,
            "wound-wait",
            SimulationConfig(
                seed=seed,
                workload=spec,
                commit_protocol=protocol,
                replica_protocol=replica,
                network_delay=0.5,
                commit_timeout=6.0,
                network=NetworkConfig(
                    partition_schedule=(
                        (self.START, self.DURATION, ("s0",)),
                    )
                ),
            ),
        )
        result = sim.run()
        return sim, result

    def test_quorum_commits_through_partition(self):
        sim, result = self._run("paxos-commit", "quorum")
        stop = self.START + self.DURATION
        # The majority side kept deciding while the cut was up...
        assert _window_commits(sim, self.START, stop) > 0
        # ...and the run converged after the heal: everything commits.
        assert result.committed == result.total

    def test_rowa_two_phase_degrades_harder(self):
        quorum_sims = self._run("paxos-commit", "quorum")
        rowa_sims = self._run("two-phase", "rowa")
        stop = self.START + self.DURATION
        q = _window_commits(quorum_sims[0], self.START, stop)
        r = _window_commits(rowa_sims[0], self.START, stop)
        # ROWA writes need every replica, and 2PC cannot decide without
        # all participants: strictly fewer in-partition commits.
        assert q > r
        # No wrong answers either way: both converge post-heal.
        assert quorum_sims[1].committed == quorum_sims[1].total
        assert rowa_sims[1].committed == rowa_sims[1].total

    def test_partition_stall_is_attributed_not_fatal(self):
        _sim, result = self._run("two-phase", "rowa")
        # The stall shows up as unavailable aborts and retransmissions,
        # never as truncation or leftover state.
        assert not result.truncated
        assert result.net_retransmits > 0
        assert sum(result.aborts_by_cause.values()) == result.aborts
