"""The open-system engine: arrivals, run-until, steady-state metrics."""

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.prefix import SystemPrefix
from repro.core.system import TransactionSystem
from repro.core.transaction import Transaction
from repro.io.dot import system_to_dot
from repro.sim.arrivals import ArrivalProcess, ArrivalStream
from repro.sim.runtime import SimulationConfig, Simulator, simulate
from repro.sim.workload import CompiledWorkload, WorkloadSpec

SPEC = WorkloadSpec(
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
)


def open_config(**overrides) -> SimulationConfig:
    defaults = dict(
        arrival_rate=1.0,
        max_transactions=40,
        workload=SPEC,
        seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def empty() -> TransactionSystem:
    return TransactionSystem([])


class TestInjection:
    def test_injects_exactly_the_budget(self):
        result = simulate(empty(), "wound-wait", open_config())
        assert result.injected == 40
        assert result.total == 40
        assert result.committed == 40
        assert not result.truncated

    def test_zero_rate_creates_no_arrival_process(self):
        sim = Simulator(empty(), "wound-wait", SimulationConfig())
        assert sim.arrivals is None

    def test_arrival_process_rejects_zero_rate(self):
        sim = Simulator(empty(), "wound-wait", SimulationConfig())
        with pytest.raises(ValueError, match="arrival_rate"):
            ArrivalProcess(sim)

    def test_max_time_horizon_bounds_injection(self):
        config = open_config(max_transactions=0, max_time=30.0)
        result = simulate(empty(), "wound-wait", config)
        assert 0 < result.injected < 200
        assert result.total == result.injected

    def test_unique_names_even_against_the_closed_batch(self):
        schema = DatabaseSchema.single_site(["x"], site="s0")
        batch = TransactionSystem(
            [Transaction.sequential("TX1", ["Lx", "Ux"], schema)]
        )
        sim = Simulator(batch, "wound-wait", open_config())
        result = sim.run()
        assert result.total == 41  # 1 batch + 40 injected
        assert result.injected == 40
        names = [t.name for t in sim.system]
        assert len(set(names)) == len(names)
        assert "TX1'" in names

    def test_batch_placement_wins_for_shared_entity_names(self):
        # Generated workloads name entities e0..eN; replaying one as
        # the seed batch must not conflict with the arrival pool's own
        # e0..eN placement — the batch's sites win and the arrivals
        # contend with the batch on the shared entities.
        schema = DatabaseSchema.single_site(["e0", "e1"], site="zzz")
        batch = TransactionSystem(
            [Transaction.sequential("B1", ["Le0", "Le1", "Ue0", "Ue1"],
                                    schema)]
        )
        sim = Simulator(batch, "wound-wait", open_config())
        assert sim.arrivals.schema.site_of("e0") == "zzz"
        result = sim.run()
        assert result.committed == result.total == 41

    def test_closed_batch_participates_in_the_open_run(self):
        schema = DatabaseSchema.single_site(["x"], site="s0")
        batch = TransactionSystem(
            [Transaction.sequential("B1", ["Lx", "A.x", "Ux"], schema)]
        )
        result = simulate(batch, "wound-wait", open_config())
        assert result.committed == result.total == 41
        assert result.latencies[0] >= 0  # the batch transaction too


class TestDeterminism:
    def test_same_config_same_result(self):
        config = open_config(failure_rate=0.02, repair_time=5.0)
        first = simulate(empty(), "wound-wait", config)
        second = simulate(empty(), "wound-wait", config)
        assert first == second

    def test_seed_changes_traffic_but_not_schema(self):
        a = Simulator(empty(), "wound-wait", open_config(seed=1))
        b = Simulator(empty(), "wound-wait", open_config(seed=2))
        assert a.arrivals.schema == b.arrivals.schema
        assert a.run() != b.run()

    def test_workload_seed_changes_schema(self):
        a = Simulator(empty(), "wound-wait", open_config())
        b = Simulator(
            empty(), "wound-wait", open_config(workload_seed=9)
        )
        assert a.arrivals.schema != b.arrivals.schema


class TestArrivalStream:
    """Runs that derive one key may share one stream; a stream built
    for another key is refused, never silently read."""

    @staticmethod
    def colliding_batch() -> TransactionSystem:
        # Closed-batch names that collide with the arrivals' TXn names.
        schema = DatabaseSchema.single_site(["x"], site="s0")
        return TransactionSystem([
            Transaction.sequential(name, ["Lx", "A.x", "Ux"], schema)
            for name in ("TX1", "TX3")
        ])

    def test_shared_stream_run_equals_own_stream_run(self, monkeypatch):
        batch = self.colliding_batch()
        config = open_config(failure_rate=0.02, repair_time=5.0)
        stream = ArrivalStream(batch, config)
        shared = []
        generated = []
        real_generate = CompiledWorkload.generate

        def generate(self, name, rng, entities=None):
            generated.append(name)
            return real_generate(self, name, rng, entities)

        monkeypatch.setattr(CompiledWorkload, "generate", generate)
        for policy in ("wound-wait", "wait-die", "detect"):
            sim = Simulator(batch, policy, config, stream=stream)
            shared.append(sim.run())
            assert {"TX1'", "TX3'"} <= {t.name for t in sim.system}
        # Generated once, for all three runs.
        assert len(generated) == 40
        monkeypatch.undo()
        assert shared == [
            simulate(batch, policy, config)
            for policy in ("wound-wait", "wait-die", "detect")
        ]

    def test_transaction_i_does_not_depend_on_the_reader(self):
        config = open_config()
        first, second = ArrivalStream(empty(), config), ArrivalStream(
            empty(), config
        )
        late = second[7]  # generated out of order, from the same seed
        assert [t.name for t in (first[7], late)] == ["TX8", "TX8"]
        assert first[7].ops == late.ops
        assert first[7].dag.arcs == late.dag.arcs
        assert first[7] is first[7]

    @pytest.mark.parametrize(
        "other",
        [
            dict(seed=1),
            dict(workload=WorkloadSpec(n_entities=9, n_sites=3)),
            dict(workload_seed=9),
        ],
        ids=["seed", "workload", "workload_seed"],
    )
    def test_stream_for_another_config_is_refused(self, other):
        stream = ArrivalStream(empty(), open_config())
        with pytest.raises(ValueError, match="another run"):
            Simulator(empty(), "wound-wait", open_config(**other),
                      stream=stream)

    def test_stream_for_another_base_batch_is_refused(self):
        stream = ArrivalStream(empty(), open_config())
        with pytest.raises(ValueError, match="another run"):
            Simulator(self.colliding_batch(), "wound-wait", open_config(),
                      stream=stream)

    def test_closed_run_refuses_a_stream(self):
        stream = ArrivalStream(empty(), open_config())
        with pytest.raises(ValueError, match="closed run"):
            Simulator(empty(), "wound-wait", SimulationConfig(),
                      stream=stream)

    def test_reuse_keeps_a_matching_stream_only(self):
        config = open_config()
        stream = ArrivalStream(empty(), config)
        same = dict(arrival_rate=0.3, failure_rate=0.1, repair_time=5.0,
                    commit_protocol="two-phase")
        assert ArrivalStream.reuse(
            stream, empty(), open_config(**same)
        ) is stream
        fresh = ArrivalStream.reuse(stream, empty(), open_config(seed=4))
        assert fresh is not stream
        assert fresh.key == ArrivalStream.key_of(empty(), open_config(seed=4))


class TestRunUntil:
    def test_detection_chain_survives_idle_gaps_between_arrivals(self):
        # A slow trickle: the detector must keep scanning while the
        # arrival process is live even if everything injected so far
        # has committed (has_uncommitted stays True).
        config = open_config(arrival_rate=0.05, max_transactions=12)
        result = simulate(empty(), "detect", config)
        assert result.committed == result.total == 12

    def test_all_policies_drain_the_budget(self):
        for policy in ("wound-wait", "wait-die", "timeout", "detect"):
            result = simulate(empty(), policy, open_config())
            assert result.committed == result.total == 40, policy

    def test_two_phase_commit_in_the_open_system(self):
        config = open_config(
            commit_protocol="two-phase", network_delay=0.5
        )
        result = simulate(empty(), "wound-wait", config)
        assert result.committed == result.total == 40
        assert result.commit_messages > 0
        assert result.latency_percentiles("commit")["p95"] > 0

    def test_failures_in_the_open_system(self):
        config = open_config(
            max_transactions=60, failure_rate=0.03, repair_time=5.0
        )
        result = simulate(empty(), "wound-wait", config)
        assert result.committed == result.total == 60
        assert result.crashes > 0


class TestSteadyStateMetrics:
    def test_warmup_window_restricts_measurement(self):
        config = open_config(max_transactions=80, warmup_time=25.0)
        result = simulate(empty(), "wound-wait", config)
        assert result.warmup_time == 25.0
        assert 0 < result.measured_committed < result.committed
        assert result.steady_throughput > 0
        assert result.mean_inflight > 0
        assert result.measured_duration == pytest.approx(
            result.end_time - 25.0
        )

    def test_percentiles_are_ordered_and_windowed(self):
        config = open_config(max_transactions=80, warmup_time=25.0)
        result = simulate(empty(), "wound-wait", config)
        p = result.latency_percentiles("total")
        assert 0 < p["p50"] <= p["p95"] <= p["p99"]
        unwindowed = [lat for lat in result.latencies if lat >= 0]
        windowed = result._window_latencies(result.latencies)
        assert len(windowed) < len(unwindowed)

    def test_open_summary_table_renders(self):
        from repro.sim.metrics import SimulationResult

        result = simulate(empty(), "wound-wait", open_config())
        table = SimulationResult.open_summary_table([result])
        assert "thruput" in table and "p99" in table


class TestOpenSystemWrapper:
    """An open run keeps its arrivals in its stream alone: ``sim.system``
    is the caller's batch until the run ends, and then the batch
    followed by every arrival, read back from the stream."""

    @staticmethod
    def batch() -> TransactionSystem:
        schema = DatabaseSchema.single_site(["x", "y"], site="s0")
        return TransactionSystem([
            Transaction.sequential("B1", ["Lx", "Ly", "Ux", "Uy"], schema),
            Transaction.sequential("B2", ["Ly", "A.y", "Uy"], schema),
        ])

    def test_system_is_the_batch_until_the_run_ends(self):
        batch = self.batch()
        sim = Simulator(batch, "wound-wait", open_config())
        assert sim.system is batch
        sim.run()
        assert sim.system is not batch

    def test_after_the_run_it_is_the_batch_then_the_arrivals(self):
        batch = self.batch()
        config = open_config()
        sim = Simulator(batch, "wound-wait", config)
        result = sim.run()
        system = sim.system
        assert isinstance(system, TransactionSystem)
        assert len(system) == len(batch) + result.injected == 42
        assert system[0] is batch[0] and system[1] is batch[1]
        stream = ArrivalStream(batch, config)
        for j, t in enumerate(system[len(batch):]):
            arrival = stream[j]
            assert t.name == arrival.name == f"TX{j + 1}"
            assert t.ops == arrival.ops
            assert list(t.dag.arcs) == list(arrival.dag.arcs)
        assert system.schema == sim.schema
        assert {"x", "y"} < system.entities <= set(sim.schema.entities)

    def test_committed_schedule_replays(self):
        sim = Simulator(self.batch(), "wound-wait", open_config())
        result = sim.run()
        assert result.committed == result.total == 42
        # The committed trace replays over the batch and the arrivals.
        schedule = sim.committed_schedule()
        assert {step.txn for step in schedule.steps} == set(range(42))

    def test_static_queries_on_the_arrived_transactions(self):
        # Arrivals are built on the trusted path, with their closure
        # deferred; the static tools must read it like a validated one.
        config = open_config(
            arrival_rate=0.5,
            max_transactions=4,
            workload=WorkloadSpec(n_entities=6, n_sites=3),
            seed=1,
        )
        sim = Simulator(empty(), "wound-wait", config)
        sim.run()
        validated = TransactionSystem([
            Transaction(t.name, t.ops, t.dag.arcs, t.schema, t.read_set)
            for t in sim.system
        ])
        assert system_to_dot(sim.system) == system_to_dot(validated)
        complete = SystemPrefix.complete(sim.system)
        assert complete.masks == SystemPrefix.complete(validated).masks
