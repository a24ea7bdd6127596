"""Tests for the show/repair CLI subcommands and simulator options."""

import pytest

from repro.cli import main
from repro.io.textfmt import parse_system

BROKEN = """
schema s1: x y

txn T1
  seq Lx Ly Ux Uy
end

txn T2
  seq Ly Lx Uy Ux
end
"""


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.txn"
    path.write_text(BROKEN)
    return str(path)


class TestShow:
    def test_text(self, broken_file, capsys):
        assert main(["show", broken_file]) == 0
        out = capsys.readouterr().out
        assert "txn T1" in out
        parse_system(out)  # output is valid input

    def test_json(self, broken_file, capsys):
        assert main(["show", broken_file, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"transactions"' in out

    def test_dot(self, broken_file, capsys):
        assert main(["show", broken_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")


class TestRepair:
    def test_repair_output_is_certified(self, broken_file, capsys):
        assert main(["repair", broken_file]) == 0
        out = capsys.readouterr().out
        assert "# repaired" in out
        body = "\n".join(
            line for line in out.splitlines()
            if not line.startswith("#")
        )
        repaired = parse_system(body)
        from repro.analysis.fixed_k import check_system

        assert check_system(repaired)

    def test_repair_with_optimize(self, broken_file, capsys):
        assert main(["repair", broken_file, "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "early-unlock" in out

    def test_repair_noop_when_safe(self, tmp_path, capsys):
        path = tmp_path / "safe.txn"
        path.write_text(
            "txn T1\n  seq Lx Ly Uy Ux\nend\n"
            "txn T2\n  seq Lx Ly Ux Uy\nend\n"
        )
        assert main(["repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no repair needed" in out


class TestSimulateNetworkDelay:
    def test_flag_accepted(self, broken_file, capsys):
        code = main(
            [
                "simulate", broken_file,
                "--policies", "wound-wait",
                "--network-delay", "2.5",
            ]
        )
        assert code == 0
        assert "wound-wait" in capsys.readouterr().out


class TestSimulateOpenSystem:
    ARGS = [
        "simulate", "--arrival-rate", "1.0", "--max-transactions", "30",
        "--warmup", "5", "--entities", "8", "--sites", "3",
        "--policies", "wound-wait",
    ]

    def test_file_optional_with_arrival_rate(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "thruput" in out
        assert "p99" in out
        assert "30/30" in out

    def test_file_required_without_arrival_rate(self, capsys):
        assert main(["simulate", "--policies", "wound-wait"]) == 2
        assert "--arrival-rate" in capsys.readouterr().err

    def test_file_seeds_the_open_run(self, broken_file, capsys):
        # The file goes before the nargs="+" flags so argparse cannot
        # swallow it into --policies.
        assert main([self.ARGS[0], broken_file, *self.ARGS[1:]]) == 0
        out = capsys.readouterr().out
        assert "32/32" in out  # 2 batch transactions + 30 arrivals

    def test_closed_mode_table_unchanged(self, broken_file, capsys):
        assert main(
            ["simulate", broken_file, "--policies", "wound-wait"]
        ) == 0
        out = capsys.readouterr().out
        assert "serializable" in out  # closed-batch table, not open

    def check_grid_streams(self, monkeypatch, runs):
        # Run i of every cell of a policy x protocol grid injects seed
        # i's arrivals: the grid generates each seed's stream once, and
        # each of its results equals a lone run of that cell and seed.
        from repro.sim.runtime import Simulator
        from repro.sim.workload import CompiledWorkload

        results, generated = [], []
        real_run = Simulator.run
        real_generate = CompiledWorkload.generate

        def run(sim):
            results.append(real_run(sim))
            return results[-1]

        def generate(self, name, rng, entities=None):
            generated.append(name)
            return real_generate(self, name, rng, entities)

        monkeypatch.setattr(Simulator, "run", run)
        monkeypatch.setattr(CompiledWorkload, "generate", generate)
        base = self.ARGS[:-2]
        policies, protocols = ["wound-wait", "wait-die"], [
            "instant", "two-phase"
        ]
        assert main([
            *base, "--policies", *policies, "--commit", *protocols,
            "--runs", str(runs),
        ]) == 0
        grid = list(results)
        assert len(grid) == 4 * runs
        assert len(generated) == 30 * runs
        results.clear()
        for policy in policies:
            for protocol in protocols:
                for seed in range(runs):
                    assert main([
                        *base, "--policies", policy, "--commit", protocol,
                        "--seed", str(seed),
                    ]) == 0
        assert results == grid

    def test_grid_shares_its_stream(self, monkeypatch):
        self.check_grid_streams(monkeypatch, runs=1)

    def test_replicated_grid_shares_each_seed_stream(self, monkeypatch):
        self.check_grid_streams(monkeypatch, runs=2)


class TestSweep:
    ARGS = [
        "sweep", "--policies", "wound-wait", "wait-die",
        "--arrival-rates", "0.5", "1.0", "--seeds", "0", "1",
        "--max-transactions", "25", "--warmup", "5",
        "--entities", "8", "--sites", "3", "--serial",
    ]

    def test_grid_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 cells" in out
        assert out.count("wound-wait") == 4  # one row per cell
        assert "thruput" in out

    def test_json_and_csv_output(self, tmp_path, capsys):
        import csv
        import json

        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        assert main(
            [*self.ARGS, "--json", str(json_path), "--csv", str(csv_path)]
        ) == 0
        document = json.loads(json_path.read_text())
        assert len(document["cells"]) == 8
        with open(csv_path, newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 8

    def test_closed_batch_cells(self, capsys):
        assert main([
            "sweep", "--policies", "wound-wait",
            "--arrival-rates", "0", "--seeds", "0",
            "--batch", "5", "--entities", "8", "--sites", "3",
            "--serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "5/5" in out


class TestRunFlags:
    """simulate and sweep share one declaration of their run flags."""

    def test_unknown_names_are_usage_errors(self, capsys):
        for argv in (
            ["simulate", "--arrival-rate", "0.5", "--max-transactions",
             "5", "--policies", "bogus"],
            ["sweep", "--commit", "bogus"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
            assert "invalid choice: 'bogus'" in err

    def test_registered_names_parse(self, monkeypatch):
        from repro.cli import build_parser
        from repro.sim.commit import base
        from repro.sim.replication import protocols

        monkeypatch.setitem(
            base._PROTOCOLS, "custom-commit", base._PROTOCOLS["two-phase"]
        )
        monkeypatch.setitem(
            protocols._PROTOCOLS, "custom-replica",
            protocols._PROTOCOLS["rowa"],
        )
        args = build_parser().parse_args([
            "sweep", "--commit", "custom-commit",
            "--replica-protocols", "custom-replica",
        ])
        assert args.commit == ["custom-commit"]
        assert args.replica_protocols == ["custom-replica"]

    def test_sweep_base_carries_the_run_flags(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--policies", "wound-wait", "--commit", "two-phase",
            "--arrival-rates", "0.5", "--seeds", "0",
            "--max-transactions", "10", "--network-delay", "0.5",
            "--flush-time", "0.3", "--tail-loss-rate", "0.1",
            "--commit-timeout", "3", "--catchup-time", "2",
            "--serial", "--json", str(path),
        ]) == 0
        base = json.loads(path.read_text())["spec"]["base"]
        assert base["durability"]["flush_time"] == 0.3
        assert base["durability"]["tail_loss_rate"] == 0.1
        assert base["commit_timeout"] == 3.0
        assert base["catchup_time"] == 2.0
        assert base["network_delay"] == 0.5
        assert base["max_transactions"] == 10
        # The cells take their workload from the spec, not from base.
        assert base["workload"] is None


class TestFlagsSetFields:
    """Each run flag sets its config field, and a flag left out keeps
    the field's library default unless the CLI names its own."""

    # The CLI's own workload defaults: a larger generated database.
    CLI_WORKLOAD = {"n_transactions": 8, "n_entities": 16, "n_sites": 4}

    @pytest.fixture
    def built(self, monkeypatch):
        """What ``main`` hands the simulator and the sweep runner."""
        import repro.experiments
        import repro.sim.runtime
        from repro.sim.metrics import SimulationResult

        calls = []

        class RecordingSimulator:
            observe = None

            def __init__(self, system, policy, config, stream=None):
                self.policy = policy
                calls.append((policy, config))

            def run(self):
                return SimulationResult(self.policy)

        def record_sweep(spec, processes=None, parallel=True):
            calls.append((spec, processes, parallel))
            return [SimulationResult(cell.policy) for cell in spec.cells()]

        monkeypatch.setattr(repro.sim.runtime, "Simulator", RecordingSimulator)
        monkeypatch.setattr(repro.experiments, "run_sweep", record_sweep)
        return calls

    def test_simulate_defaults(self, built):
        from repro.sim.runtime import SimulationConfig
        from repro.sim.workload import WorkloadSpec

        assert main(["simulate", "--arrival-rate", "0.5"]) == 0
        expected = SimulationConfig(
            arrival_rate=0.5, workload=WorkloadSpec(**self.CLI_WORKLOAD)
        )
        assert built == [
            (policy, expected)
            for policy in ("blocking", "wound-wait", "wait-die", "detect")
        ]

    def test_nested_defaults(self, built, tmp_path, monkeypatch):
        from repro.sim.durability import DurabilityConfig
        from repro.sim.network import NetworkConfig
        from repro.sim.observe import ObserveConfig
        from repro.sim.runtime import SimulationConfig
        from repro.sim.workload import WorkloadSpec

        monkeypatch.chdir(tmp_path)
        assert main([
            "simulate", "--arrival-rate", "0.5", "--policies", "detect",
            "--trace-jsonl", "T.jsonl", "--metrics-out", "M.json",
            "--flight-recorder", "F", "--flush-time", "0.25",
            "--loss-rate", "0.1",
        ]) == 0
        assert built == [(
            "detect",
            SimulationConfig(
                arrival_rate=0.5,
                workload=WorkloadSpec(**self.CLI_WORKLOAD),
                observe=ObserveConfig(
                    trace=True, metrics_window=25.0, flight_recorder="F"
                ),
                network=NetworkConfig(loss_rate=0.1),
                durability=DurabilityConfig(flush_time=0.25),
            ),
        )]

    def test_sweep_defaults(self, built):
        from repro.experiments import SweepSpec
        from repro.sim.runtime import SimulationConfig
        from repro.sim.workload import WorkloadSpec

        assert main(["sweep", "--serial"]) == 0
        expected = SweepSpec(
            arrival_rates=(0.5, 1.0),
            workload=WorkloadSpec(**self.CLI_WORKLOAD),
            base=SimulationConfig(max_transactions=200),
        )
        assert built == [(expected, None, False)]

    def test_every_simulate_flag(self, built, tmp_path, monkeypatch):
        from repro.sim.durability import DurabilityConfig
        from repro.sim.network import NetworkConfig
        from repro.sim.observe import ObserveConfig
        from repro.sim.runtime import SimulationConfig
        from repro.sim.workload import WorkloadSpec

        monkeypatch.chdir(tmp_path)
        assert main([
            "simulate", "--policies", "wait-die", "--commit", "paxos-commit",
            # SimulationConfig
            "--max-time", "500", "--network-delay", "0.5",
            "--commit-timeout", "3", "--commit-fault-tolerance", "2",
            "--repair-time", "7", "--catchup-time", "4",
            "--max-transactions", "30", "--warmup", "5",
            "--workload-seed", "11", "--seed", "7", "--failure-rate", "0.01",
            "--replica-protocol", "quorum", "--arrival-rate", "0.25",
            # WorkloadSpec
            "--batch", "5", "--entities", "12", "--sites", "5",
            "--entities-per-txn", "1", "3", "--actions-per-entity", "1", "2",
            "--cross-arc-p", "0.5", "--shape", "two_phase",
            "--hotspot-skew", "0.3", "--read-fraction", "0.4",
            "--replication", "3",
            # NetworkConfig
            "--loss-rate", "0.05", "--dup-rate", "0.02", "--jitter", "0.2",
            "--partition-rate", "0.01", "--partition-duration", "15",
            "--partition-at", "40:25:s1,s2", "--partition-at", "90:5:s3",
            "--retransmit-timeout", "1.5",
            # DurabilityConfig
            "--flush-time", "0.25", "--tail-loss-rate", "0.3",
            "--torn-write-rate", "0.1", "--amnesia-rate", "0.05",
            # ObserveConfig
            "--trace-jsonl", "T.jsonl", "--metrics-out", "M.json",
            "--flight-recorder", "F", "--attribution",
            "--trace-capacity", "1000", "--metrics-window", "10",
            "--flight-events", "64", "--flight-cascade", "5",
            "--trace-sample", "3",
        ]) == 0
        assert built == [(
            "wait-die",
            SimulationConfig(
                max_time=500.0,
                network_delay=0.5,
                commit_protocol="paxos-commit",
                commit_timeout=3.0,
                commit_fault_tolerance=2,
                repair_time=7.0,
                catchup_time=4.0,
                max_transactions=30,
                warmup_time=5.0,
                workload_seed=11,
                seed=7,
                failure_rate=0.01,
                replica_protocol="quorum",
                arrival_rate=0.25,
                workload=WorkloadSpec(
                    n_transactions=5,
                    n_entities=12,
                    n_sites=5,
                    entities_per_txn=(1, 3),
                    actions_per_entity=(1, 2),
                    cross_arc_p=0.5,
                    shape="two_phase",
                    hotspot_skew=0.3,
                    read_fraction=0.4,
                    replication_factor=3,
                ),
                network=NetworkConfig(
                    loss_rate=0.05,
                    dup_rate=0.02,
                    jitter=0.2,
                    partition_rate=0.01,
                    partition_duration=15.0,
                    partition_schedule=(
                        (40.0, 25.0, ("s1", "s2")), (90.0, 5.0, ("s3",)),
                    ),
                    retransmit_timeout=1.5,
                ),
                durability=DurabilityConfig(
                    flush_time=0.25,
                    tail_loss_rate=0.3,
                    torn_write_rate=0.1,
                    amnesia_rate=0.05,
                ),
                observe=ObserveConfig(
                    trace=True,
                    trace_capacity=1000,
                    metrics_window=10.0,
                    flight_recorder="F",
                    flight_events=64,
                    flight_cascade_threshold=5,
                    attribution=True,
                    sample_every=3,
                ),
            ),
        )]

    def test_every_sweep_flag(self, built):
        from repro.experiments import SweepSpec
        from repro.sim.durability import DurabilityConfig
        from repro.sim.network import NetworkConfig
        from repro.sim.observe import ObserveConfig
        from repro.sim.runtime import SimulationConfig
        from repro.sim.workload import WorkloadSpec

        assert main([
            "sweep", "--serial", "--processes", "3",
            "--policies", "wait-die", "--commit", "two-phase", "paxos-commit",
            "--cell-metrics", "10", "--cell-attribution",
            # SweepSpec axes
            "--replica-protocols", "quorum", "rowa-available",
            "--arrival-rates", "0", "0.25", "--failure-rates", "0", "0.01",
            "--loss-rates", "0", "0.05", "--partition-rates", "0", "0.01",
            "--seeds", "4", "5",
            # NetworkConfig template of the chaos cells
            "--partition-duration", "15",
            # SimulationConfig
            "--max-time", "600", "--network-delay", "0.25",
            "--commit-timeout", "2", "--commit-fault-tolerance", "0",
            "--repair-time", "3", "--catchup-time", "1.5",
            "--max-transactions", "20", "--warmup", "2",
            "--workload-seed", "9",
            # WorkloadSpec
            "--batch", "6", "--entities", "10", "--sites", "2",
            "--entities-per-txn", "1", "2", "--actions-per-entity", "0", "2",
            "--cross-arc-p", "0.1", "--shape", "ordered_2pl",
            "--hotspot-skew", "0.5", "--read-fraction", "0.2",
            "--replication", "2",
            # DurabilityConfig
            "--flush-time", "0", "--tail-loss-rate", "0.2",
            "--torn-write-rate", "0.3", "--amnesia-rate", "0.1",
        ]) == 0
        expected = SweepSpec(
            policies=("wait-die",),
            protocols=("two-phase", "paxos-commit"),
            replica_protocols=("quorum", "rowa-available"),
            arrival_rates=(0.0, 0.25),
            failure_rates=(0.0, 0.01),
            loss_rates=(0.0, 0.05),
            partition_rates=(0.0, 0.01),
            seeds=(4, 5),
            workload=WorkloadSpec(
                n_transactions=6,
                n_entities=10,
                n_sites=2,
                entities_per_txn=(1, 2),
                actions_per_entity=(0, 2),
                cross_arc_p=0.1,
                shape="ordered_2pl",
                hotspot_skew=0.5,
                read_fraction=0.2,
                replication_factor=2,
            ),
            # The cells take their workload from the spec: base.workload
            # stays unset.
            base=SimulationConfig(
                max_time=600.0,
                network_delay=0.25,
                commit_timeout=2.0,
                commit_fault_tolerance=0,
                repair_time=3.0,
                catchup_time=1.5,
                max_transactions=20,
                warmup_time=2.0,
                workload_seed=9,
                observe=ObserveConfig(metrics_window=10.0, attribution=True),
                network=NetworkConfig(partition_duration=15.0),
                durability=DurabilityConfig(
                    flush_time=0.0,
                    tail_loss_rate=0.2,
                    torn_write_rate=0.3,
                    amnesia_rate=0.1,
                ),
            ),
        )
        assert built == [(expected, 3, False)]


class TestUsageErrors:
    """Bad observability and range flags exit 2 with a message, not a
    traceback, and write nothing."""

    OPEN = ["--arrival-rate", "0.5", "--max-transactions", "10"]

    @pytest.mark.parametrize("extra", [[], ["--trace-jsonl", "T.jsonl"]])
    def test_zero_metrics_window(self, tmp_path, monkeypatch, capsys, extra):
        monkeypatch.chdir(tmp_path)
        assert main([
            "simulate", *self.OPEN, "--metrics-out", "M.json",
            "--metrics-window", "0", *extra,
        ]) == 2
        assert "--metrics-window" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", *OPEN, "--trace-jsonl", "T.jsonl",
              "--trace-sample", "0"], "sample_every"),
            (["simulate", *OPEN, "--loss-rate", "1.5"], "loss_rate"),
            (["simulate", *OPEN, "--flush-time", "-1"], "flush_time"),
            (["sweep", "--serial", "--flush-time", "-1"], "flush_time"),
            (["sweep", "--serial", "--loss-rates", "1.5"], "loss_rate"),
            (["simulate", *OPEN, "--trace-out", "T.json",
              "--trace-capacity", "-1"], "trace_capacity"),
            (["simulate", *OPEN, "--flight-recorder", "F",
              "--flight-events", "-3"], "flight_events"),
            (["simulate", *OPEN, "--flight-recorder", "F",
              "--flight-cascade", "0"], "flight_cascade_threshold"),
            (["simulate", *OPEN, "--commit-timeout", "0"], "commit_timeout"),
            (["simulate", *OPEN, "--catchup-time", "0"], "catchup_time"),
            (["simulate", *OPEN, "--max-transactions", "-1",
              "--max-time", "50"], "max_transactions"),
            (["simulate", *OPEN, "--runs", "0"], "--runs"),
            (["sweep", "--processes", "0", "--policies", "wound-wait",
              "--arrival-rates", "0.5", "--seeds", "0",
              "--max-transactions", "10"], "--processes"),
        ],
    )
    def test_config_range_errors(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: ")
        assert message in captured.err
        assert not captured.out  # rejected before anything runs
        assert not list(tmp_path.iterdir())
