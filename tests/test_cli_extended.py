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
        ],
    )
    def test_config_range_errors(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and message in err
        assert not list(tmp_path.iterdir())
