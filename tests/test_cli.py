"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.textfmt import format_system
from repro.paper import figures

SAFE_SYSTEM = """
schema s1: x y

txn T1
  seq Lx Ly Uy Ux
end

txn T2
  seq Lx Ly Ux Uy
end
"""

UNSAFE_SYSTEM = """
schema s1: x y

txn T1
  seq Lx Ly Ux Uy
end

txn T2
  seq Ly Lx Uy Ux
end
"""


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.txn"
    path.write_text(SAFE_SYSTEM)
    return str(path)


@pytest.fixture
def unsafe_file(tmp_path):
    path = tmp_path / "unsafe.txn"
    path.write_text(UNSAFE_SYSTEM)
    return str(path)


class TestAnalyze:
    def test_safe(self, safe_file, capsys):
        assert main(["analyze", safe_file]) == 0
        out = capsys.readouterr().out
        assert "SAFE AND DEADLOCK-FREE" in out

    def test_unsafe(self, unsafe_file, capsys):
        assert main(["analyze", unsafe_file]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out


class TestDeadlock:
    def test_deadlock_found(self, unsafe_file, capsys):
        assert main(["deadlock", unsafe_file]) == 1
        out = capsys.readouterr().out
        assert "DEADLOCK" in out
        assert "cycle" in out

    def test_deadlock_free(self, safe_file, capsys):
        assert main(["deadlock", safe_file]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free" in out
        assert "Theorem 1 agrees" in out


class TestSimulate:
    def test_table_printed(self, unsafe_file, capsys):
        code = main(
            [
                "simulate", unsafe_file,
                "--policies", "wound-wait", "wait-die",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wound-wait" in out and "wait-die" in out


class TestSat:
    def test_satisfiable_formula(self, capsys):
        code = main(["sat", "x1 x2, x1 ~x2, ~x1 x2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAT" in out
        assert "deadlock prefix" in out
        assert "decoded back" in out

    def test_unsat_formula(self, capsys):
        code = main(["sat", "a, a, ~a"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UNSAT" in out


class TestFigures:
    def test_runs(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Tirri" in out
        assert "Figure 6" in out


class TestRoundTripThroughCli:
    def test_figure_file_analyzable(self, tmp_path, capsys):
        path = tmp_path / "fig1.txn"
        path.write_text(format_system(figures.figure1()))
        main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert "T3" in out


REPO = Path(__file__).resolve().parent.parent


def quick_start_commands() -> list[tuple[str, int]]:
    """README's quick-start ``repro`` commands with their documented
    exit codes (a trailing ``# ... exits N ...`` comment; 0 otherwise)."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if " -m repro " not in command:
            continue
        code = re.search(r"exits (\d)", comment)
        commands.append((command.strip(), int(code[1]) if code else 0))
    return commands


class TestReadmeQuickStart:
    def test_example_file_lines_give_their_documented_exit_codes(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO)
        lines = [
            (command, code)
            for command, code in quick_start_commands()
            if "examples.txn" in command
        ]
        assert [code for _command, code in lines] == [1, 0]
        for command, code in lines:
            argv = shlex.split(command.split(" -m repro ", 1)[1])
            assert main(argv) == code, command
        assert "Theorem 3" in capsys.readouterr().out


class TestRunBudget:
    """A run budget of zero or less is a usage error, like any other
    out-of-range run setting, not a run that commits nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", str(REPO / "examples.txn"),
             "--policies", "wound-wait", "--max-time", "-1"],
            ["simulate", "--arrival-rate", "0.5",
             "--max-transactions", "10", "--max-time", "0"],
            ["sweep", "--serial", "--policies", "wound-wait",
             "--arrival-rates", "0.5", "--seeds", "0",
             "--max-transactions", "10", "--max-time", "-5"],
        ],
    )
    def test_non_positive_max_time_exits_2(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{argv[0]}: max_time must be > 0")
        assert not list(tmp_path.iterdir())


class TestNegativeSetting:
    @pytest.mark.parametrize(
        "flag, field",
        [("--warmup", "warmup_time"),
         ("--commit-fault-tolerance", "commit_fault_tolerance")],
    )
    def test_negative_setting_exits_2(self, capsys, flag, field):
        # A negative warm-up would stretch the measurement window past
        # the run, and Paxos Commit has no negative F to run with.
        argv = ["simulate", str(REPO / "examples.txn"), flag, "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"simulate: {field} must be >= 0")


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "command",
        ["analyze", "deadlock", "simulate", "show", "repair", "trace"],
    )
    def test_missing_file_is_a_usage_error(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.txn"
        assert main([command, str(missing)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            f"{command}: cannot read {missing}: No such file or directory\n"
        )

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("analyze: cannot read ")
