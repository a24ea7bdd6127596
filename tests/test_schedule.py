"""Unit tests for repro.core.schedule."""

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.prefix import SystemPrefix
from repro.core.schedule import IllegalScheduleError, Schedule
from repro.core.system import GlobalNode, TransactionSystem

from tests.helpers import seq


def system2() -> TransactionSystem:
    schema = DatabaseSchema.single_site(["x", "y"])
    return TransactionSystem(
        [
            seq("T1", ["Lx", "Ux", "Ly", "Uy"], schema),
            seq("T2", ["Lx", "Ux"], schema),
        ]
    )


class TestValidation:
    def test_valid_interleaving(self):
        system = system2()
        s = Schedule(
            system,
            [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3)],
        )
        assert s.is_complete()

    def test_lock_conflict_rejected(self):
        system = system2()
        with pytest.raises(IllegalScheduleError) as info:
            Schedule(system, [(0, 0), (1, 0)])
        assert "holds" in str(info.value)

    def test_precedence_violation_rejected(self):
        system = system2()
        with pytest.raises(IllegalScheduleError):
            Schedule(system, [(0, 1)])  # Ux before Lx

    def test_repeat_rejected(self):
        system = system2()
        with pytest.raises(IllegalScheduleError):
            Schedule(system, [(0, 0), (0, 0)])

    def test_bad_indices_rejected(self):
        system = system2()
        with pytest.raises(IllegalScheduleError):
            Schedule(system, [(5, 0)])
        with pytest.raises(IllegalScheduleError):
            Schedule(system, [(0, 99)])

    def test_relock_after_unlock_allowed(self):
        system = system2()
        s = Schedule(system, [(0, 0), (0, 1), (1, 0)])
        assert s.lock_sequence("x") == [0, 1]


class TestConstructors:
    def test_serial(self):
        system = system2()
        s = Schedule.serial(system)
        assert s.is_complete()
        assert s.is_serial()

    def test_serial_order(self):
        system = system2()
        s = Schedule.serial(system, [1, 0])
        assert s.steps[0].txn == 1

    def test_serial_prefixes(self):
        system = system2()
        prefix = SystemPrefix(system, [0b0011, 0b01])
        s = Schedule.serial_prefixes(prefix)
        assert len(s) == 3
        assert s.prefix() == prefix


class TestQueries:
    def test_prefix_roundtrip(self):
        system = system2()
        s = Schedule(system, [(0, 0), (0, 1), (1, 0)])
        prefix = s.prefix()
        assert prefix.masks == (0b0011, 0b01)

    def test_is_serial_false_for_interleaved(self):
        system = system2()
        s = Schedule(
            system, [(0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (1, 1)]
        )
        assert not s.is_serial()

    def test_subsequence(self):
        system = system2()
        s = Schedule(system, [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)])
        assert s.subsequence_of(0) == [0, 1, 2]
        assert s.subsequence_of(1) == [0, 1]

    def test_extended(self):
        system = system2()
        s = Schedule(system, [(0, 0)])
        s2 = s.extended([(0, 1)])
        assert len(s2) == 2
        assert len(s) == 1  # original untouched

    def test_extended_validates(self):
        system = system2()
        s = Schedule(system, [(0, 0)])
        with pytest.raises(IllegalScheduleError):
            s.extended([(1, 0)])

    def test_describe(self):
        system = system2()
        s = Schedule(system, [(0, 0)])
        assert s.describe() == "L1x"

    def test_iteration_yields_global_nodes(self):
        system = system2()
        s = Schedule(system, [(0, 0), (0, 1)])
        assert list(s) == [GlobalNode(0, 0), GlobalNode(0, 1)]


def step_forms(pairs):
    """The same steps as ``(txn, node)`` pairs, as GlobalNodes, and as a
    one-shot generator (the form the simulator's verdict passes)."""
    return {
        "pairs": list(pairs),
        "global nodes": [GlobalNode(txn, node) for txn, node in pairs],
        "generator": (pair for pair in list(pairs)),
    }


class TestStepForms:
    """A schedule is the same whatever form its steps arrive in."""

    INTERLEAVED = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3)]

    def test_views_agree(self):
        system = system2()
        views = []
        for steps in step_forms(self.INTERLEAVED).values():
            s = Schedule(system, steps)
            views.append((
                s.steps,
                len(s),
                s.describe(),
                s.prefix().masks,
                s.lock_sequences(),
            ))
        assert views[0] == views[1] == views[2]
        steps, length = views[0][:2]
        assert all(type(step) is GlobalNode for step in steps)
        assert steps == tuple(self.INTERLEAVED) and length == 6

    @pytest.mark.parametrize(
        "illegal",
        [
            [(0, 0), (1, 0)],  # lock conflict
            [(0, 0), (0, 2)],  # precedence
            [(0, 0), (0, 1), (0, 0)],  # repeat
            [(0, 0), (2, 0)],  # transaction out of range
            [(1, 0), (1, 5)],  # node out of range
        ],
    )
    def test_illegal_sequences_raise_the_same_error(self, illegal):
        system = system2()
        messages = set()
        for steps in step_forms(illegal).values():
            with pytest.raises(IllegalScheduleError) as info:
                Schedule(system, steps)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
        assert messages.pop().startswith(f"step {len(illegal) - 1}:")
