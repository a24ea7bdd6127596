"""Unit tests for repro.reductions.solvers."""

import random

from repro.reductions.cnf import CnfFormula, random_three_sat_prime
from repro.reductions.solvers import (
    brute_force_satisfiable,
    count_models,
    dpll_solve,
)


class TestBruteForce:
    def test_sat(self):
        f = CnfFormula.from_lists([["x", "y"], ["~x"]])
        assignment = brute_force_satisfiable(f)
        assert assignment is not None
        assert f.evaluate(assignment)

    def test_unsat(self):
        f = CnfFormula.from_lists([["x"], ["~x"]])
        assert brute_force_satisfiable(f) is None

    def test_count_models(self):
        f = CnfFormula.from_lists([["x", "y"]])
        assert count_models(f) == 3

    def test_count_models_unsat(self):
        f = CnfFormula.from_lists([["a"], ["a"], ["~a"]])
        assert count_models(f) == 0


class TestDpll:
    def test_sat_returns_satisfying_total_assignment(self):
        f = CnfFormula.from_lists(
            [["x1", "x2"], ["x1", "~x2"], ["~x1", "x2"]]
        )
        assignment = dpll_solve(f)
        assert assignment is not None
        assert set(assignment) == set(f.variables)
        assert f.evaluate(assignment)

    def test_unsat(self):
        f = CnfFormula.from_lists([["a"], ["a"], ["~a"]])
        assert dpll_solve(f) is None

    def test_unit_propagation_chain(self):
        f = CnfFormula.from_lists(
            [["x"], ["~x", "y"], ["~y", "z"]]
        )
        assignment = dpll_solve(f)
        assert assignment == {"x": True, "y": True, "z": True}

    def test_pure_literal(self):
        f = CnfFormula.from_lists([["x", "y"], ["x", "~y"]])
        assignment = dpll_solve(f)
        assert assignment is not None and assignment["x"] is True

    def test_agrees_with_brute_force_random(self):
        rng = random.Random(17)
        for trial in range(40):
            f = random_three_sat_prime(rng.randint(3, 6), rng)
            bf = brute_force_satisfiable(f) is not None
            dp = dpll_solve(f) is not None
            assert bf == dp, f"trial {trial}: {f}"


class TestDpllPinnedAnswers:
    """``dpll_solve`` answers the same under every ``PYTHONHASHSEED``.

    The pins, key order included, come from the solver that keeps each
    clause as a tuple in formula order; a solver that walks its clauses
    as sets picks its pure and branch literals in hash order, and fails
    them under at least one of CI's two fixed hash seeds.
    """

    def test_figure5_formula(self):
        from repro.paper.figures import figure5_formula

        assignment = dpll_solve(figure5_formula())
        assert list(assignment.items()) == [("x1", True), ("x2", True)]

    def test_random_three_sat_prime(self):
        formula = random_three_sat_prime(4, random.Random(2024))
        assignment = dpll_solve(formula)
        assert list(assignment.items()) == [
            ("x1", True), ("x2", False), ("x3", True), ("x4", True),
        ]
