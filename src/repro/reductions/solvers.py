"""SAT solvers for the reduction experiments.

Two independent deciders — exhaustive truth-table search and DPLL with
unit propagation and pure-literal elimination — cross-validated against
each other in the tests and used as the satisfiability side of the
Theorem 2 equivalence experiments.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.reductions.cnf import CnfFormula, Literal

__all__ = ["brute_force_satisfiable", "count_models", "dpll_solve"]


def brute_force_satisfiable(formula: CnfFormula) -> dict[str, bool] | None:
    """Truth-table search; returns a satisfying assignment or None.

    Exponential in the variable count; fine for the ≤ 20-variable
    instances of the experiments.
    """
    variables = formula.variables
    n = len(variables)
    for bits in range(1 << n):
        assignment = {
            variables[j]: bool(bits >> j & 1) for j in range(n)
        }
        if formula.evaluate(assignment):
            return assignment
    return None


def count_models(formula: CnfFormula) -> int:
    """Number of satisfying assignments (truth-table enumeration)."""
    variables = formula.variables
    n = len(variables)
    count = 0
    for bits in range(1 << n):
        assignment = {
            variables[j]: bool(bits >> j & 1) for j in range(n)
        }
        if formula.evaluate(assignment):
            count += 1
    return count


def dpll_solve(formula: CnfFormula) -> dict[str, bool] | None:
    """DPLL with unit propagation and pure-literal elimination.

    Returns:
        A satisfying assignment (total over the formula's variables), or
        None when unsatisfiable.

    Each clause is kept as a tuple in formula order, repeats dropped,
    so the pure literal and the branch literal are picked in that order
    and the answer, its key order included, is the same under every
    ``PYTHONHASHSEED`` (a set's iteration order follows string hashes).
    """
    clauses = [tuple(dict.fromkeys(clause)) for clause in formula.clauses]
    assignment = _dpll(clauses, {})
    if assignment is None:
        return None
    # Complete the partial assignment over untouched variables.
    for variable in formula.variables:
        assignment.setdefault(variable, True)
    return assignment


def _simplify(
    clauses: list[tuple[Literal, ...]], variable: str, value: bool
) -> list[tuple[Literal, ...]] | None:
    """Apply one assignment; None signals an emptied clause (conflict)."""
    result = []
    for clause in clauses:
        satisfied = False
        kept = []
        for lit in clause:
            if lit.variable == variable:
                if lit.positive == value:
                    satisfied = True
                    break
            else:
                kept.append(lit)
        if satisfied:
            continue
        if not kept:
            return None
        result.append(tuple(kept))
    return result


def _dpll(
    clauses: list[tuple[Literal, ...]], assignment: dict[str, bool]
) -> dict[str, bool] | None:
    while True:
        if not clauses:
            return dict(assignment)

        # Unit propagation.
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is not None:
            lit = unit[0]
            simplified = _simplify(clauses, lit.variable, lit.positive)
            if simplified is None:
                return None
            assignment[lit.variable] = lit.positive
            clauses = simplified
            continue

        # Pure-literal elimination.
        polarity: dict[str, set[bool]] = {}
        for clause in clauses:
            for lit in clause:
                polarity.setdefault(lit.variable, set()).add(lit.positive)
        pure = next(
            (
                (variable, next(iter(signs)))
                for variable, signs in polarity.items()
                if len(signs) == 1
            ),
            None,
        )
        if pure is not None:
            variable, value = pure
            simplified = _simplify(clauses, variable, value)
            if simplified is None:  # pragma: no cover - pure can't conflict
                return None
            assignment[variable] = value
            clauses = simplified
            continue

        # Branch on the first variable of the first clause.
        lit = clauses[0][0]
        for value in (lit.positive, not lit.positive):
            simplified = _simplify(clauses, lit.variable, value)
            if simplified is None:
                continue
            branch = dict(assignment)
            branch[lit.variable] = value
            solved = _dpll(simplified, branch)
            if solved is not None:
                return solved
        return None
