"""repro — deadlock-freedom and safety of distributed locked transactions.

A faithful, tested implementation of Wolfson & Yannakakis,
*Deadlock-Freedom (and Safety) of Transactions in a Distributed
Database* (PODS 1985; JCSS 33, 1986):

* the model of distributed locked transactions as partial orders
  (:mod:`repro.core`);
* the reduction-graph deadlock characterization (Theorem 1), the
  Theorem 3 O(n²) pair test, the Theorem 4 fixed-k test, the copies
  results (Corollary 3 / Theorem 5), the Lemma 2 centralized test, the
  minimal-prefix algorithm, and exhaustive oracles
  (:mod:`repro.analysis`);
* the Theorem 2 coNP-hardness construction with certificates in both
  directions (:mod:`repro.reductions`);
* a discrete-event distributed lock-scheduler simulator with classical
  runtime policies (:mod:`repro.sim`);
* executable reconstructions of the paper's figures
  (:mod:`repro.paper`).

Quickstart::

    from repro import Transaction, TransactionSystem, check_pair

    t1 = Transaction.sequential("T1", ["Lx", "A.x", "Ly", "Ux", "Uy"])
    t2 = Transaction.sequential("T2", ["Lx", "Ly", "A.y", "Uy", "Ux"])
    verdict = check_pair(t1, t2)
    print(bool(verdict), verdict.reason)
"""

import importlib

# Each top-level name and the module that defines it. The names load on
# first access (PEP 562), so importing one subpackage — the simulator,
# say — does not pay for the static analyses and reductions.
_EXPORTS = {
    **dict.fromkeys(
        (
            "PairViolation", "SerializationViolation", "Verdict",
            "check_centralized_pair", "check_copies", "check_pair",
            "check_pair_minimal_prefix", "check_system",
            "check_two_copies", "find_deadlock", "is_deadlock_free",
            "is_pair_safe_deadlock_free", "is_safe",
            "is_safe_and_deadlock_free", "repair_system",
            "tirri_check_pair",
        ),
        "repro.analysis",
    ),
    **dict.fromkeys(
        ("find_deadlock_prefix", "is_deadlock_free_theorem1"),
        "repro.analysis.theorem1",
    ),
    "DeadlockWitness": "repro.analysis.witnesses",
    **dict.fromkeys(
        (
            "DatabaseSchema", "GlobalNode", "IllegalScheduleError",
            "MalformedTransactionError", "Operation", "OpKind",
            "Schedule", "SystemPrefix", "Transaction",
            "TransactionBuilder", "TransactionSystem", "d_graph",
            "is_deadlock_partial_schedule", "is_deadlock_prefix",
            "is_serializable", "prefix_has_schedule", "reduction_graph",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        ("CnfFormula", "encode_formula", "random_three_sat_prime"),
        "repro.reductions",
    ),
    **dict.fromkeys(
        ("SimulationConfig", "Simulator", "simulate"), "repro.sim"
    ),
}

_SUBMODULES = frozenset((
    "analysis", "cli", "core", "experiments", "io", "paper",
    "reductions", "sim", "util",
))


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])
