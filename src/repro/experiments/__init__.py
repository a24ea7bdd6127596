"""Declarative experiment sweeps over the simulator.

A :class:`SweepSpec` names a grid — contention policy x atomic-commit
protocol x arrival rate x failure rate x replicate seeds over one
:class:`~repro.sim.workload.WorkloadSpec` — and :func:`run_sweep`
executes every cell, serially or on a :mod:`multiprocessing` pool.

Each cell is a pure function of the spec: the cell's coordinates fully
determine every RNG stream inside its simulation (run seed, arrival
clock, per-arrival workload seeds, failure stream, schema seed), so a
parallel sweep is bit-identical to running the same cells serially —
the regression suite asserts exactly that. Cells sharing a replicate
seed across policies/protocols also share their workload and arrival
randomness, which makes row-wise comparisons paired rather than merely
independent — and, run in one batch, they read one arrival stream, so
a batch generates its replicate's traffic once.

:func:`sweep_records` flattens results for analysis; :func:`write_json`
and :func:`write_csv` persist them.
"""

from repro.experiments.results import (
    sweep_records,
    write_csv,
    write_json,
)
from repro.experiments.sweep import (
    SweepCell,
    SweepSpec,
    run_cell,
    run_sweep,
)

__all__ = [
    "SweepCell",
    "SweepSpec",
    "run_cell",
    "run_sweep",
    "sweep_records",
    "write_csv",
    "write_json",
]
