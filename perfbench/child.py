"""One measured run of one workload, in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWN CPU [VARIANT]

``SPAWN`` is the parent's ``time.monotonic()`` just before it started
this interpreter (the clock is system-wide on Linux), so set-up time
counts interpreter start, imports, input generation and
``Simulator.__init__``. ``CPU`` >= 0 pins the process to that CPU.
``MODE`` is ``run`` (untraced), ``trace`` (span recorder attached),
``serial`` (``sweep-grid`` only: the grid without a pool) or ``warm``
(import only, to fill the bytecode cache). Prints one JSON line.
"""

import os
import sys
import time

_SPAWN = float(sys.argv[4])
_CPU = int(sys.argv[5])
if _CPU >= 0:
    os.sched_setaffinity(0, {_CPU})
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
)

import workloads  # noqa: E402  (imports the simulator)
from repro.experiments import run_sweep  # noqa: E402
from repro.sim.runtime import Simulator  # noqa: E402

_IMPORTED = time.monotonic()


def _counts(results, sims) -> dict:
    """Exact behaviour counts summed over the run's simulations."""
    keys = (
        "committed", "aborts", "crash_aborts", "commit_messages",
        "net_sent", "net_retransmits", "log_forces",
    )
    counts = {k: sum(getattr(r, k) for r in results) for k in keys}
    counts["events"] = sum(s._events_processed for s in sims)
    counts["trace_records"] = sum(
        s.observe.tracer.total
        for s in sims
        if s.observe is not None and s.observe.tracer is not None
    )
    return counts


def _simulations(name: str, seed: int, mode: str, variant: str) -> dict:
    import gc

    runs = workloads.build(name, seed, variant)
    inputs = time.monotonic()
    sims = [Simulator(*run) for run in runs]
    init = time.monotonic()
    gc.collect()
    out = {
        "import_s": _IMPORTED - _SPAWN,
        "inputs_s": inputs - _IMPORTED,
        "init_s": init - inputs,
        "setup_s": init - _SPAWN,
    }
    if mode == "trace":
        from recorder import SpanRecorder

        recorder = SpanRecorder()
        results = []
        for sim in sims:
            recorder.attach(sim)
            results.append(recorder.run(sim))
        out["trace"] = recorder.summary()
        out["run_s"] = recorder.run_s
    else:
        start = time.perf_counter()
        results = [sim.run() for sim in sims]
        out["run_s"] = time.perf_counter() - start
    out["digest"] = workloads.combined_digest(results)
    out["problems"] = [p for r in results for p in workloads.problems(r)]
    out["counts"] = _counts(results, sims)
    return out


def _sweep(seed: int, mode: str) -> dict:
    spec = workloads.sweep_spec(seed)
    cells = spec.cells()
    inputs = time.monotonic()
    out = {
        "import_s": _IMPORTED - _SPAWN,
        "inputs_s": inputs - _IMPORTED,
        "init_s": 0.0,
        "setup_s": inputs - _SPAWN,
    }
    sims = []
    if mode == "trace":
        # The grid serially in this process, one recorder across cells.
        # The pool workers pay each cell's set-up out of sight of this
        # process, so only this mode adds it to inputs_s and init_s.
        from recorder import SpanRecorder

        recorder = SpanRecorder()
        results = []
        for cell in cells:
            t0 = time.perf_counter()
            run = (spec.cell_system(cell), cell.policy,
                   spec.cell_config(cell))
            t1 = time.perf_counter()
            sim = Simulator(*run)
            out["inputs_s"] += t1 - t0
            out["init_s"] += time.perf_counter() - t1
            recorder.attach(sim)
            results.append(recorder.run(sim))
            sims.append(sim)
        out["trace"] = recorder.summary()
        out["run_s"] = recorder.run_s
    else:
        start = time.perf_counter()
        if mode == "serial":
            results = run_sweep(spec, parallel=False)
        else:
            results = run_sweep(spec, processes=len(os.sched_getaffinity(0)))
        out["run_s"] = time.perf_counter() - start
    out["workers"] = len(os.sched_getaffinity(0))
    out["digest"] = workloads.combined_digest(results)
    out["problems"] = [p for r in results for p in workloads.problems(r)]
    out["counts"] = _counts(results, sims)
    return out


def main() -> None:
    import json
    import resource

    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    variant = sys.argv[6] if len(sys.argv) > 6 else ""
    if mode == "warm":
        print(json.dumps({"import_s": _IMPORTED - _SPAWN}))
        return
    if name == "sweep-grid":
        out = _sweep(seed, mode)
    else:
        out = _simulations(name, seed, mode, variant)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "sweep-grid" and mode == "run":
        # Pool workers are reaped by the pool's exit, so RUSAGE_CHILDREN
        # holds the largest worker's peak; every worker is counted at it.
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        kib += out["workers"] * children
    out["peak_rss_mb"] = kib / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
