"""The observability layer: tracing, metrics, and the flight recorder.

Every simulation so far has been a black box: transactions go in, a
:class:`~repro.sim.metrics.SimulationResult` comes out. This demo
turns the lights on with :mod:`repro.sim.observe` — and shows that
doing so changes *nothing* about the run itself.

Part 1 runs a contended open system twice, plain and fully
instrumented, and compares the results field by field: identical.
Probes observe; they never schedule, never draw randomness, never
touch an outcome. (With observability *disabled* the layer is free by
construction — nothing attaches to the runtime at all.)

Part 2 reads the instrumented run's artifacts:

* the **tracer**'s ring buffer — structured records of every lock
  wait/hold, transaction lifecycle mark, and abort *with the cause
  the runtime passed* (wound, death, timeout, detected, crash,
  unavailable, commit), exportable as
  JSONL or as a Chrome ``trace_event`` file you can drop into
  https://ui.perfetto.dev;
* the **sampler**'s windowed time series — in-flight concurrency,
  blocked-set size, waits-for edge count, per-site queue depths,
  abort rates — whose integral reproduces the run's own time-averaged
  concurrency exactly;
* the **flight recorder**'s post-mortem dumps — on each anomaly
  (deadlock detected, site crash, abort cascade) it writes the last-N
  events plus a Graphviz snapshot of the waits-for graph at the
  moment things went wrong.

Run:  python examples/tracing_run.py
"""

import json
import tempfile
from pathlib import Path

from repro.core.system import TransactionSystem
from repro.sim import ObserveConfig, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec

WORKLOAD = WorkloadSpec(
    n_entities=12,
    n_sites=3,
    entities_per_txn=(2, 4),
    actions_per_entity=(0, 2),
    hotspot_skew=0.8,
)


def run(observe: ObserveConfig | None):
    config = SimulationConfig(
        arrival_rate=0.3,
        max_transactions=250,
        workload=WORKLOAD,
        workload_seed=3,
        seed=1,
        detection_interval=4.0,
        observe=observe,
    )
    sim = Simulator(TransactionSystem([]), "detect", config)
    sim.run()
    return sim


def main() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="repro-trace-"))

    print("— part 1: observation changes nothing —")
    plain = run(None)
    observed = run(
        ObserveConfig(
            trace=True,
            metrics_window=50.0,
            flight_recorder=str(out_dir / "flight"),
        )
    )
    same = (
        plain.result.committed == observed.result.committed
        and plain.result.aborts == observed.result.aborts
        and plain.result.end_time == observed.result.end_time
        and plain.result.latencies == observed.result.latencies
    )
    print(
        f"committed={observed.result.committed} "
        f"aborts={observed.result.aborts} "
        f"end_time={observed.result.end_time:.1f}"
    )
    print(f"identical to the unobserved run: {same}")

    print()
    print("— part 2a: the tracer —")
    tracer = observed.observe.tracer
    print(f"retained {len(tracer)} records ({tracer.dropped} dropped)")
    causes = {}
    for rec in tracer.records():
        if rec["kind"] == "abort":
            causes[rec["cause"]] = causes.get(rec["cause"], 0) + 1
    print(
        "abort causes: "
        + ", ".join(f"{c}={n}" for c, n in sorted(causes.items()))
    )
    chrome = out_dir / "trace.json"
    n = tracer.export_chrome(str(chrome))
    print(f"chrome trace: {n} events -> {chrome}")
    print("  (open it at https://ui.perfetto.dev)")

    print()
    print("— part 2b: the sampler —")
    series = observed.result.timeseries
    windows = series["windows"]
    print(f"{len(windows)} windows of {series['window']:g} time units")
    for w in windows[:4]:
        print(
            f"  [{w['t0']:>6.1f}, {w['t1']:>6.1f})  "
            f"inflight={w['inflight_mean']:5.2f}  "
            f"blocked={w['blocked_mean']:5.2f}  "
            f"aborts={w['aborts']:>3}"
        )
    area = sum(w["inflight_mean"] * (w["t1"] - w["t0"]) for w in windows)
    exact = abs(area - observed.result.inflight_area) < 1e-6
    print(f"series integrates back to the run's own aggregate: {exact}")

    print()
    print("— part 2c: the flight recorder —")
    flight = observed.observe.flight
    print(f"{len(flight.dumps)} anomaly dump(s):")
    for dump in flight.dumps[:3]:
        dot = Path(dump["waits_for"]).read_text()
        edges = dot.count("->")
        print(
            f"  t={dump['time']:>7.1f}  {dump['reason']:<18} "
            f"waits-for snapshot: {edges} edge(s)"
        )
    with open(flight.dumps[0]["events"]) as fh:
        records = [json.loads(line) for line in fh]
    print(f"first dump retained {len(records)} events before the anomaly")


if __name__ == "__main__":
    main()
