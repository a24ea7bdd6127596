"""Core simulator speed benchmark — the repo's perf trajectory anchor.

Times the simulator hot path over five deterministic scenarios and
writes ``BENCH_core.json``:

* ``closed`` — a closed batch under wound-wait (the seed simulator's
  regime: one transient burst of contention, instant commit);
* ``open`` — a long open-system run under the ``detect`` policy, the
  classical DBMS configuration (blocked requests park; a periodic
  detector breaks cycles). This is the scenario the ≥3x tentpole
  target of the fast-path PR is measured on: thousands of arrivals
  make the instance list grow all run, which is exactly where the
  historical per-tick full rescans and per-abort full-table scans
  degraded (each scan now starts from the blocked transactions the
  lock tables list, and no waits-for graph is kept beside them);
* ``open-long`` — the arrival-to-verdict stress: a closed seed batch
  plus sustained arrivals of *larger* transactions under wound-wait,
  producing a committed trace ~5x the ``open`` scenario's. Per-arrival
  workload generation, the end-of-run schedule replay, and the final
  D(S') verdict dominate here — the fast path of the
  trusted-construction PR is measured on this scenario;
* ``replicated`` — an open system under wound-wait at replication
  factor 3 under ``rowa-available`` with site failures and a read mix
  (replica fan-out, staleness tracking, availability integration);
* ``detection`` — a deliberately *saturated* detector (arrivals faster
  than the detect policy can clear): deep queues and constant cycles,
  so every scan walks a large blocked set read from the lock tables.

Every scenario is seeded and deterministic, so besides the timings the
harness records a *behaviour digest* over the simulation result —
comparing digests across code versions proves the optimized core is
bit-identical, not just faster.

Usage:
    python benchmarks/bench_core_speed.py                # full mode
    python benchmarks/bench_core_speed.py --quick        # CI smoke
    python benchmarks/bench_core_speed.py --check BASE   # regression gate
    python benchmarks/bench_core_speed.py --merge BASE   # keep BASE's
                                                         # other runs/modes
    python benchmarks/bench_core_speed.py --overhead     # observability
                                                         # cost report

``--overhead`` measures the observability layer instead of recording a
baseline: each probed scenario runs plain, with a disabled
``ObserveConfig`` (must be free — same digest, ops/sec delta within
``--overhead-tolerance``), fully instrumented (tracer + sampler +
attribution; same digest, overhead reported as a percentage), and
sampled (``sample_every=8``; same digest, must not cost more than the
fully traced mode plus the tolerance). Exit code 1 if the disabled
mode costs anything beyond noise, the sampled mode exceeds the traced
mode, or any digest diverges.

``--check`` compares the fresh numbers against the same mode of the
``current`` run recorded in the baseline file: behaviour digests must
match exactly, and ``ops_per_sec`` must not regress more than
``--tolerance`` (default 0.25). Exit code 1 on violation — this is the
CI gate against perf regressions.

BENCH_core.json schema::

    {
      "schema_version": 1,
      "runs": {
        "pre_pr":  {"quick": {...}, "full": {...}},   # pre-fast-path core
        "pr4":     {"quick": {...}, "full": {...}},   # PR 4 core (pre
                                                      # arrival-to-verdict
                                                      # fast path)
        "current": {"quick": {...}, "full": {...}}    # this tree
      },
      "speedup_vs_pre_pr": {"open": 3.4, ...},        # full-mode ratio
      "speedup_vs_pr4": {"open-long": 2.1, ...}       # full-mode ratio
    }

where each scenario entry records ``wall_s``, ``events`` (simulator
events processed), ``events_per_sec``, ``ops`` (operations executed by
every attempt, aborted ones included: ``Simulator.executed_steps``),
``ops_per_sec``, ``committed``, ``aborts``, ``end_time``, and
``digest``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# No recursion-limit escape hatch: wound cascades run on an explicit
# worklist, so even extreme-contention scenarios stay within the
# default interpreter stack.

from repro.core.system import TransactionSystem  # noqa: E402
from repro.sim.runtime import SimulationConfig, Simulator  # noqa: E402
from repro.sim.workload import WorkloadSpec, random_system  # noqa: E402
import random  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_core.json"

# Fields of SimulationResult folded into the behaviour digest: the
# seed-era surface plus the open-system steady-state fields.
DIGEST_FIELDS = (
    "policy", "commit_protocol", "replica_protocol", "replication_factor",
    "committed", "total", "end_time", "aborts", "wounds", "deaths",
    "timeouts", "detected", "crash_aborts", "unavailable_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated", "injected",
    "measured_committed", "inflight_area",
)


def result_digest(result) -> str:
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in DIGEST_FIELDS)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def _scenarios(quick: bool) -> dict[str, tuple]:
    """(system_builder, policy, config) per scenario name."""
    scale = 1 if quick else 0  # tuples below are (full, quick)

    def closed():
        n = (600, 120)[scale]
        spec = WorkloadSpec(
            n_transactions=n, n_entities=32, n_sites=8,
            entities_per_txn=(2, 4), actions_per_entity=(0, 2),
            hotspot_skew=0.5,
        )
        system = random_system(random.Random(7), spec)
        return system, "wound-wait", SimulationConfig(
            arrival_spread=n / 2.0, seed=1,
        )

    def open_system():
        # Sustained contention at a load the detector can just about
        # keep up with: the blocked set the lock tables list stays
        # bounded while the total instance list keeps growing — the
        # regime where retiring finished transactions from the scan
        # loops matters.
        spec = WorkloadSpec(
            n_entities=32, n_sites=8, entities_per_txn=(2, 4),
            actions_per_entity=(0, 2), hotspot_skew=0.6,
        )
        return TransactionSystem([]), "detect", SimulationConfig(
            arrival_rate=0.35, max_transactions=(6000, 800)[scale],
            warmup_time=50.0, workload=spec, seed=1,
        )

    def open_long():
        # Arrival-to-verdict at ~5x the `open` trace length: a closed
        # seed batch (its transactions carry their own schema object,
        # so freezing the run exercises the batch+arrival schema
        # path) plus sustained arrivals of larger transactions. The
        # load sits below saturation, so the run drains fully and the
        # committed trace — and with it generation, replay, and the
        # final D(S') verdict — grows with every arrival.
        spec = WorkloadSpec(
            n_transactions=200, n_entities=64, n_sites=8,
            entities_per_txn=(3, 5), actions_per_entity=(1, 3),
            hotspot_skew=0.4,
        )
        batch = random_system(random.Random(9), spec)
        return batch, "wound-wait", SimulationConfig(
            arrival_rate=0.3, max_transactions=(20000, 1500)[scale],
            arrival_spread=200.0, warmup_time=50.0, workload=spec,
            seed=5, max_time=400_000.0,
        )

    def replicated():
        spec = WorkloadSpec(
            n_entities=24, n_sites=6, entities_per_txn=(2, 3),
            actions_per_entity=(0, 1), hotspot_skew=0.4,
            read_fraction=0.3, replication_factor=3,
        )
        return TransactionSystem([]), "wound-wait", SimulationConfig(
            arrival_rate=0.8, max_transactions=(3500, 500)[scale],
            warmup_time=50.0, workload=spec, seed=2,
            replica_protocol="rowa-available", failure_rate=0.002,
            repair_time=8.0,
        )

    def detection():
        # Deliberately saturated: the detect policy cannot keep up, so
        # the instance list keeps growing and the blocked set the
        # detector reads from the lock tables every interval stays
        # large — the worst case for the detector's search.
        spec = WorkloadSpec(
            n_entities=24, n_sites=6, entities_per_txn=(2, 4),
            actions_per_entity=(0, 2), hotspot_skew=0.8,
        )
        return TransactionSystem([]), "detect", SimulationConfig(
            arrival_rate=0.4, max_transactions=(800, 120)[scale],
            warmup_time=50.0, workload=spec, seed=3,
            detection_interval=4.0, max_time=(20_000.0, 6_000.0)[scale],
        )

    return {
        "closed": closed,
        "open": open_system,
        "open-long": open_long,
        "replicated": replicated,
        "detection": detection,
    }


def run_scenario(builder, repeats: int) -> dict:
    """Run one scenario ``repeats`` times; keep the best wall time."""
    best = None
    for _ in range(repeats):
        system, policy, config = builder()
        sim = Simulator(system, policy, config)
        # Collect the previous scenario's garbage now: the big runs
        # retire millions of objects, and without this the gen-2 pass
        # fires mid-measurement and is charged to whichever scenario
        # happens to be running.
        gc.collect()
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        events = sim._events_processed
        ops = sim.executed_steps  # every attempt's operations
        entry = {
            "wall_s": round(wall, 4),
            "events": events,
            "events_per_sec": round(events / wall, 1),
            "ops": ops,
            "ops_per_sec": round(ops / wall, 1),
            "committed": result.committed,
            "aborts": result.aborts,
            "end_time": round(result.end_time, 6),
            "digest": result_digest(result),
        }
        if best is None or entry["wall_s"] < best["wall_s"]:
            if best is not None and best["digest"] != entry["digest"]:
                raise AssertionError(
                    "non-deterministic scenario: digest changed between "
                    "repeats"
                )
            best = entry
    return best


def run_mode(quick: bool, repeats: int) -> dict[str, dict]:
    results = {}
    for name, builder in _scenarios(quick).items():
        results[name] = run_scenario(builder, repeats)
        print(
            f"  {name:<10} {results[name]['wall_s']:>8.3f}s "
            f"{results[name]['ops_per_sec']:>10.0f} ops/s "
            f"{results[name]['events_per_sec']:>10.0f} ev/s "
            f"digest={results[name]['digest']}"
        )
    return results


def run_overhead(quick: bool, repeats: int, tolerance: float) -> list[str]:
    """Measure the observability layer's cost; returns violations.

    Four runs per scenario: plain, observability *configured but
    disabled* (the zero-cost claim: nothing attaches, so the delta is
    pure timing noise), fully instrumented (tracer + sampler +
    attribution, the honest price of turning everything on), and
    *sampled* (the same instrumentation at ``sample_every=8`` — the
    escape hatch for traced production runs, which must cost no more
    than the fully traced mode plus noise). All four must produce the
    same behaviour digest.
    """
    import dataclasses

    from repro.sim.observe import ObserveConfig

    def with_observe(builder, observe):
        def build():
            system, policy, config = builder()
            return system, policy, dataclasses.replace(
                config, observe=observe
            )
        return build

    errors = []
    scenarios = _scenarios(quick)
    for name in ("closed", "open"):
        builder = scenarios[name]
        plain = run_scenario(builder, repeats)
        disabled = run_scenario(
            with_observe(builder, ObserveConfig()), repeats
        )
        traced = run_scenario(
            with_observe(
                builder,
                ObserveConfig(
                    trace=True, metrics_window=25.0, attribution=True
                ),
            ),
            repeats,
        )
        sampled = run_scenario(
            with_observe(
                builder,
                ObserveConfig(
                    trace=True, metrics_window=25.0, attribution=True,
                    sample_every=8,
                ),
            ),
            repeats,
        )
        checks = (
            ("disabled", disabled), ("traced", traced),
            ("sampled", sampled),
        )
        for label, entry in checks:
            if entry["digest"] != plain["digest"]:
                errors.append(
                    f"{name}/{label}: behaviour digest diverged from the "
                    f"plain run ({plain['digest']} -> {entry['digest']})"
                )
        disabled_delta = 1.0 - disabled["ops_per_sec"] / plain["ops_per_sec"]
        traced_overhead = plain["ops_per_sec"] / traced["ops_per_sec"] - 1.0
        sampled_overhead = (
            plain["ops_per_sec"] / sampled["ops_per_sec"] - 1.0
        )
        print(
            f"  {name:<10} plain {plain['ops_per_sec']:>10.0f} ops/s | "
            f"disabled delta {disabled_delta:+7.1%} | "
            f"traced overhead {traced_overhead:+7.1%} | "
            f"sampled overhead {sampled_overhead:+7.1%}"
        )
        if disabled_delta > tolerance:
            errors.append(
                f"{name}: disabled observability cost "
                f"{disabled_delta:.1%} > {tolerance:.0%} — the disabled "
                f"path is supposed to be free"
            )
        if sampled_overhead > traced_overhead + tolerance:
            errors.append(
                f"{name}: sampled tracing cost {sampled_overhead:.1%} "
                f"exceeds full tracing ({traced_overhead:.1%}) by more "
                f"than {tolerance:.0%} — sampling is supposed to bound "
                f"overhead, not add it"
            )
    return errors


def check_regression(
    fresh: dict[str, dict], baseline_path: Path, mode: str, tolerance: float
) -> list[str]:
    """Compare fresh numbers to the baseline's ``current`` run."""
    baseline = json.loads(baseline_path.read_text())
    pinned = baseline.get("runs", {}).get("current", {}).get(mode)
    if pinned is None:
        return [f"baseline {baseline_path} has no current/{mode} run"]
    errors = []
    for name, entry in fresh.items():
        base = pinned.get(name)
        if base is None:
            errors.append(f"{name}: missing from baseline")
            continue
        if base["digest"] != entry["digest"]:
            errors.append(
                f"{name}: behaviour digest changed "
                f"({base['digest']} -> {entry['digest']}) — the simulator "
                f"is no longer bit-identical to the pinned baseline"
            )
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        if entry["ops_per_sec"] < floor:
            errors.append(
                f"{name}: ops/sec regressed beyond {tolerance:.0%}: "
                f"{entry['ops_per_sec']:.0f} < {floor:.0f} "
                f"(baseline {base['ops_per_sec']:.0f})"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per scenario, best kept "
                             "(default: 2 quick, 1 full)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--run-label", default="current",
                        choices=("current", "pre_pr", "pr4"),
                        help="which run slot to record under")
    parser.add_argument("--merge", type=Path, default=None,
                        help="seed the output with this JSON's other "
                             "runs/modes before recording")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to compare against (CI gate)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed ops/sec regression (default 0.25)")
    parser.add_argument("--overhead", action="store_true",
                        help="measure observability cost instead of "
                             "recording a baseline")
    parser.add_argument("--overhead-tolerance", type=float, default=0.30,
                        help="allowed disabled-observability ops/sec "
                             "delta — generous, it's timing noise "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    repeats = args.repeats or (2 if args.quick else 1)

    if args.overhead:
        print(
            f"bench_core_speed: observability overhead, mode={mode} "
            f"repeats={repeats}"
        )
        errors = run_overhead(args.quick, repeats, args.overhead_tolerance)
        if errors:
            for err in errors:
                print(f"OVERHEAD: {err}", file=sys.stderr)
            return 1
        print(
            "overhead gate: ok (disabled observability within "
            f"{args.overhead_tolerance:.0%} noise)"
        )
        return 0

    print(f"bench_core_speed: mode={mode} repeats={repeats}")
    fresh = run_mode(args.quick, repeats)

    doc = {"schema_version": 1, "runs": {}}
    if args.merge and args.merge.exists():
        doc = json.loads(args.merge.read_text())
    doc.setdefault("runs", {}).setdefault(args.run_label, {})[mode] = fresh

    cur = doc["runs"].get("current", {}).get("full")
    for base_label, key in (
        ("pre_pr", "speedup_vs_pre_pr"),
        ("pr4", "speedup_vs_pr4"),
    ):
        base = doc["runs"].get(base_label, {}).get("full")
        if base and cur:
            doc[key] = {
                name: round(
                    cur[name]["ops_per_sec"] / base[name]["ops_per_sec"], 2
                )
                for name in cur
                if name in base and base[name]["ops_per_sec"] > 0
            }

    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check is not None:
        errors = check_regression(fresh, args.check, mode, args.tolerance)
        if errors:
            for err in errors:
                print(f"REGRESSION: {err}", file=sys.stderr)
            return 1
        print(f"regression gate: ok (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
