"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``analyze FILE`` — polymorphic on the file's content.  For a
  transaction system in the text format: static safety-and-deadlock-
  freedom analysis (Theorem 3 pairs + Theorem 4 cycles), with
  certificates for refutations.  For a JSONL trace written by
  ``simulate --trace-jsonl``: offline latency attribution — the
  conserved segment decomposition, hot-cell/convoy profile, blame
  graph (``--dot``), and abort-cost report, with ``--check`` gating
  exact conservation for CI.
* ``deadlock FILE`` — exhaustive deadlock search and Theorem 1 deadlock-
  prefix search.
* ``simulate [FILE]`` — run the discrete-event simulator under one or
  more contention policies, optionally with an atomic-commit protocol
  (``--commit two-phase presumed-abort paxos-commit``), replicate runs
  (``--runs 5`` re-seeds and re-suffixes every output), fault injection
  (``--failure-rate``), and replication (``--replication 3
  --replica-protocol quorum --read-fraction 0.6``: reads take shared
  locks on one/a quorum of replicas, writes exclusive locks on
  all/available/a quorum). With ``--arrival-rate`` the run is an *open
  system*: fresh transactions arrive on a Poisson clock (FILE becomes
  optional and seeds the run as a closed batch if given) and the report
  shows steady-state throughput and latency percentiles.
* ``sweep`` — run a declarative grid (policy x commit protocol x
  replica protocol x arrival rate x failure rate x seeds) on a
  multiprocessing pool, with optional JSON/CSV output and opt-in
  per-cell metrics columns (``--cell-metrics``) and contention-
  attribution columns (``--cell-attribution``: hotspot share,
  wasted-work fraction, blame-graph size).
* ``trace FILE`` — summarize a trace written by ``simulate
  --trace-out/--trace-jsonl`` (either Chrome ``trace_event`` JSON or
  JSONL); JSONL summaries include the top blocking cells and the
  abort-cause breakdown.
* ``sat DIMACS-LIKE`` — encode a 3SAT′ formula as two transactions and
  demonstrate the Theorem 2 equivalence.
* ``figures`` — run the paper-figure demonstrations.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

from repro.io.textfmt import parse_system

__all__ = ["main"]


def _load_system(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


def _usage_error(command: str, message: object) -> int:
    """Report a bad argument on stderr; returns the usage exit code."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _is_trace_artifact(path: str) -> bool:
    """True when the file's first non-blank line is a JSON object.

    The transaction-system text format never starts a line with ``{``,
    while both trace exports do (JSONL records and the Chrome
    ``trace_event`` document), so one line of content sniffing routes
    ``analyze`` without a mode flag.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                return isinstance(json.loads(line), dict)
            except ValueError:
                return False
    return False


def _analyze_trace(args: argparse.Namespace) -> int:
    import json

    from repro.sim.observe.attribution import analyze_trace, render_report

    try:
        summary, engine = analyze_trace(args.file)
    except ValueError as exc:
        return _usage_error("analyze", exc)
    print(render_report(summary, top=args.top))
    if args.dot:
        from repro.io.dot import blame_graph_to_dot

        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(blame_graph_to_dot(engine.blame_edge_list()))
        print(f"wrote {args.dot}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote {args.json_out}")
    if args.check:
        conservation = summary["conservation"]
        failures = []
        if not conservation["exact"]:
            failures.append("segment sums do not equal measured latency")
        if conservation["min_service"] < -1e-9:
            failures.append(
                f"negative service segment ({conservation['min_service']:g})"
            )
        if summary["blame"]["edge_count"] == 0:
            failures.append("blame graph is empty")
        if failures:
            print("check FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(
            f"check OK: {conservation['transactions']} transactions "
            f"conserve exactly, {summary['blame']['edge_count']} blame "
            "edges"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if _is_trace_artifact(args.file):
        return _analyze_trace(args)
    from repro.analysis.reporting import audit_system

    system = _load_system(args.file)
    print(f"system: {', '.join(t.name for t in system.transactions)}")
    report = audit_system(system)
    print(report.to_text())
    return 0 if report.ok else 1


def _cmd_deadlock(args: argparse.Namespace) -> int:
    from repro.analysis.exhaustive import find_deadlock
    from repro.analysis.theorem1 import find_deadlock_prefix

    system = _load_system(args.file)
    witness = find_deadlock(system, max_states=args.max_states)
    if witness is None:
        print("deadlock-free (exhaustive search)")
        prefix_witness = find_deadlock_prefix(
            system, max_states=args.max_states
        )
        assert prefix_witness is None, "Theorem 1 disagreement"
        print("no deadlock prefix exists (Theorem 1 agrees)")
        return 0
    print("DEADLOCK reachable; partial schedule:")
    print(f"  {witness.describe()}")
    prefix_witness = find_deadlock_prefix(system, max_states=args.max_states)
    assert prefix_witness is not None, "Theorem 1 disagreement"
    print(prefix_witness.describe())
    return 1


def _add_fields(group, cls, flags: dict, **cli_defaults) -> None:
    """Declare one flag per entry of ``flags``, each setting the field
    of the config dataclass ``cls`` that the entry's key names.

    An entry maps the field to its help text, or to ``(help, extras)``
    where ``extras`` are more ``add_argument`` keywords, plus ``flag``
    to rename the flag from ``--field-name``. The flag's type, number
    of values and default come from the field: ``tuple[int, int]``
    takes two values, ``tuple[float, ...]`` one or more, and a bare
    ``tuple`` takes its type from ``extras``. ``cli_defaults`` names
    the defaults the CLI sets differently from the library.
    """
    hints = typing.get_type_hints(cls)
    for name, entry in flags.items():
        help_text, extras = entry if isinstance(entry, tuple) else (entry, {})
        extras = dict(extras)
        flag = "--" + name.replace("_", "-")
        if "flag" in extras:  # a renamed flag keeps its own metavar
            flag = extras.pop("flag")
            extras.setdefault("metavar", flag[2:].upper().replace("-", "_"))
        hint = hints[name]
        if typing.get_origin(hint) is tuple:
            kinds = typing.get_args(hint)
            nargs = "+" if kinds[-1] is Ellipsis else len(kinds)
            derived = {"type": kinds[0], "nargs": nargs}
        else:
            derived = {"type": hint} if hint in (int, float, str) else {}
        # A dataclass keeps each field's default as a class attribute;
        # argparse appends to, and parses into, lists.
        default = cli_defaults.get(name, getattr(cls, name))
        if isinstance(default, tuple):
            default = list(default)
        group.add_argument(
            flag, dest=name, default=default, help=help_text,
            **{**derived, **extras},
        )


def _config(cls, args: argparse.Namespace, **overrides):
    """The config dataclass ``cls`` built from the parsed flags: every
    field a flag sets, unless ``overrides`` sets it, with lists made
    tuples."""
    values = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(cls)
        if hasattr(args, field.name)
    }
    values.update(overrides)
    return cls(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in values.items()
    })


def _observe_config(args: argparse.Namespace, suffix: str = ""):
    """Observability config from simulate flags, or None.

    The flight-recorder directory is consumed while the run executes
    (dumps are written the moment a trigger fires), so — unlike the
    trace/metrics paths, which are suffixed at export time — it must be
    suffixed *here*, per run, or every run of a multi-run invocation
    would dump into the same directory and overwrite its predecessors'
    ``dump-NNN`` files.
    """
    from repro.sim.observe import ObserveConfig

    want_trace = bool(args.trace_out or args.trace_jsonl)
    want_attribution = bool(args.attribution or args.attribution_out)
    if not (
        want_trace
        or want_attribution
        or args.metrics_out
        or args.flight_recorder
    ):
        return None
    flight = args.flight_recorder
    if flight:
        flight = _suffixed(flight, suffix)
    # --flight-recorder and --attribution carry their fields' names, but
    # the field takes the run's suffixed directory, and --attribution-out
    # turns attribution on too.
    return _config(
        ObserveConfig,
        args,
        trace=want_trace,
        metrics_window=args.metrics_window if args.metrics_out else 0.0,
        flight_recorder=flight,
        attribution=want_attribution,
    )


def _suffixed(path: str, suffix: str) -> str:
    if not suffix:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-{suffix}{ext}"


def _export_observability(sim, args, suffix: str) -> None:
    """Write the requested trace/metrics/flight outputs of one run."""
    import json

    hub = sim.observe
    if hub.tracer is not None:
        if args.trace_out:
            path = _suffixed(args.trace_out, suffix)
            n = hub.tracer.export_chrome(path)
            print(f"wrote {path} ({n} trace events)")
        if args.trace_jsonl:
            path = _suffixed(args.trace_jsonl, suffix)
            n = hub.tracer.export_jsonl(path)
            print(f"wrote {path} ({n} records)")
    if hub.sampler is not None and args.metrics_out:
        path = _suffixed(args.metrics_out, suffix)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sim.result.timeseries, fh, indent=2)
        print(
            f"wrote {path} "
            f"({len(sim.result.timeseries['windows'])} windows)"
        )
    if hub.flight is not None and hub.flight.dumps:
        print(
            f"flight recorder: {len(hub.flight.dumps)} dump(s) in "
            f"{hub.flight.out_dir}"
        )
    if hub.attribution is not None:
        from repro.sim.observe.attribution import render_report

        print(render_report(sim.result.attribution))
        if args.attribution_out:
            path = _suffixed(args.attribution_out, suffix)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sim.result.attribution, fh, indent=2)
            print(f"wrote {path}")


def _parse_partition_episode(text: str):
    """Parse one ``START:DURATION:SITE[,SITE...]`` episode spec."""
    parts = text.split(":")
    if len(parts) != 3 or not parts[2]:
        raise argparse.ArgumentTypeError(
            f"expected START:DURATION:SITE[,SITE...], got {text!r}"
        )
    try:
        start, duration = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"episode start/duration must be numbers, got {text!r}"
        ) from None
    return (start, duration, tuple(parts[2].split(",")))


def _add_run_args(
    p: argparse.ArgumentParser, policies: list[str], **cli_defaults
) -> None:
    """Run flags shared by simulate and sweep, workload and durability
    included; ``cli_defaults`` are the subcommand's own
    SimulationConfig defaults.

    Choices come from the policy and commit-protocol registries, so a
    registered name is accepted without a CLI edit.
    """
    from repro.sim.commit import protocol_names
    from repro.sim.durability import DurabilityConfig
    from repro.sim.policies import policy_names
    from repro.sim.runtime import SimulationConfig
    from repro.sim.workload import SHAPES, WorkloadSpec

    p.add_argument(
        "--policies",
        nargs="+",
        default=policies,
        choices=policy_names(),
        help="contention policies to run",
    )
    p.add_argument(
        "--commit",
        nargs="+",
        default=["instant"],
        choices=protocol_names(),
        help="atomic-commit protocol(s) to run each policy under",
    )
    _add_fields(p, SimulationConfig, {
        "max_time": None,
        "network_delay": None,
        "commit_timeout": "vote-collection/retry period of the 2PC protocols",
        "commit_fault_tolerance": (
            "failures Paxos Commit masks: 2F+1 acceptor sites per "
            "round (F=0 degenerates to 2PC; other protocols ignore it)",
            {"metavar": "F"},
        ),
        "repair_time": "mean downtime of a crashed site",
        "catchup_time": (
            "anti-entropy scan period of recovering rowa-available "
            "sites (no reads served until a copy validates)"
        ),
        "max_transactions": (
            "stop injecting after this many arrivals (0 = unbounded; "
            "--max-time then limits the run)"
        ),
        "warmup_time": (
            "steady-state measurement starts here; earlier commits "
            "and in-flight time are warm-up",
            {"flag": "--warmup"},
        ),
        "workload_seed": (
            "seed of the generated schema/workload (separate from "
            "--seed so replicates stress the same database)"
        ),
    }, **cli_defaults)
    _add_fields(p, WorkloadSpec, {
        "n_transactions": (
            "closed-batch size when the workload is generated "
            "(sweep cells with arrival rate 0)",
            {"flag": "--batch"},
        ),
        "n_entities": ("generated entity pool", {"flag": "--entities"}),
        "n_sites": ("sites the pool spreads over", {"flag": "--sites"}),
        "entities_per_txn": (
            "entities accessed per generated transaction",
            {"metavar": ("LO", "HI")},
        ),
        "actions_per_entity": (
            "A-steps per accessed entity", {"metavar": ("LO", "HI")}
        ),
        "cross_arc_p": "probability of each admissible extra cross-site arc",
        "shape": (
            "locking style of generated transactions", {"choices": SHAPES}
        ),
        "hotspot_skew": (
            "0 = uniform entity choice; larger concentrates accesses"
        ),
        "read_fraction": (
            "probability an accessed entity is only read (shared "
            "locks); 0 keeps the paper's all-exclusive model"
        ),
        "replication_factor": (
            "replica copies per entity (clamped to the site count); "
            "1 is the paper's single-copy model",
            {"flag": "--replication", "metavar": "FACTOR"},
        ),
    }, n_transactions=8, n_entities=16, n_sites=4)
    dur = p.add_argument_group(
        "durability",
        "simulated write-ahead logging; without --flush-time no "
        "durability model attaches and PREPARED state survives "
        "crashes by fiat (the legacy idealization)",
    )
    _add_fields(dur, DurabilityConfig, {
        "flush_time": (
            "cost of one forced log write; giving this flag attaches "
            "the durability model (crashes then truncate each site to its "
            "log and recovery replays it)",
            {"metavar": "T"},
        ),
        "tail_loss_rate": (
            "probability a crash silently drops the newest durable "
            "log record"
        ),
        "torn_write_rate": (
            "probability the record being flushed at crash time is "
            "torn (lost even though the flush completed)"
        ),
        "amnesia_rate": (
            "probability a crash wipes the whole log; the site "
            "rejoins as a fresh replica via anti-entropy catch-up"
        ),
    }, flush_time=None)


def _run_config(args: argparse.Namespace, **overrides):
    """The SimulationConfig of the run flags, with ``overrides`` for
    the fields a subcommand sets itself.

    ``--flush-time`` is the enabling flag of the durability model:
    leaving it unset attaches none, keeping the no-flag run
    bit-identical to the idealized-WAL simulator.
    """
    from repro.sim.durability import DurabilityConfig
    from repro.sim.runtime import SimulationConfig

    durability = None
    if args.flush_time is not None:
        durability = _config(DurabilityConfig, args)
    return _config(
        SimulationConfig, args, durability=durability, **overrides
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.system import TransactionSystem
    from repro.sim.arrivals import ArrivalStream
    from repro.sim.metrics import SimulationResult
    from repro.sim.network import NetworkConfig
    from repro.sim.runtime import Simulator
    from repro.sim.workload import WorkloadSpec

    open_system = args.arrival_rate > 0
    if args.file is None and not open_system:
        return _usage_error(
            "simulate", "FILE is required unless --arrival-rate is given"
        )
    if args.metrics_window <= 0:
        return _usage_error("simulate", "--metrics-window must be > 0")
    if args.runs < 1:
        return _usage_error("simulate", "--runs must be >= 1")
    system = (
        _load_system(args.file) if args.file else TransactionSystem([])
    )
    grid = len(args.policies) * len(args.commit) > 1
    results = []
    # Runs that differ only in policy or protocol inject the same
    # arrivals: run i of every grid cell reads stream i, so each seed's
    # traffic is generated once for the whole grid. A lone cell's run
    # has no other reader and builds its own stream, keeping none.
    streams = [None] * args.runs
    for policy in args.policies:
        for protocol in args.commit:
            for run in range(args.runs):
                parts = []
                if grid:
                    parts.append(f"{policy}-{protocol}")
                if args.runs > 1:
                    parts.append(f"run{run}")
                suffix = "-".join(parts)
                try:
                    network = _config(NetworkConfig, args)
                    config = _run_config(
                        args,
                        seed=args.seed + run,
                        commit_protocol=protocol,
                        # The workload spec also carries the
                        # replication factor, so closed-batch (FILE)
                        # runs need it too.
                        workload=_config(WorkloadSpec, args),
                        observe=_observe_config(args, suffix),
                        network=network if network.enabled else None,
                    )
                except ValueError as exc:  # a config class's range check
                    return _usage_error("simulate", exc)
                if open_system and grid:
                    streams[run] = ArrivalStream.reuse(
                        streams[run], system, config
                    )
                sim = Simulator(system, policy, config, stream=streams[run])
                results.append(sim.run())
                if sim.observe is not None:
                    _export_observability(sim, args, suffix)
    if open_system:
        print(SimulationResult.open_summary_table(results))
    else:
        print(SimulationResult.summary_table(results))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.observe.trace import summarize_trace

    print(summarize_trace(args.file))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        SweepSpec,
        run_sweep,
        sweep_records,
        write_csv,
        write_json,
    )
    from repro.sim.network import NetworkConfig
    from repro.sim.observe import ObserveConfig
    from repro.sim.workload import WorkloadSpec
    from repro.util.render import format_table

    if args.processes is not None and args.processes < 1:
        return _usage_error("sweep", "--processes must be >= 1")
    chaos = any(r > 0 for r in args.loss_rates) or any(
        r > 0 for r in args.partition_rates
    )
    try:
        observe = None
        if args.cell_metrics > 0 or args.cell_attribution:
            observe = ObserveConfig(
                metrics_window=args.cell_metrics,
                attribution=args.cell_attribution,
            )
        # The template every chaos cell derives from (its loss and
        # partition rates are overridden per cell).
        network = _config(NetworkConfig, args) if chaos else None
        spec = _config(
            SweepSpec,
            args,
            protocols=args.commit,
            workload=_config(WorkloadSpec, args),
            # The cells take their workload from the spec:
            # base.workload stays unset.
            base=_run_config(args, observe=observe, network=network),
        )
        cells = spec.cells()
        for cell in cells:
            spec.cell_config(cell)  # builds each cell's network config
    except ValueError as exc:  # a config class's range check
        return _usage_error("sweep", exc)
    mode = "serially" if args.serial else "in parallel"
    print(
        f"sweep: {len(cells)} cells "
        f"({len(spec.policies)} policies x {len(spec.protocols)} "
        f"protocols x {len(spec.replica_protocols)} replica protocols "
        f"x {len(spec.arrival_rates)} arrival rates x "
        f"{len(spec.failure_rates)} failure rates x "
        f"{len(spec.loss_rates)} loss rates x "
        f"{len(spec.partition_rates)} partition rates x "
        f"{len(spec.seeds)} seeds), running {mode}"
    )
    results = run_sweep(
        spec, processes=args.processes, parallel=not args.serial
    )
    headers = [
        "policy", "commit", "replica", "arr-rate", "f-rate", "seed",
        "committed", "aborts", "thruput", "avail", "p50", "p95", "p99",
    ]
    rows = [
        [
            record["policy"],
            record["protocol"],
            record["replica_protocol"],
            f"{record['arrival_rate']:g}",
            f"{record['failure_rate']:g}",
            record["seed"],
            f"{record['committed']}/{record['total']}",
            record["aborts"],
            f"{record['steady_throughput']:.3f}",
            f"{record['availability']:.3f}",
            f"{record['p50']:.1f}",
            f"{record['p95']:.1f}",
            f"{record['p99']:.1f}",
        ]
        for record in sweep_records(spec, results)
    ]
    print(format_table(headers, rows))
    if args.json:
        write_json(args.json, spec, results)
        print(f"wrote {args.json}")
    if args.csv:
        write_csv(args.csv, spec, results)
        print(f"wrote {args.csv}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.io.dot import system_to_dot
    from repro.io.jsonfmt import system_to_json
    from repro.io.textfmt import format_system

    system = _load_system(args.file)
    if args.format == "dot":
        print(system_to_dot(system), end="")
    elif args.format == "json":
        print(system_to_json(system))
    else:
        print(format_system(system), end="")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.analysis.fixed_k import check_system
    from repro.analysis.optimize import early_unlock
    from repro.analysis.policies import repair_system
    from repro.io.textfmt import format_system

    system = _load_system(args.file)
    verdict = check_system(system)
    if verdict:
        print("# system is already safe and deadlock-free; no repair "
              "needed")
        print(format_system(system), end="")
        return 0
    repaired, order = repair_system(system)
    assert check_system(repaired)
    print(f"# repaired: re-locked 2PL along global order {order}")
    if args.optimize:
        report = early_unlock(repaired)
        repaired = report.system
        print(
            f"# early-unlock: holding span {report.before} -> "
            f"{report.after} ({report.improvement:.0%} shorter, "
            f"{report.moves} moves), still certified"
        )
    print(format_system(repaired), end="")
    return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    from repro.analysis.theorem1 import find_deadlock_prefix
    from repro.core.reduction import reduction_graph
    from repro.reductions.cnf import CnfFormula
    from repro.reductions.encoding import (
        assignment_to_prefix,
        decode_assignment,
        encode_formula,
        expected_cycle,
        verify_cycle,
    )
    from repro.reductions.solvers import dpll_solve

    clauses = [clause.split() for clause in args.formula.split(",")]
    formula = CnfFormula.from_lists(clauses)
    print(f"formula: {formula}")
    system = encode_formula(formula)
    print(
        f"encoded: |T1| = {system[0].node_count} nodes, "
        f"|T2| = {system[1].node_count} nodes, "
        f"{len(system.entities)} entities/sites"
    )
    assignment = dpll_solve(formula)
    if assignment is None:
        print("UNSAT — by Theorem 2 the pair {T1, T2} is deadlock-free")
        return 0
    print(f"SAT: {assignment}")
    prefix = assignment_to_prefix(formula, system, assignment)
    cycle = expected_cycle(formula, system, assignment)
    graph = reduction_graph(prefix)
    assert verify_cycle(graph, cycle), "constructed cycle not in R(A')"
    print("deadlock prefix (Z sets):")
    print(prefix.describe())
    print(
        "reduction-graph cycle: "
        + " -> ".join(system.describe_node(g) for g in cycle)
    )
    decoded = decode_assignment(formula, system, cycle)
    assert formula.evaluate(decoded)
    print(f"decoded back from the cycle: {decoded}")
    if args.search:
        witness = find_deadlock_prefix(system)
        assert witness is not None
        print("independent Theorem 1 search also found a deadlock prefix")
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    from repro.analysis.exhaustive import find_deadlock
    from repro.analysis.tirri import tirri_check_pair
    from repro.core.reduction import is_deadlock_prefix, reduction_graph
    from repro.core.system import TransactionSystem
    from repro.paper import figures

    print("— Figure 1: deadlock prefix of three transactions —")
    system = figures.figure1()
    prefix = figures.figure1_prefix(system)
    graph = reduction_graph(prefix)
    cycle = graph.find_cycle()
    print(prefix.describe())
    print(
        "cycle: " + " -> ".join(system.describe_node(g) for g in cycle)
    )
    assert is_deadlock_prefix(prefix)

    print()
    print("— Figure 2: Tirri's oversight —")
    pair = figures.figure2()
    tirri = tirri_check_pair(pair[0], pair[1])
    truth = find_deadlock(pair)
    print(f"Tirri's test: {tirri.reason}")
    print(
        "exhaustive truth: "
        + ("deadlocks — " + truth.describe() if truth else "deadlock-free")
    )

    print()
    print("— Figure 3: deadlock-freedom is not extension-reducible —")
    partial = figures.figure3()
    extensions = figures.figure3_extensions()
    print(f"partial orders deadlock: {find_deadlock(partial) is not None}")
    print(
        f"extensions deadlock: {find_deadlock(extensions) is not None}"
    )

    print()
    print("— Figure 6: copies and deadlock —")
    t = figures.figure6()
    two = TransactionSystem.of_copies(t, 2)
    three = TransactionSystem.of_copies(t, 3)
    print(f"2 copies deadlock: {find_deadlock(two) is not None}")
    print(f"3 copies deadlock: {find_deadlock(three) is not None}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import SweepSpec
    from repro.sim.network import NetworkConfig
    from repro.sim.observe import ObserveConfig
    from repro.sim.replication import replica_control_names
    from repro.sim.runtime import SimulationConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Deadlock-freedom and safety analysis of locked transactions "
            "in a distributed database (Wolfson & Yannakakis, PODS 1985)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        help="static pair + fixed-k analysis of a system file, or "
        "offline latency attribution of a JSONL trace",
    )
    p.add_argument(
        "file",
        help="transaction system in text format, or a JSONL trace "
        "written by simulate --trace-jsonl (detected by content)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=8,
        help="rows per section of the trace-attribution report",
    )
    p.add_argument(
        "--dot",
        metavar="PATH",
        help="write the time-weighted blame graph as Graphviz DOT "
        "(trace files only)",
    )
    p.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the attribution summary as JSON (trace files only)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless segment sums conserve exactly and the "
        "blame graph is nonempty (trace files only; the CI gate)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("deadlock", help="exhaustive deadlock search")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_deadlock)

    p = sub.add_parser("simulate", help="discrete-event simulation")
    p.add_argument(
        "file",
        nargs="?",
        default=None,
        help="transaction system to replay (optional when "
        "--arrival-rate generates the traffic)",
    )
    _add_run_args(p, ["blocking", "wound-wait", "wait-die", "detect"])
    _add_fields(p, SimulationConfig, {
        "seed": None,
        "failure_rate": (
            "per-site crash rate (crashes per unit time); 0 disables "
            "fault injection"
        ),
        "replica_protocol": (
            "replica-control protocol routing reads/writes over the "
            "--replication copies",
            {"choices": replica_control_names()},
        ),
        "arrival_rate": (
            "open-system arrival rate (transactions per unit "
            "time); 0 replays FILE as a closed batch"
        ),
    })
    p.add_argument(
        "--runs",
        type=int,
        default=1,
        help="independent replicates per policy x protocol combination "
        "(seeds SEED..SEED+N-1); observability outputs gain a -runK "
        "suffix so no replicate overwrites another",
    )
    net = p.add_argument_group(
        "network chaos",
        "adversarial-network injection; all-default flags attach "
        "nothing and replay the perfect-network run bit for bit",
    )
    _add_fields(net, NetworkConfig, {
        "loss_rate": "i.i.d. drop probability per message copy",
        "dup_rate": (
            "probability a delivered message is duplicated in flight"
        ),
        "jitter": "per-copy delay jitter, uniform in [0, JITTER]",
        "partition_rate": (
            "Poisson arrival rate of random partition episodes"
        ),
        "partition_duration": (
            "duration of each Poisson-arriving partition episode"
        ),
        "partition_schedule": (
            "scripted partition episode cutting SITES (comma-"
            "separated) off the rest; repeatable",
            {
                "flag": "--partition-at",
                "type": _parse_partition_episode,
                "action": "append",
                "metavar": "START:DURATION:SITES",
            },
        ),
        "retransmit_timeout": (
            "first retransmission deadline of an unacked message "
            "(doubles per retry, capped)"
        ),
    })
    obs = p.add_argument_group(
        "observability",
        "off unless asked for: without these flags no probe attaches",
    )
    obs.add_argument(
        "--trace-out",
        metavar="PATH",
        help="export a Chrome trace_event JSON (open in Perfetto or "
        "chrome://tracing)",
    )
    obs.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="export the structured event trace as JSONL",
    )
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the windowed metrics time series as JSON",
    )
    obs.add_argument(
        "--attribution",
        action="store_true",
        help="attach the latency-attribution engine and print the "
        "contention report (segment decomposition, hot cells, blame "
        "graph, abort cost) after the run",
    )
    obs.add_argument(
        "--attribution-out",
        metavar="PATH",
        help="also write the attribution summary as JSON (implies "
        "--attribution)",
    )
    obs.add_argument(
        "--flight-recorder",
        metavar="DIR",
        help="dump last-N events + a waits-for DOT snapshot here on "
        "deadlock detection, crashes, and abort cascades",
    )
    _add_fields(obs, ObserveConfig, {
        "trace_capacity": (
            "tracer ring-buffer size (older records are dropped)"
        ),
        "metrics_window": (
            "aggregation window of the metrics sampler (sim time)"
        ),
        "sample_every": (
            "sample 1-in-N transactions into the tracer and "
            "attribution streams to bound traced-run overhead; abort-"
            "cause counts stay exact, time aggregates become estimates "
            "(default 1 = everything)",
            {"flag": "--trace-sample", "metavar": "N"},
        ),
        "flight_events": "events each flight-recorder dump retains",
        "flight_cascade_threshold": (
            "abort-cascade depth that triggers a flight dump",
            {"flag": "--flight-cascade", "metavar": "DEPTH"},
        ),
    }, metrics_window=25.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="run a policy x protocol x rate x failure x seed grid",
    )
    _add_run_args(p, ["wound-wait", "wait-die"], max_transactions=200)
    _add_fields(p, SweepSpec, {
        "replica_protocols": (
            "replica-control protocols as a grid axis",
            {"choices": replica_control_names()},
        ),
        "arrival_rates": (
            "open-system arrival rates to sweep (0 = closed batch)"
        ),
        "failure_rates": None,
        "loss_rates": (
            "network message-loss probabilities as a chaos grid axis"
        ),
        "partition_rates": (
            "Poisson partition-episode rates as a chaos grid axis"
        ),
        "seeds": "replicate seeds (each is one cell per grid point)",
    }, arrival_rates=(0.5, 1.0))
    _add_fields(p, NetworkConfig, {
        "partition_duration": (
            "duration of each Poisson partition episode (chaos cells)"
        ),
    })
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker processes (default: one per CPU)",
    )
    p.add_argument(
        "--serial",
        action="store_true",
        help="run cells serially in-process (the determinism baseline)",
    )
    p.add_argument("--json", help="write spec + per-cell records here")
    p.add_argument("--csv", help="write per-cell records here")
    p.add_argument(
        "--cell-metrics",
        type=float,
        default=0.0,
        metavar="WINDOW",
        help="attach the metrics sampler to every cell with this "
        "window; records (JSON/CSV) gain peak-pressure columns",
    )
    p.add_argument(
        "--cell-attribution",
        action="store_true",
        help="attach the latency-attribution engine to every cell; "
        "records (JSON/CSV) gain hotspot-share, wasted-work, and "
        "blame-graph columns",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="summarize a trace file written by simulate",
    )
    p.add_argument("file", help="Chrome trace_event JSON or JSONL trace")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("show", help="render a system (text/json/dot)")
    p.add_argument("file")
    p.add_argument(
        "--format", choices=["text", "json", "dot"], default="text"
    )
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser(
        "repair",
        help="re-lock a violating workload 2PL along a global order",
    )
    p.add_argument("file")
    p.add_argument(
        "--optimize",
        action="store_true",
        help="also shrink lock-holding spans (early unlocking) while "
        "keeping the certificate",
    )
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("sat", help="Theorem 2 reduction demo")
    p.add_argument(
        "formula",
        help="clauses separated by commas, literals by spaces; "
        "'~' negates: 'x1 x2, x1 ~x2, ~x1 x2'",
    )
    p.add_argument(
        "--search",
        action="store_true",
        help="also run the exponential Theorem 1 search",
    )
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("figures", help="paper figure demonstrations")
    p.set_defaults(func=_cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every subcommand that reads an input file names it ``file``. One
    # that cannot be read is a usage error (exit 2), not a traceback —
    # and not analyze's exit 1, which reports a violation.
    path = getattr(args, "file", None)
    if path is not None:
        try:
            open(path, "rb").close()
        except OSError as exc:
            return _usage_error(
                args.command, f"cannot read {path}: {exc.strerror or exc}"
            )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
