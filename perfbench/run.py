"""The simulator's end-to-end and per-layer benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload core-open --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload stack-chaos --seed 3 --trace 1
    python3 perfbench/run.py --steadiness 10 --seconds 25
    python3 perfbench/run.py --pin 0-49

``--trace 0`` measures: it starts fresh interpreters one after another
(``child.py``), each running the workload once, until ``--seconds``
have passed (at least ``MIN_RUNS``), and reports the medians of
``setup_s``, ``run_s`` and ``peak_rss_mb``. Single-run workloads are
pinned to one CPU; ``sweep-grid`` keeps every CPU for its pool.

``--trace 1`` is the separate traced pass: untraced and span-recorded
runs of the same seed, plus the workload's extra runs (the layer
ladder on ``stack-chaos``, the observer-off run on ``observed-2pc``,
the serial grid on ``sweep-grid``). It reports every ``per_layer``
metric of ``BENCHMARK.json`` and writes the span summaries to
``.perfbench/``.

Every run is checked: it must not raise, be truncated or leave work
unfinished, every run of one seed must produce the same behaviour
digest, and that digest must equal the one pinned in ``digests.json``
when the seed is pinned there. A run that fails a check counts in
``failed``. The last line of standard output is the JSON result.

``--steadiness N`` runs every workload N times (seeds 0 to N-1,
alternating the workload order) and prints the median, quartiles and
IQR/median of each end-to-end metric. ``--pin A-B`` records the
digests of every workload at seeds A..B in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# Neither module imports the simulator. This process must not: a child
# interpreter's peak RSS starts from its parent's.
from ladder import LADDER
from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_RUNS = 3
# A run must end within 180 s; every interpreter it starts gets what is
# left of this budget.
BUDGET_S = 170
TRACED_RUNS = 2

# per-layer count metric -> (numerator count, denominator count)
_RATIOS = {
    "runtime.events_per_commit": ("events", "committed"),
    "runtime.aborts_per_commit": ("aborts", "committed"),
    "commit.messages_per_commit": ("commit_messages", "committed"),
    "network.sent_per_commit": ("net_sent", "committed"),
    "network.timer_events_per_retransmit": (
        "events.net_retransmit", "net_retransmits",
    ),
    "durability.forces_per_commit": ("log_forces", "committed"),
    "replication.requests_per_commit": ("events.replica_req", "committed"),
}


class ChildFailed(Exception):
    """A measurement process exited abnormally."""


def spawn(workload: str, seed: int, mode: str, cpu: int,
          variant: str = "", timeout: float = 600.0) -> dict:
    """Run ``child.py`` once and return its JSON line."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, workload, str(seed), mode, repr(spawned),
         str(cpu), variant],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} seed {seed} {mode}: timed out")
    finally:
        # The sweep's pool workers share the child's session; none may
        # outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(
            f"{workload} seed {seed} {mode} {variant}: exit "
            f"{proc.returncode}: {tail[0]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def reference_seconds(cpu: int) -> float:
    """One pass of the reference loop, in its own interpreter so that
    its memory never counts towards a measured interpreter's peak (a
    child's ``ru_maxrss`` starts from its parent's)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"), str(cpu)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def load_pins() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


class Checker:
    """Counts attempted and failed runs of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + BUDGET_S
        self.pinned = load_pins().get(workload, {}).get(str(seed))
        self.digest = self.pinned
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def warm(self, cpu: int) -> None:
        """Fill the bytecode cache so no measured import compiles."""
        spawn(self.workload, self.seed, "warm", cpu,
              timeout=self.deadline - time.monotonic())

    def run(self, mode, cpu, variant="", digest=True):
        """Spawn one run and check it.

        Returns its output, or None if the interpreter failed. A run
        that finished but failed a check is counted failed and its
        timings are still returned: they were measured.
        """
        self.attempted += 1
        try:
            out = spawn(self.workload, self.seed, mode, cpu, variant,
                        timeout=max(0.1, self.deadline - time.monotonic()))
        except ChildFailed as exc:
            self.fail(str(exc))
            return None
        label = f"{self.workload} seed {self.seed} {mode} {variant}".strip()
        if out["problems"]:
            self.fail(f"{label}: {', '.join(out['problems'])}")
        elif digest:
            if self.digest is None:
                self.digest = out["digest"]
            elif out["digest"] != self.digest:
                self.fail(
                    f"{label}: digest {out['digest']} != "
                    f"{'pinned' if self.pinned else 'first run'} "
                    f"{self.digest}"
                )
        return out


def pin_cpu(workload: str) -> int:
    return -1 if workload == "sweep-grid" else max(os.sched_getaffinity(0))


def measure(workload: str, seed: int, seconds: float) -> dict | None:
    cpu = pin_cpu(workload)
    check = Checker(workload, seed)
    check.warm(cpu)
    samples = []
    refs = [reference_seconds(cpu)]
    start = time.monotonic()
    while True:
        began = time.monotonic()
        out = check.run("run", cpu)
        refs.append(reference_seconds(cpu))
        if out is not None:
            samples.append(out)
            print(
                f"  run {check.attempted}: setup {out['setup_s']:.4f} s  "
                f"run {out['run_s']:.4f} s  rss {out['peak_rss_mb']:.1f} MB"
                f"  digest {out['digest']}",
                file=sys.stderr,
            )
        now = time.monotonic()
        if (check.attempted >= MIN_RUNS
                and now + (now - began) > start + seconds):
            break
        if now >= check.deadline:
            break
    if not samples:
        return finish(check, None)
    # Host speed drifts by a third and more over minutes; rescale both
    # timings to a host on which the reference loop takes NOMINAL_S.
    speed = NOMINAL_S / statistics.median(refs)
    print(json.dumps({"ref_s": refs, "samples": [
        {k: s[k] for k in ("setup_s", "run_s", "peak_rss_mb")}
        for s in samples
    ]}))
    median = statistics.median
    return finish(check, {
        "setup_s": {"value": speed * median(s["setup_s"] for s in samples),
                    "unit": "s"},
        "run_s": {"value": speed * median(s["run_s"] for s in samples),
                  "unit": "s"},
        "peak_rss_mb": {"value": median(s["peak_rss_mb"] for s in samples),
                        "unit": "MB"},
    })


def finish(check: Checker, metrics: dict | None) -> dict | None:
    """The result line, or None when no run produced a measurement."""
    for note in check.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    if not metrics:
        return None
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }


def traced_pass(workload: str, seed: int) -> dict | None:
    cpu = pin_cpu(workload)
    check = Checker(workload, seed)
    check.warm(cpu)
    runs = [check.run("run", cpu) for _ in range(2)]
    traces = [check.run("trace", cpu) for _ in range(TRACED_RUNS)]
    plain = [p for p in runs if p is not None]
    traced = [t for t in traces if t is not None]
    if not plain or not traced:
        return finish(check, None)
    median = statistics.median

    summaries = [t["trace"] for t in traced]
    kind_counts = [
        {k: v["count"] for k, v in s["names"].items() if "." not in k}
        for s in summaries
    ]
    if any(c != kind_counts[0] for c in kind_counts):
        check.fail("traced runs dispatched different event counts")
    # Self times and loop_s partition run_s; only a misplaced span can
    # make one of them negative.
    for s in summaries:
        if s["min_self_s"] < -1e-6 or s["loop_s"] < 0:
            check.fail("a span lies outside its parent or the run")
    values: dict[str, float] = {}
    for layer in summaries[0]["layer_self_s"]:
        values[f"{layer}.self_s"] = median(
            s["layer_self_s"].get(layer, 0.0) for s in summaries
        )
    values["core.verdict_s"] = values.pop("core.self_s")
    values["observe.finalize_s"] = median(
        s["names"].get("observe.finalize", {}).get("self_s", 0.0)
        for s in summaries
    )
    values["runtime.loop_s"] = median(s["loop_s"] for s in summaries)
    counts = dict(traced[0]["counts"])
    for kind, count in kind_counts[0].items():
        counts[f"events.{kind}"] = count
        values[f"events.{kind}"] = count
    for name, (num, den) in _RATIOS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts[den] else 0.0
    values["failures.crash_aborts"] = counts["crash_aborts"]
    values["observe.trace_records"] = counts["trace_records"]
    # The pooled grid builds its cells in the workers, so on sweep-grid
    # only the traced serial grid times the per-cell set-up.
    setup_runs = traced if workload == "sweep-grid" else plain
    for part in ("import_s", "inputs_s", "init_s"):
        values[f"setup.{part}"] = median(p[part] for p in setup_runs)

    untraced = median(p["run_s"] for p in plain)
    if workload == "sweep-grid":
        # The traced grid runs serially, so compare it with the serial grid.
        serial = check.run("serial", cpu)
        if serial is not None:
            values["experiments.serial_s"] = serial["run_s"]
            values["experiments.parallel_efficiency"] = serial["run_s"] / (
                plain[0]["workers"] * untraced
            )
            untraced = serial["run_s"]
    values["trace.overhead_x"] = median(t["run_s"] for t in traced) / untraced
    values["observe.overhead_x"] = 1.0
    if workload == "observed-2pc":
        bare = [check.run("run", cpu, "plain") for _ in range(2)]
        bare = [b["run_s"] for b in bare if b is not None]
        if bare:
            values["observe.overhead_x"] = (
                median(p["run_s"] for p in plain) / median(bare)
            )
    if workload == "stack-chaos":
        for rung in LADDER:
            out = check.run("run", cpu, rung, digest=rung == LADDER[-1])
            if out is not None:
                values[f"ladder.{rung}.run_s"] = out["run_s"]
                values[f"ladder.{rung}.events_per_commit"] = (
                    out["counts"]["events"] / out["counts"]["committed"]
                )

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"values": values, "traced": summaries}, fh, indent=1)
    # A metric of a layer this workload never runs reads 0.
    return finish(check, {
        entry["name"]: {"value": values.get(entry["name"], 0.0),
                        "unit": entry["unit"]}
        for entry in load_spec()["per_layer"]
    })


def steadiness(runs: int, seconds: int) -> dict:
    """Run every workload ``runs`` times; summarise each metric."""
    workloads = workload_names()
    table: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    tallies = {w: [0, 0] for w in workloads}
    samples: dict[str, list] = {}
    for i in range(runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(i),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {i}: exit "
                      f"{proc.returncode}", file=sys.stderr)
                tallies[workload][0] += 1
                tallies[workload][1] += 1
                continue
            result = json.loads(lines[-1])
            samples.setdefault(workload, []).append(json.loads(lines[-2]))
            tallies[workload][0] += result["attempted"]
            tallies[workload][1] += result["failed"]
            for name, metric in result["metrics"].items():
                table[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {i}: "
                  + "  ".join(f"{k} {v['value']:.4f}"
                              for k, v in result["metrics"].items()),
                  file=sys.stderr)
    summary = {}
    print(f"{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'iqr/med':>8}  failed/attempted")
    for workload in workloads:
        for name, values in table[workload].items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                "values": values,
            }
            attempted, failed = tallies[workload]
            print(f"{workload:<13} {name:<12} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {spread:>8.4f}  {failed}/{attempted}")
    summary["samples"] = samples
    return summary


def pin(seeds: range) -> None:
    """Record the digest of every workload at every seed in ``seeds``."""
    pins = load_pins()
    jobs = [(w, s) for w in workload_names() for s in seeds]

    def one(job):
        workload, seed = job
        out = spawn(workload, seed, "run", -1)
        if out["problems"]:
            raise ChildFailed(f"{workload} seed {seed}: {out['problems']}")
        return workload, seed, out["digest"]

    with ThreadPoolExecutor(2) as pool:
        for workload, seed, digest in pool.map(one, jobs):
            pins.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", file=sys.stderr)
    for workload in pins:
        pins[workload] = dict(sorted(pins[workload].items(),
                                     key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--pin", metavar="A-B")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no simulator sources under src/repro",
              file=sys.stderr)
        return 2
    if args.pin:
        lo, hi = (int(x) for x in args.pin.split("-"))
        pin(range(lo, hi + 1))
        return 0
    if args.steadiness:
        summary = steadiness(args.steadiness, args.seconds)
        print(json.dumps(summary))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.trace:
            result = traced_pass(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: no run produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
