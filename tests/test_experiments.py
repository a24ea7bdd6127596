"""The sweep package: grid construction, runner determinism, output."""

import csv
import gc
import json
import weakref

import pytest

from repro.experiments import (
    SweepCell,
    SweepSpec,
    run_cell,
    run_sweep,
    sweep_records,
    write_csv,
    write_json,
)
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import _batches, _run_batch
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import CompiledWorkload, WorkloadSpec

WORKLOAD = WorkloadSpec(
    n_transactions=5,
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.8,
)

SPEC = SweepSpec(
    policies=("wound-wait", "wait-die"),
    protocols=("instant", "two-phase"),
    arrival_rates=(0.0, 0.8),
    failure_rates=(0.0, 0.05),
    seeds=(0, 1, 2),
    workload=WORKLOAD,
    base=SimulationConfig(
        max_transactions=25,
        warmup_time=5.0,
        workload_seed=3,
        repair_time=5.0,
    ),
)


class TestGrid:
    def test_cell_count_and_order(self):
        cells = SPEC.cells()
        assert len(cells) == 2 * 2 * 2 * 2 * 3
        # Declaration order: policy outermost, seed innermost.
        assert cells[0] == SweepCell("wound-wait", "instant", 0.0, 0.0, 0)
        assert cells[1].seed == 1
        assert cells[-1] == SweepCell("wait-die", "two-phase", 0.8, 0.05, 2)

    def test_cell_config_overrides(self):
        cell = SweepCell("wait-die", "two-phase", 0.8, 0.05, 7)
        config = SPEC.cell_config(cell)
        assert config.seed == 7
        assert config.commit_protocol == "two-phase"
        assert config.arrival_rate == 0.8
        assert config.failure_rate == 0.05
        assert config.workload == WORKLOAD
        assert config.max_transactions == 25  # inherited from base
        assert config.workload_seed == 3

    def test_closed_cells_share_one_batch(self):
        closed = SweepCell("wound-wait", "instant", 0.0, 0.0, 0)
        system_a = SPEC.cell_system(closed)
        system_b = SPEC.cell_system(closed)
        assert [t.name for t in system_a] == [t.name for t in system_b]
        assert len(system_a) == WORKLOAD.n_transactions

    def test_open_cells_start_empty(self):
        open_cell = SweepCell("wound-wait", "instant", 0.8, 0.0, 0)
        assert len(SPEC.cell_system(open_cell)) == 0


class TestRunnerDeterminism:
    """The satellite guarantee: the multiprocessing runner is a pure
    speedup — per-cell results are bit-identical to serial execution."""

    def test_parallel_results_bit_identical_to_serial(self):
        serial = run_sweep(SPEC, parallel=False)
        parallel = run_sweep(SPEC, processes=4)
        assert len(serial) == len(SPEC.cells())
        assert serial == parallel

    def test_single_process_pool_matches_serial(self):
        small = SweepSpec(
            policies=("wound-wait",),
            protocols=("instant",),
            arrival_rates=(0.8,),
            failure_rates=(0.0,),
            seeds=(0, 1),
            workload=WORKLOAD,
            base=SPEC.base,
        )
        assert run_sweep(small, processes=1) == run_sweep(
            small, parallel=False
        )

    def test_run_cell_is_reproducible(self):
        cell = SweepCell("wait-die", "two-phase", 0.8, 0.05, 1)
        assert run_cell(SPEC, cell) == run_cell(SPEC, cell)


class TestWorkerFreesEachCell:
    def test_finished_simulator_is_gone_when_the_task_returns(
        self, monkeypatch
    ):
        # A finished Simulator is cyclic garbage, so only a collection
        # frees it. With the automatic collector off, the pool worker's
        # batch must free it itself before it takes the next cell.
        refs = []
        real_run = Simulator.run

        def run(sim):
            refs.append(weakref.ref(sim))
            return real_run(sim)

        monkeypatch.setattr(Simulator, "run", run)
        cell = SweepCell("wait-die", "two-phase", 0.8, 0.05, 1)
        gc.disable()
        try:
            [result] = _run_batch(SPEC, [cell], True)
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()
        assert result == run_cell(SPEC, cell)

    def test_batch_frees_each_cell_and_each_stream(self, monkeypatch):
        # Two streams (seeds 0 and 1), two cells each. When a cell
        # starts, every earlier cell's Simulator is dead; once the
        # batch moves to the second stream, the first is dead too.
        sims, streams, seen = [], [], []
        real_run = Simulator.run

        def run(sim):
            stream = sim.arrivals.stream
            earlier = streams[-1]() if streams else None
            seen.append((
                sum(ref() is not None for ref in sims),
                earlier is not None and earlier is not stream,
            ))
            if earlier is not stream:
                streams.append(weakref.ref(stream))
            sims.append(weakref.ref(sim))
            return real_run(sim)

        monkeypatch.setattr(Simulator, "run", run)
        cells = [
            SweepCell(policy, "two-phase", 0.8, 0.0, seed)
            for seed in (0, 1)
            for policy in ("wound-wait", "wait-die")
        ]
        gc.disable()
        try:
            results = _run_batch(SPEC, cells, True)
            assert seen == [(0, False)] * 4
            assert len(streams) == 2
            assert all(ref() is None for ref in sims + streams)
        finally:
            gc.enable()
        assert results == [run_cell(SPEC, cell) for cell in cells]


def open_grid(**overrides) -> SweepSpec:
    """2 policies x 2 protocols x 2 seeds of open cells."""
    fields = dict(
        policies=("wound-wait", "wait-die"),
        protocols=("instant", "two-phase"),
        arrival_rates=(0.8,),
        seeds=(0, 1),
        workload=WORKLOAD,
        base=SPEC.base,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestBatchesShareTheirStreams:
    """A batch generates each replicate's arrivals once and builds the
    closed batch once; a pool's batches never span two seeds."""

    def test_generate_runs_once_per_seed_and_arrival(self, monkeypatch):
        spec = open_grid()
        calls = []
        real_generate = CompiledWorkload.generate

        def generate(self, name, rng, entities=None):
            calls.append(name)
            return real_generate(self, name, rng, entities)

        monkeypatch.setattr(CompiledWorkload, "generate", generate)
        results = run_sweep(spec, parallel=False)
        assert all(r.injected == 25 for r in results)
        # Once per (seed, arrival); one generation per cell would be
        # four times as many.
        assert len(calls) == len(spec.seeds) * 25

    def test_results_equal_lone_cells_in_cell_order(self):
        spec = open_grid(
            arrival_rates=(0.0, 0.8), failure_rates=(0.0, 0.05)
        )
        assert run_sweep(spec, parallel=False) == [
            run_cell(spec, cell) for cell in spec.cells()
        ]

    def test_batch_builds_the_closed_batch_once(self, monkeypatch):
        built = []
        real_random_system = sweep_module.random_system

        def random_system(rng, workload):
            built.append(workload)
            return real_random_system(rng, workload)

        monkeypatch.setattr(sweep_module, "random_system", random_system)
        cells = [cell for cell in SPEC.cells() if cell.arrival_rate == 0]
        results = _run_batch(SPEC, cells[:6], False)
        assert len(built) == 1
        monkeypatch.undo()
        assert results == [run_cell(SPEC, cell) for cell in cells[:6]]

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 7, 48])
    def test_split_keeps_each_batch_to_one_seed(self, workers):
        cells = SPEC.cells()
        batches = _batches(cells, workers)
        # Every cell in exactly one batch, and the batches, read in
        # order, are the cells stably sorted by seed.
        flat = [index for batch in batches for index in batch]
        assert flat == sorted(range(len(cells)), key=lambda i: cells[i].seed)
        if workers == 1:
            assert len(batches) == 1
            return
        # At least two batches per worker where the cells allow, none
        # spanning two seeds, and each seed's runs near-equal.
        assert len(batches) >= min(2 * workers, len(cells))
        sizes = {}
        for batch in batches:
            assert len({cells[index].seed for index in batch}) == 1
            sizes.setdefault(cells[batch[0]].seed, []).append(len(batch))
        assert all(max(s) - min(s) <= 1 for s in sizes.values())
        assert len({len(s) for s in sizes.values()}) == 1

    def test_enough_seeds_give_one_batch_per_seed(self):
        # Four seeds on two workers, as in perfbench's sweep-grid: each
        # seed's stream is built by exactly one batch.
        spec = open_grid(seeds=(0, 1, 2, 3))
        cells = spec.cells()
        batches = _batches(cells, 2)
        assert [sorted({cells[i].seed for i in b}) for b in batches] == [
            [0], [1], [2], [3]
        ]


class TestRecordsAndOutput:
    @pytest.fixture(scope="class")
    def results(self):
        return run_sweep(SPEC, parallel=False)

    def test_records_align_with_cells(self, results):
        records = sweep_records(SPEC, results)
        assert len(records) == len(SPEC.cells())
        first = records[0]
        for key in (
            "policy", "protocol", "arrival_rate", "failure_rate",
            "seed", "committed", "steady_throughput", "p95",
        ):
            assert key in first
        open_rows = [r for r in records if r["arrival_rate"] > 0]
        assert all(r["injected"] == 25 for r in open_rows)

    def test_records_reject_misaligned_results(self, results):
        with pytest.raises(ValueError, match="cells"):
            sweep_records(SPEC, results[:-1])

    def test_write_json_round_trips(self, results, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(str(path), SPEC, results)
        document = json.loads(path.read_text())
        assert document["spec"]["policies"] == ["wound-wait", "wait-die"]
        assert len(document["cells"]) == len(SPEC.cells())

    def test_write_csv_round_trips(self, results, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(str(path), SPEC, results)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(SPEC.cells())
        assert rows[0]["policy"] == "wound-wait"

    def test_write_csv_rejects_empty_sweeps(self, tmp_path):
        empty = SweepSpec(policies=(), workload=WORKLOAD)
        with pytest.raises(ValueError, match="empty"):
            write_csv(str(tmp_path / "x.csv"), empty, [])
