"""Closed-batch equivalence: the open-system engine at rate 0.

The golden digests below were captured from the pre-open-system
simulator (PR 1's engine) over a 120-cell matrix of workloads x
policies x commit protocols x failure rates x seeds. With
``arrival_rate == 0`` the engine must keep reproducing them bit for
bit — this is the contract that lets every closed-batch result in the
repo's history stay comparable across refactors, and it pins the
hash-seed independence of the site-ordering fix (the digests were
verified identical under several ``PYTHONHASHSEED`` values).

If a change legitimately alters simulation behaviour, regenerate the
digests with the helper at the bottom and say so in the PR. Two
``failure_rate=0.03`` cells — (11, 'timeout', *, 0.03, 5) — were
regenerated when the failure injector learned to keep a site's crash
chain alive while retained locks still await their release
retransmission; every rate-0 cell is untouched from the seed capture.

``test_paxos_f0_degenerates_to_two_phase`` extends the matrix with the
Paxos Commit degeneracy contract: at ``commit_fault_tolerance=0`` the
single acceptor is co-located with the coordinator, so every cell must
be digest-identical to classic 2PC (only the protocol name differs).
``test_paxos_f1_matches_the_goldens`` pins Paxos Commit at its default
F=1 (three acceptors, coordinator takeover) over the same cells without
a durability model, digests extended by the acceptor-bank ledger.
"""

import hashlib
import random

from repro.sim.runtime import SimulationConfig, simulate
from repro.sim.workload import WorkloadSpec, random_system

WORKLOAD_SEEDS = (3, 11)
POLICIES = ("blocking", "wound-wait", "wait-die", "timeout", "detect")
PROTOCOLS = ("instant", "two-phase", "presumed-abort")
SIM_SEEDS = (0, 5)
FAILURE_RATES = (0.0, 0.03)

SPEC = WorkloadSpec(
    n_transactions=5,
    n_entities=5,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=1.0,
)

# The seed-era result surface: every field the pre-open-system
# simulator produced (the new steady-state fields are deliberately
# excluded — they did not exist in the baseline).
FIELDS = (
    "policy", "commit_protocol", "committed", "total", "end_time",
    "aborts", "wounds", "deaths", "timeouts", "detected", "crash_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated",
)


def digest(result, fields=FIELDS) -> str:
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in fields)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


GOLDEN = {
    (3, 'blocking', 'instant', 0.0, 0): '5d4b0fe440de',
    (3, 'blocking', 'instant', 0.0, 5): 'd1ce2dc46926',
    (3, 'blocking', 'instant', 0.03, 0): 'ed30f60d38c5',
    (3, 'blocking', 'instant', 0.03, 5): '45a73b303437',
    (3, 'blocking', 'two-phase', 0.0, 0): '23e4e1188096',
    (3, 'blocking', 'two-phase', 0.0, 5): 'af355b36fd1e',
    (3, 'blocking', 'two-phase', 0.03, 0): '92f9efbacd13',
    (3, 'blocking', 'two-phase', 0.03, 5): '34c508a1f23a',
    (3, 'blocking', 'presumed-abort', 0.0, 0): '321d98294b93',
    (3, 'blocking', 'presumed-abort', 0.0, 5): '9d13a94bb67e',
    (3, 'blocking', 'presumed-abort', 0.03, 0): '99d002b73d22',
    (3, 'blocking', 'presumed-abort', 0.03, 5): '79a8c251682c',
    (3, 'wound-wait', 'instant', 0.0, 0): 'b0e2f7027f54',
    (3, 'wound-wait', 'instant', 0.0, 5): '51c827d974bb',
    (3, 'wound-wait', 'instant', 0.03, 0): '157b4bd6c4a9',
    (3, 'wound-wait', 'instant', 0.03, 5): '3440ab555de1',
    (3, 'wound-wait', 'two-phase', 0.0, 0): 'acefb19fc665',
    (3, 'wound-wait', 'two-phase', 0.0, 5): 'b66e16643836',
    (3, 'wound-wait', 'two-phase', 0.03, 0): 'b335e6974020',
    (3, 'wound-wait', 'two-phase', 0.03, 5): '7fb6fcf3a893',
    (3, 'wound-wait', 'presumed-abort', 0.0, 0): 'bd62ddd137ba',
    (3, 'wound-wait', 'presumed-abort', 0.0, 5): '77563c23bf17',
    (3, 'wound-wait', 'presumed-abort', 0.03, 0): '4dc14ed4068c',
    (3, 'wound-wait', 'presumed-abort', 0.03, 5): '05bba5191967',
    (3, 'wait-die', 'instant', 0.0, 0): '143f4a027fe8',
    (3, 'wait-die', 'instant', 0.0, 5): 'f4b134d445e4',
    (3, 'wait-die', 'instant', 0.03, 0): 'a6ffb9990f5e',
    (3, 'wait-die', 'instant', 0.03, 5): 'c0bbf21e3f1a',
    (3, 'wait-die', 'two-phase', 0.0, 0): 'dc726d1cd221',
    (3, 'wait-die', 'two-phase', 0.0, 5): '31481c5e0097',
    (3, 'wait-die', 'two-phase', 0.03, 0): '8e049378b602',
    (3, 'wait-die', 'two-phase', 0.03, 5): '60a8db1919ab',
    (3, 'wait-die', 'presumed-abort', 0.0, 0): '0993561bcdef',
    (3, 'wait-die', 'presumed-abort', 0.0, 5): 'f6b94aa593ee',
    (3, 'wait-die', 'presumed-abort', 0.03, 0): 'bc53d7c79c9e',
    (3, 'wait-die', 'presumed-abort', 0.03, 5): '858f57fea02e',
    (3, 'timeout', 'instant', 0.0, 0): '4605b929d64c',
    (3, 'timeout', 'instant', 0.0, 5): 'c763cfabe5c4',
    (3, 'timeout', 'instant', 0.03, 0): 'd02e651e7e2d',
    (3, 'timeout', 'instant', 0.03, 5): '80b55f240901',
    (3, 'timeout', 'two-phase', 0.0, 0): 'c2fbbdf3ff7e',
    (3, 'timeout', 'two-phase', 0.0, 5): '6d07d4d73c36',
    (3, 'timeout', 'two-phase', 0.03, 0): 'a34cacc9f647',
    (3, 'timeout', 'two-phase', 0.03, 5): '09cebb741b90',
    (3, 'timeout', 'presumed-abort', 0.0, 0): '75c71b5a7b7b',
    (3, 'timeout', 'presumed-abort', 0.0, 5): 'ed9475edc62c',
    (3, 'timeout', 'presumed-abort', 0.03, 0): 'add7efb47e14',
    (3, 'timeout', 'presumed-abort', 0.03, 5): '19d9aea31aaa',
    (3, 'detect', 'instant', 0.0, 0): '427fd8e5c27e',
    (3, 'detect', 'instant', 0.0, 5): 'b44c86311f9a',
    (3, 'detect', 'instant', 0.03, 0): '4e77f1490cd1',
    (3, 'detect', 'instant', 0.03, 5): 'a069f41c68d9',
    (3, 'detect', 'two-phase', 0.0, 0): 'c4470515bf01',
    (3, 'detect', 'two-phase', 0.0, 5): '42af3d8ed427',
    (3, 'detect', 'two-phase', 0.03, 0): 'c210c8324485',
    (3, 'detect', 'two-phase', 0.03, 5): '52ef693ac5c5',
    (3, 'detect', 'presumed-abort', 0.0, 0): 'eeb4fa01434a',
    (3, 'detect', 'presumed-abort', 0.0, 5): '907af48607fe',
    (3, 'detect', 'presumed-abort', 0.03, 0): '69c943ff5b06',
    (3, 'detect', 'presumed-abort', 0.03, 5): 'f5eba46f60c1',
    (11, 'blocking', 'instant', 0.0, 0): 'ef6b66ed6aa8',
    (11, 'blocking', 'instant', 0.0, 5): 'f2e4a3b9abcb',
    (11, 'blocking', 'instant', 0.03, 0): '0122cb35e338',
    (11, 'blocking', 'instant', 0.03, 5): 'd6d9de24b9ad',
    (11, 'blocking', 'two-phase', 0.0, 0): 'f63f2ec99a63',
    (11, 'blocking', 'two-phase', 0.0, 5): 'b158645c0ae4',
    (11, 'blocking', 'two-phase', 0.03, 0): '22fd2133ab8b',
    (11, 'blocking', 'two-phase', 0.03, 5): 'bdd11fd73de3',
    (11, 'blocking', 'presumed-abort', 0.0, 0): '4bfa166dd3a8',
    (11, 'blocking', 'presumed-abort', 0.0, 5): 'ae3dd84b9630',
    (11, 'blocking', 'presumed-abort', 0.03, 0): '77a921772061',
    (11, 'blocking', 'presumed-abort', 0.03, 5): '3870ac74b571',
    (11, 'wound-wait', 'instant', 0.0, 0): 'e08b9211a45a',
    (11, 'wound-wait', 'instant', 0.0, 5): '2dd9b20ed21c',
    (11, 'wound-wait', 'instant', 0.03, 0): '7717022d7829',
    (11, 'wound-wait', 'instant', 0.03, 5): '66a01ac52a62',
    (11, 'wound-wait', 'two-phase', 0.0, 0): '8a4acdbf8020',
    (11, 'wound-wait', 'two-phase', 0.0, 5): '5c296df74538',
    (11, 'wound-wait', 'two-phase', 0.03, 0): 'b6d424b35d17',
    (11, 'wound-wait', 'two-phase', 0.03, 5): 'd36ba1de4e23',
    (11, 'wound-wait', 'presumed-abort', 0.0, 0): '0c6c12d08066',
    (11, 'wound-wait', 'presumed-abort', 0.0, 5): 'c4ad0f08a870',
    (11, 'wound-wait', 'presumed-abort', 0.03, 0): '51a1a7ecd7e0',
    (11, 'wound-wait', 'presumed-abort', 0.03, 5): '967db9f3fe7f',
    (11, 'wait-die', 'instant', 0.0, 0): 'c1bcfa15f2d2',
    (11, 'wait-die', 'instant', 0.0, 5): '45506ee4055b',
    (11, 'wait-die', 'instant', 0.03, 0): 'fddf02f25e40',
    (11, 'wait-die', 'instant', 0.03, 5): 'cdbed938817e',
    (11, 'wait-die', 'two-phase', 0.0, 0): 'f2734b4eec75',
    (11, 'wait-die', 'two-phase', 0.0, 5): 'e1ecd511d3c8',
    (11, 'wait-die', 'two-phase', 0.03, 0): '005edda18885',
    (11, 'wait-die', 'two-phase', 0.03, 5): '796587132ed4',
    (11, 'wait-die', 'presumed-abort', 0.0, 0): '9696e358551c',
    (11, 'wait-die', 'presumed-abort', 0.0, 5): '4b7524422bb6',
    (11, 'wait-die', 'presumed-abort', 0.03, 0): '462afc4d99dc',
    (11, 'wait-die', 'presumed-abort', 0.03, 5): 'cdee3f8dd4b6',
    (11, 'timeout', 'instant', 0.0, 0): '5e794e169917',
    (11, 'timeout', 'instant', 0.0, 5): '458865e5d60e',
    (11, 'timeout', 'instant', 0.03, 0): '62c8469611bf',
    (11, 'timeout', 'instant', 0.03, 5): 'b75c48225bd9',
    (11, 'timeout', 'two-phase', 0.0, 0): '2a1f68db3758',
    (11, 'timeout', 'two-phase', 0.0, 5): '938b005a0016',
    (11, 'timeout', 'two-phase', 0.03, 0): '4f96f161927a',
    (11, 'timeout', 'two-phase', 0.03, 5): '7471cc659508',
    (11, 'timeout', 'presumed-abort', 0.0, 0): '7945d57098ec',
    (11, 'timeout', 'presumed-abort', 0.0, 5): '07f814874c0d',
    (11, 'timeout', 'presumed-abort', 0.03, 0): '66ae36ddf222',
    (11, 'timeout', 'presumed-abort', 0.03, 5): '45034a02d8e5',
    (11, 'detect', 'instant', 0.0, 0): '8f8b2aa660ea',
    (11, 'detect', 'instant', 0.0, 5): '4b3f34c59df6',
    (11, 'detect', 'instant', 0.03, 0): '0796ec149f66',
    (11, 'detect', 'instant', 0.03, 5): 'e4ae72d7c60c',
    (11, 'detect', 'two-phase', 0.0, 0): 'e1193761a235',
    (11, 'detect', 'two-phase', 0.0, 5): 'e26321d701b8',
    (11, 'detect', 'two-phase', 0.03, 0): '63b6d6e7ef1f',
    (11, 'detect', 'two-phase', 0.03, 5): '0af6db8a75c1',
    (11, 'detect', 'presumed-abort', 0.0, 0): '5da66f06c659',
    (11, 'detect', 'presumed-abort', 0.0, 5): '75cba5185348',
    (11, 'detect', 'presumed-abort', 0.03, 0): 'aea04b5eb5a9',
    (11, 'detect', 'presumed-abort', 0.03, 5): 'd462c92b5335',
}


PAXOS_FIELDS = FIELDS + ("acceptor_messages", "coordinator_takeovers")

# Paxos Commit at F=1, keyed (workload seed, policy, failure rate, sim
# seed); captured before the commit protocols' force points shared one
# helper. One cell, (11, 'wait-die', 0.03, 5), takes a round over.
GOLDEN_PAXOS_F1 = {
    (3, 'blocking', 0.0, 0): 'ab16f8709242',
    (3, 'blocking', 0.0, 5): 'bbc385320be1',
    (3, 'blocking', 0.03, 0): 'f3e6fe66e703',
    (3, 'blocking', 0.03, 5): 'dab5922694aa',
    (3, 'wound-wait', 0.0, 0): '56117686982a',
    (3, 'wound-wait', 0.0, 5): '2158fff890b3',
    (3, 'wound-wait', 0.03, 0): 'cf5da5aadf9c',
    (3, 'wound-wait', 0.03, 5): 'ce434a50d4d2',
    (3, 'wait-die', 0.0, 0): '100fc0d13fb1',
    (3, 'wait-die', 0.0, 5): '970bc84f0402',
    (3, 'wait-die', 0.03, 0): '559bf5271ee7',
    (3, 'wait-die', 0.03, 5): 'e0340755284e',
    (3, 'timeout', 0.0, 0): 'd0e3f33d9e3e',
    (3, 'timeout', 0.0, 5): 'c6b0a0fb086b',
    (3, 'timeout', 0.03, 0): 'a2dd7b59ab01',
    (3, 'timeout', 0.03, 5): '9f38c9410095',
    (3, 'detect', 0.0, 0): '6fb3ab5a8e1b',
    (3, 'detect', 0.0, 5): '49b00ba7599e',
    (3, 'detect', 0.03, 0): 'f81b616da440',
    (3, 'detect', 0.03, 5): '47c1b296058a',
    (11, 'blocking', 0.0, 0): '287638704052',
    (11, 'blocking', 0.0, 5): '5609ceea167e',
    (11, 'blocking', 0.03, 0): '9f67fec83833',
    (11, 'blocking', 0.03, 5): 'f51b33e79ed3',
    (11, 'wound-wait', 0.0, 0): 'bea849896095',
    (11, 'wound-wait', 0.0, 5): 'ebeea70183b6',
    (11, 'wound-wait', 0.03, 0): '7221b6b9aa16',
    (11, 'wound-wait', 0.03, 5): '502b782770e3',
    (11, 'wait-die', 0.0, 0): '14893c4d929f',
    (11, 'wait-die', 0.0, 5): '13c1ac8d5122',
    (11, 'wait-die', 0.03, 0): '0b00402dfc09',
    (11, 'wait-die', 0.03, 5): '1391400fbdcf',
    (11, 'timeout', 0.0, 0): '803a029d7088',
    (11, 'timeout', 0.0, 5): 'df72c75255ca',
    (11, 'timeout', 0.03, 0): 'e700433fcbd4',
    (11, 'timeout', 0.03, 5): '4f9690a6450c',
    (11, 'detect', 0.0, 0): '3f44a5af2a63',
    (11, 'detect', 0.0, 5): '95f545ff3aa8',
    (11, 'detect', 0.03, 0): '186f05801015',
    (11, 'detect', 0.03, 5): 'b75b1b441695',
}


def _cell_result(wseed, policy, protocol, rate, seed, overrides=None):
    system = random_system(random.Random(wseed), SPEC)
    config = SimulationConfig(
        seed=seed,
        network_delay=0.5,
        commit_protocol=protocol,
        failure_rate=rate,
        repair_time=8.0,
        **(overrides or {}),
    )
    return simulate(system, policy, config)


def test_closed_batch_matches_the_seed_simulator():
    mismatches = []
    for (wseed, policy, protocol, rate, seed), expected in GOLDEN.items():
        result = _cell_result(wseed, policy, protocol, rate, seed)
        if digest(result) != expected:
            mismatches.append((wseed, policy, protocol, rate, seed))
    assert mismatches == []


def test_attribution_enabled_matches_the_seed_simulator():
    """The full golden matrix with the attribution engine attached.

    Latency attribution is a probe consumer: enabling it (with the
    tracer alongside) must leave every digest in the matrix untouched,
    while conserving every cell's latency split exactly.
    """
    from repro.sim.observe import ObserveConfig
    from repro.sim.runtime import Simulator

    mismatches = []
    for (wseed, policy, protocol, rate, seed), expected in GOLDEN.items():
        system = random_system(random.Random(wseed), SPEC)
        config = SimulationConfig(
            seed=seed,
            network_delay=0.5,
            commit_protocol=protocol,
            failure_rate=rate,
            repair_time=8.0,
            observe=ObserveConfig(trace=True, attribution=True),
        )
        sim = Simulator(system, policy, config)
        result = sim.run()
        if digest(result) != expected:
            mismatches.append((wseed, policy, protocol, rate, seed))
        assert sim.observe.attribution.engine.check() == []
        assert result.attribution["conservation"]["exact"] is True
    assert mismatches == []


def test_replication_factor_one_matches_the_seed_simulator():
    """The replication_factor=1 column of the matrix.

    With the replication layer *engaged* (a workload spec carrying
    ``replication_factor=1`` plus any replica-control protocol) every
    cell must still reproduce the seed-era digests bit for bit — the
    reduction guarantee is pinned here, not assumed. The exclusive-only
    workload is what makes all three protocols coincide: single-copy
    writes behave identically under rowa, rowa-available, and quorum.
    """
    mismatches = []
    for replica_protocol in ("rowa", "rowa-available", "quorum"):
        replication = {
            "workload": SPEC,  # replication_factor defaults to 1
            "replica_protocol": replica_protocol,
        }
        for (wseed, policy, protocol, rate, seed), expected in (
            GOLDEN.items()
        ):
            result = _cell_result(
                wseed, policy, protocol, rate, seed, replication
            )
            if digest(result) != expected:
                mismatches.append(
                    (replica_protocol, wseed, policy, protocol, rate, seed)
                )
    assert mismatches == []


def test_paxos_f0_degenerates_to_two_phase():
    """Paxos Commit at F=0 is digest-for-digest classic 2PC.

    Gray & Lamport's degeneracy claim, pinned mechanically: with one
    acceptor co-located at the coordinator site every vote relay is
    free and takeover has no candidate, so the message bill, the event
    timing, and hence the entire result surface coincide with 2PC —
    at failure rate 0 *and* under crashes. Only the protocol name
    differs; it is normalised out before hashing.
    """

    def normalised(result) -> str:
        result.commit_protocol = "two-phase"
        return digest(result)

    mismatches = []
    for wseed in WORKLOAD_SEEDS:
        for policy in POLICIES:
            for rate in FAILURE_RATES:
                for seed in SIM_SEEDS:
                    expected = GOLDEN[(wseed, policy, "two-phase", rate,
                                       seed)]
                    system = random_system(random.Random(wseed), SPEC)
                    config = SimulationConfig(
                        seed=seed,
                        network_delay=0.5,
                        commit_protocol="paxos-commit",
                        commit_fault_tolerance=0,
                        failure_rate=rate,
                        repair_time=8.0,
                    )
                    result = simulate(system, policy, config)
                    if normalised(result) != expected:
                        mismatches.append((wseed, policy, rate, seed))
    assert mismatches == []


def test_paxos_f1_matches_the_goldens():
    """Paxos Commit at F=1 under crashes without a durability model.

    The acceptor bank, vote relays and leader takeover all run, and
    their forces (accept and ballot records) complete at once; at least
    one cell exercises a takeover.
    """
    mismatches = []
    takeovers = 0
    for (wseed, policy, rate, seed), expected in GOLDEN_PAXOS_F1.items():
        result = _cell_result(
            wseed, policy, "paxos-commit", rate, seed,
            {"commit_fault_tolerance": 1},
        )
        takeovers += result.coordinator_takeovers
        if digest(result, PAXOS_FIELDS) != expected:
            mismatches.append((wseed, policy, rate, seed))
    assert mismatches == []
    assert takeovers >= 1


def test_goldens_cover_the_whole_matrix():
    assert len(GOLDEN) == (
        len(WORKLOAD_SEEDS) * len(POLICIES) * len(PROTOCOLS)
        * len(FAILURE_RATES) * len(SIM_SEEDS)
    )
    assert len(GOLDEN_PAXOS_F1) == (
        len(WORKLOAD_SEEDS) * len(POLICIES) * len(FAILURE_RATES)
        * len(SIM_SEEDS)
    )


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Print a fresh GOLDEN dict (run after an intentional change)."""
    print("GOLDEN = {")
    for wseed in WORKLOAD_SEEDS:
        for policy in POLICIES:
            for protocol in PROTOCOLS:
                for rate in FAILURE_RATES:
                    for seed in SIM_SEEDS:
                        r = _cell_result(wseed, policy, protocol, rate, seed)
                        key = (wseed, policy, protocol, rate, seed)
                        print(f"    {key!r}: {digest(r)!r},")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
