"""Every workload's ground truth, verified under both tools and the oracle.

For each registered benchmark:

* SWORD (trace + offline analysis) finds exactly the seeded race site pairs
  and agrees with the exhaustive oracle on the same execution;
* ARCHER finds exactly ``seeded - archer_misses`` of them (the misses being
  the eviction / happens-before-masking mechanisms), and never reports a
  pair SWORD does not;
* race-free benchmarks produce zero reports from every tool (the
  no-false-alarm property the paper stresses).
"""

import shutil
import tempfile

import pytest

from repro.archer import ArcherTool
from repro.common.config import (
    ArcherConfig,
    RunConfig,
    SchedulerConfig,
    SwordConfig,
)
from repro.offline import analyze_trace, oracle_races
from repro.omp import OpenMPRuntime, RecordingTool, ToolMux
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY

NTHREADS = 4
SEED = 0

#: Heavier parameterisations get scaled down for the unit-test tier.
FAST_PARAMS = {
    "lulesh": {"steps": 6},
    "amg2013_10": {"sweeps": 5},
    "amg2013_20": {"sweeps": 5},
    "amg2013_30": {"sweeps": 5},
    "amg2013_40": {"sweeps": 5},
}

#: Large-footprint runs exercised by the benchmark tier instead.
SLOW = {"amg2013_30", "amg2013_40"}

WORKLOADS = [w for w in REGISTRY if w.name not in SLOW]


def _run_both(workload):
    params = FAST_PARAMS.get(workload.name, {})
    trace = tempfile.mkdtemp(prefix=f"gt-{workload.name.replace('/', '_')}-")
    try:
        rec = RecordingTool()
        sword_tool = SwordTool(SwordConfig(log_dir=trace, buffer_events=256))
        rt = OpenMPRuntime(
            RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
            tool=ToolMux([rec, sword_tool]),
        )
        rt.run(lambda m: workload.run_program(m, **params))
        sword = analyze_trace(TraceDir(trace)).races
        oracle = oracle_races(rec, rt.mutexsets)
    finally:
        shutil.rmtree(trace, ignore_errors=True)

    archer_tool = ArcherTool(ArcherConfig())
    rt2 = OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
        tool=archer_tool,
    )
    rt2.run(lambda m: workload.run_program(m, **params))
    return sword, oracle, archer_tool.races


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_ground_truth(workload):
    sword, oracle, archer = _run_both(workload)

    # SWORD is exact w.r.t. the oracle on this execution.
    assert sword.pc_pairs() == oracle.pc_pairs()

    # The seeded count is the reproduction's documented ground truth.
    assert len(sword) == workload.seeded_races, (
        f"sword found {len(sword)}, seeded {workload.seeded_races}"
    )

    if not workload.racy:
        assert len(sword) == 0
        assert len(archer) == 0
        return

    # ARCHER: a subset of SWORD's pairs, short exactly the known misses
    # (schedule-dependent workloads have no fixed count; E8 sweeps them).
    assert archer.pc_pairs() <= sword.pc_pairs()
    if not workload.archer_schedule_dependent:
        assert len(archer) == workload.seeded_races - workload.archer_misses


def test_registry_metadata_consistency():
    for w in REGISTRY:
        assert w.suite in (
            "dataracebench",
            "ompscr",
            "hpc",
            "paper",
            "tasking",
            "staticlab",
        )
        assert w.seeded_races >= 0
        assert 0 <= w.archer_misses <= max(w.seeded_races, 1) or w.seeded_races == 0
        if not w.racy:
            assert w.seeded_races == 0 and w.documented_races == 0
        assert w.description, f"{w.name} lacks a description"


def test_registry_lookup_errors():
    with pytest.raises(KeyError):
        REGISTRY.get("no-such-benchmark")
    with pytest.raises(ValueError):
        from repro.harness.experiments.common import suite_workloads

        suite_workloads("dataracebench", include=["no-such"])


def test_make_params_rejects_unknown_override():
    w = REGISTRY.get("hpccg")
    with pytest.raises(KeyError):
        w.make_params(bogus=1)
    p = w.make_params(n=64)
    assert p.n == 64 and p.iters == w.params["iters"]
