"""Cascade parity: pruning, memoization, and the persistent cache must
be invisible in the output — byte-identical races to the unpruned
reference analysis (``reference_analyze``).
"""

import json
import shutil
import tempfile

import pytest

from repro import api
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.common.errors import ConfigError
from repro.offline import (
    AnalysisOptions,
    FastPathOptions,
    analyze_trace,
)
from repro.offline.analyzer import reference_analyze
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY

NTHREADS = 4
SEED = 0

FAST = AnalysisOptions()

#: Racy workloads from the DataRaceBench and paper-example suites — the
#: suites with hand-seeded ground truth (tests/workloads) — plus the
#: racy tasking programs for the execution-point dimension.
PARITY = [
    w
    for w in REGISTRY
    if w.racy and w.suite in ("dataracebench", "paper", "tasking")
]


def blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


def collect(workload, trace_path, **params):
    tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=256))
    rt = OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
        tool=tool,
    )
    rt.run(lambda m: workload.run_program(m, **params))


@pytest.mark.parametrize("workload", PARITY, ids=lambda w: w.name)
def test_fastpath_byte_identical(workload):
    trace_path = tempfile.mkdtemp(prefix=f"fastpath-{workload.name}-")
    try:
        collect(workload, trace_path)
        trace = TraceDir(trace_path)
        ref = reference_analyze(trace)
        fast = analyze_trace(trace, options=FAST)
        assert blob(fast.races) == blob(ref.races)
        assert len(ref.races) == workload.seeded_races
        # The reference must not silently use any cascade machinery.
        assert ref.stats.pairs_pruned == 0
        assert ref.stats.pair_cache_hits == 0
        assert ref.stats.solver_memo_hits == 0
        assert ref.stats.solver_memo_misses == 0
    finally:
        shutil.rmtree(trace_path, ignore_errors=True)


def _residue_program(m):
    """Disjoint residue-class sweeps plus one genuine race on a scalar."""
    arr = m.alloc_array("grid", 64 * NTHREADS)
    hot = m.alloc_scalar("hot")

    def body(ctx):
        for i in range(ctx.tid, 64 * NTHREADS, NTHREADS):
            ctx.write(arr, i, float(i))
        if ctx.tid < 2:
            ctx.write(hot, 0, float(ctx.tid))

    m.parallel(body, nthreads=NTHREADS)


def test_pruning_fires_and_keeps_the_race(tmp_path):
    trace_path = str(tmp_path / "trace")
    tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=256))
    OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
        tool=tool,
    ).run(_residue_program)
    trace = TraceDir(trace_path)
    ref = reference_analyze(trace)
    fast = analyze_trace(trace, options=FAST)
    assert blob(fast.races) == blob(ref.races)
    assert len(fast.races) >= 1
    assert fast.stats.pairs_pruned > 0
    # Pruned pairs skip tree building and solving entirely.
    assert fast.stats.ilp_solves <= ref.stats.ilp_solves


def test_persistent_cache_warm_run_identical(tmp_path):
    workload = REGISTRY.get("plusplus-orig-yes")
    trace_path = str(tmp_path / "trace")
    collect(workload, trace_path)
    cached = AnalysisOptions(
        fastpath=FastPathOptions(result_cache=True)
    )
    trace = TraceDir(trace_path)
    cold = analyze_trace(trace, options=cached)
    assert cold.stats.pair_cache_hits == 0
    warm = analyze_trace(TraceDir(trace_path), options=cached)
    assert warm.stats.pair_cache_hits > 0
    assert blob(warm.races) == blob(cold.races)
    # The digest test runs before the cache: a pruned pair is pruned
    # again on the warm run (never a hit) and never cost a verdict file;
    # only the pairs that were compared are stored and replayed.
    pairs = cold.stats.concurrent_pairs
    pruned = cold.stats.pairs_pruned
    assert 0 < pruned < pairs
    assert warm.stats.pairs_pruned == pruned
    assert warm.stats.pair_cache_hits == pairs - pruned
    stored = list((tmp_path / "trace" / ".sword-cache" / "pairs").iterdir())
    assert len(stored) == pairs - pruned
    gold = reference_analyze(trace_path)
    assert blob(warm.races) == blob(gold.races)
    assert (tmp_path / "trace" / ".sword-cache").is_dir()


def test_cache_invalidation_on_trace_regeneration(tmp_path):
    """Rewriting the trace in place must invalidate every stale entry."""
    trace_path = str(tmp_path / "trace")
    racy = REGISTRY.get("plusplus-orig-yes")
    quiet = REGISTRY.get("antidep1-var-no")
    cached = AnalysisOptions(
        fastpath=FastPathOptions(result_cache=True)
    )

    collect(racy, trace_path)
    first = analyze_trace(TraceDir(trace_path), options=cached)
    assert len(first.races) == racy.seeded_races > 0

    # Regenerate the trace in the same directory with the race-free
    # variant; the cache dir survives but its tokens must all miss.
    cache_dir = tmp_path / "trace" / ".sword-cache"
    saved = tmp_path / "saved-cache"
    shutil.copytree(cache_dir, saved)
    shutil.rmtree(trace_path)
    collect(quiet, trace_path)
    shutil.copytree(saved, cache_dir)

    second = analyze_trace(TraceDir(trace_path), options=cached)
    assert second.stats.pair_cache_hits == 0
    assert len(second.races) == 0
    gold = reference_analyze(trace_path)
    assert blob(second.races) == blob(gold.races)


def test_explicit_cache_dir(tmp_path):
    workload = REGISTRY.get("plusplus-orig-yes")
    trace_path = str(tmp_path / "trace")
    collect(workload, trace_path)
    cache_dir = tmp_path / "elsewhere"
    opts = AnalysisOptions(
        fastpath=FastPathOptions(result_cache=True, cache_dir=str(cache_dir))
    )
    cold = analyze_trace(TraceDir(trace_path), options=opts)
    warm = analyze_trace(TraceDir(trace_path), options=opts)
    assert warm.stats.pair_cache_hits > 0
    assert blob(warm.races) == blob(cold.races)
    assert cache_dir.is_dir()
    assert not (tmp_path / "trace" / ".sword-cache").exists()


@pytest.mark.parametrize("mode", ["serial", "streaming", "parallel"])
def test_cache_dir_that_is_a_file_is_refused(tmp_path, mode):
    """A file where the cache root should be would turn every store into
    a miss: resume silently off.  Every mode refuses it up front."""
    trace_path = str(tmp_path / "trace")
    collect(REGISTRY.get("plusplus-orig-yes"), trace_path)
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    opts = AnalysisOptions(
        workers=2,
        fastpath=FastPathOptions(result_cache=True, cache_dir=str(not_a_dir)),
    )
    with pytest.raises(ConfigError, match="not a directory"):
        api.analyze(trace_path, mode=mode, options=opts)


def test_memo_counts_surface_in_stats(tmp_path):
    trace_path = str(tmp_path / "trace")
    tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=256))
    OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
        tool=tool,
    ).run(_residue_program)
    fast = analyze_trace(TraceDir(trace_path), options=FAST)
    payload = fast.stats.to_json()
    for key in (
        "pairs_pruned",
        "solver_memo_hits",
        "solver_memo_misses",
        "pair_cache_hits",
    ):
        assert key in payload
