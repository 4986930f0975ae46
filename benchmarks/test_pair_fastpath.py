"""Fast-path benchmark: pruning + memoization on a pair-heavy workload.

The workload is built to look like a production OpenMP stencil sweep: 8
threads, 32 barrier intervals, each thread repeatedly sweeping its own
residue class of one shared array (disjoint mod ``8 * NTHREADS`` — the
pattern every static-scheduled strided loop produces).  That yields
thousands of concurrent interval pairs whose trees can never overlap,
which the unpruned reference analysis (``reference_analyze``) proves one
``iter_overlaps`` walk at a time and the digest prune dismisses in O(1)
per pair.  A genuine race on a hot
scalar (threads 0 and 1, before the first barrier) keeps the workload
honest: the fast path must still find exactly the same races,
byte-for-byte.

Acceptance: fast path >= 2x faster than naive on this workload, race
reports byte-identical, and a warm persistent-cache pass faster than the
cold fast pass while serving pair verdicts from disk.
"""

import json
import shutil
import tempfile
import time

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import (
    AnalysisOptions,
    FastPathOptions,
    analyze_trace,
)
from repro.offline.analyzer import reference_analyze
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir

NTHREADS = 8
BARRIERS = 32
SWEEPS_PER_INTERVAL = 3
CELLS_PER_THREAD = 48
SPEEDUP_TARGET = 2.0
REPEATS = 3

FAST = AnalysisOptions()
CACHED = AnalysisOptions(fastpath=FastPathOptions(result_cache=True))


def _program(m):
    n = CELLS_PER_THREAD * NTHREADS
    grid = m.alloc_array("grid", n)
    flux = m.alloc_array("flux", n)
    hot = m.alloc_scalar("hot")

    def body(ctx):
        # The seeded race: unsynchronised writes to one scalar by
        # threads 0 and 1, confined to the first barrier interval.
        if ctx.tid < 2:
            ctx.write(hot, 0, float(ctx.tid))
        for _ in range(BARRIERS):
            for _ in range(SWEEPS_PER_INTERVAL):
                # Disjoint residue classes: thread t touches only
                # indices == t (mod NTHREADS), so no cross-thread pair
                # of sweep nodes ever shares a byte.
                ctx.read_slice(grid, ctx.tid, n, step=NTHREADS)
                ctx.write_slice(
                    flux,
                    ctx.tid,
                    n,
                    [1.0] * CELLS_PER_THREAD,
                    step=NTHREADS,
                )
                ctx.write_slice(
                    grid,
                    ctx.tid,
                    n,
                    [2.0] * CELLS_PER_THREAD,
                    step=NTHREADS,
                )
            ctx.barrier()

    m.parallel(body, nthreads=NTHREADS)


def _collect(trace_path: str) -> None:
    tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=1024))
    rt = OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=0)),
        tool=tool,
    )
    rt.run(_program)


def _analyze(trace_path: str, options: AnalysisOptions | None):
    """One timed analysis; ``options=None`` is the reference analysis."""
    t0 = time.perf_counter()
    if options is None:
        result = reference_analyze(TraceDir(trace_path))
    else:
        result = analyze_trace(
            TraceDir(trace_path), options=options
        )
    return time.perf_counter() - t0, result


def blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


def test_pair_fastpath_speedup(benchmark, save_result):
    trace_path = tempfile.mkdtemp(prefix="bench-fastpath-")
    try:
        _collect(trace_path)

        def run_suite():
            # Warm-up both legs once, then interleaved min-of-N.
            _analyze(trace_path, None)
            _analyze(trace_path, FAST)
            naive_s = fast_s = float("inf")
            naive_res = fast_res = None
            for _ in range(REPEATS):
                t, r = _analyze(trace_path, None)
                if t < naive_s:
                    naive_s, naive_res = t, r
                t, r = _analyze(trace_path, FAST)
                if t < fast_s:
                    fast_s, fast_res = t, r
            # Persistent cache: one cold pass to fill, one warm pass.
            cold_s, _ = _analyze(trace_path, CACHED)
            warm_s, warm_res = _analyze(trace_path, CACHED)
            return naive_s, fast_s, cold_s, warm_s, naive_res, fast_res, warm_res

        naive_s, fast_s, cold_s, warm_s, naive_res, fast_res, warm_res = (
            benchmark.pedantic(run_suite, rounds=1, iterations=1)
        )

        speedup = naive_s / fast_s
        warm_speedup = naive_s / warm_s
        stats = fast_res.stats
        lines = [
            "Fast-path pair analysis "
            f"({NTHREADS} threads x {BARRIERS} barrier intervals, "
            f"{stats.concurrent_pairs} concurrent pairs):",
            f"  naive (reference):    {naive_s:.4f}s",
            f"  fast  (prune + memo): {fast_s:.4f}s   "
            f"speedup {speedup:.2f}x",
            f"  cache cold:           {cold_s:.4f}s",
            f"  cache warm:           {warm_s:.4f}s   "
            f"speedup {warm_speedup:.2f}x",
            f"  pairs pruned: {stats.pairs_pruned}/{stats.concurrent_pairs}"
            f"  memo hits: {stats.solver_memo_hits}"
            f"  pair-cache hits: {warm_res.stats.pair_cache_hits}",
            f"  races: {len(fast_res.races)} (byte-identical across legs)",
        ]
        save_result("pair_fastpath", "\n".join(lines))

        # Correctness before speed: all legs byte-identical, race present.
        gold = blob(naive_res.races)
        assert blob(fast_res.races) == gold
        assert blob(warm_res.races) == gold
        assert len(naive_res.races) >= 1

        # The machinery actually engaged.
        assert stats.pairs_pruned > 0
        assert warm_res.stats.pair_cache_hits > 0

        # The headline acceptance bound.
        assert speedup >= SPEEDUP_TARGET, (
            f"fast path only {speedup:.2f}x faster than naive "
            f"(target {SPEEDUP_TARGET}x)"
        )
    finally:
        shutil.rmtree(trace_path, ignore_errors=True)
