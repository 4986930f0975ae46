"""Lazy-inflation benchmark: analysis cost in decompressed bytes.

The compressed-trace redesign's claim is that decompression work scales
with the races found, not with the trace size: frame-resident digests
decide most interval pairs straight off the meta rows, so pruned frames
are never inflated.  Two workloads probe the two ends of the claim:

* a **race-free regular** stencil (disjoint residue classes — the shape
  every static-scheduled strided loop produces): the digests prune every
  pair, and the acceptance bound requires ``bytes_inflated`` at most 25%
  of the trace's total uncompressed bytes (it is 0 here);
* the **seeded-race** variant (same stencil plus one hot scalar raced in
  the first interval): the lazy path must produce a byte-identical race
  set to the eager reference analysis (``reference_analyze``: build and
  compare every pair) while still inflating less.

Both legs are timed; the rendered comparison lands in
``benchmarks/results/lazy_inflation.txt``.
"""

import json
import shutil
import tempfile
import time

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import AnalysisOptions, analyze_trace
from repro.offline.analyzer import reference_analyze
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir

NTHREADS = 8
BARRIERS = 32
SWEEPS_PER_INTERVAL = 3
CELLS_PER_THREAD = 48
#: Acceptance: on the race-free regular workload, the lazy path may
#: decompress at most this fraction of the trace's uncompressed bytes.
INFLATION_BOUND = 0.25

LAZY = AnalysisOptions()  # the frame-digest prune is the default
EAGER = None  # the reference analysis


def _program(seeded_race: bool):
    def program(m):
        n = CELLS_PER_THREAD * NTHREADS
        grid = m.alloc_array("grid", n)
        flux = m.alloc_array("flux", n)
        hot = m.alloc_scalar("hot")

        def body(ctx):
            if seeded_race and ctx.tid < 2:
                ctx.write(hot, 0, float(ctx.tid))
            for _ in range(BARRIERS):
                for _ in range(SWEEPS_PER_INTERVAL):
                    ctx.read_slice(grid, ctx.tid, n, step=NTHREADS)
                    ctx.write_slice(
                        flux, ctx.tid, n,
                        [1.0] * CELLS_PER_THREAD, step=NTHREADS,
                    )
                    ctx.write_slice(
                        grid, ctx.tid, n,
                        [2.0] * CELLS_PER_THREAD, step=NTHREADS,
                    )
                ctx.barrier()

        m.parallel(body, nthreads=NTHREADS)

    return program


def _collect(trace_path: str, *, seeded_race: bool) -> None:
    # Small blocks so inflation cost is attributable per barrier
    # interval — one giant block would decompress wholesale on first
    # touch and mask what the pruning saves.
    tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=128))
    rt = OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=0)),
        tool=tool,
    )
    rt.run(_program(seeded_race))


def _trace_bytes(trace_path: str) -> int:
    trace = TraceDir(trace_path)
    total = 0
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            total += reader.uncompressed_bytes
    return total


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


def _blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


def test_lazy_inflation_bytes_and_parity(benchmark, save_result):
    clean_path = tempfile.mkdtemp(prefix="bench-lazy-clean-")
    racy_path = tempfile.mkdtemp(prefix="bench-lazy-racy-")
    try:
        _collect(clean_path, seeded_race=False)
        _collect(racy_path, seeded_race=True)
        clean_total = _trace_bytes(clean_path)
        racy_total = _trace_bytes(racy_path)

        def run_suite():
            lazy_clean_s, lazy_clean = _analyze(clean_path, LAZY)
            eager_clean_s, eager_clean = _analyze(clean_path, EAGER)
            lazy_racy_s, lazy_racy = _analyze(racy_path, LAZY)
            eager_racy_s, eager_racy = _analyze(racy_path, EAGER)
            return (
                lazy_clean_s, lazy_clean, eager_clean_s, eager_clean,
                lazy_racy_s, lazy_racy, eager_racy_s, eager_racy,
            )

        (
            lazy_clean_s, lazy_clean, eager_clean_s, eager_clean,
            lazy_racy_s, lazy_racy, eager_racy_s, eager_racy,
        ) = benchmark.pedantic(run_suite, rounds=1, iterations=1)

        frac = lazy_clean.stats.bytes_inflated / clean_total
        lines = [
            "Lazy inflation on compressed traces "
            f"({NTHREADS} threads x {BARRIERS} barrier intervals):",
            f"  race-free regular workload ({clean_total} trace bytes):",
            f"    lazy : {lazy_clean_s:.4f}s  "
            f"inflated {lazy_clean.stats.bytes_inflated} B "
            f"({100 * frac:.1f}% of trace, bound {100 * INFLATION_BOUND:.0f}%)"
            f"  frames pruned {lazy_clean.stats.frames_pruned}",
            f"    eager: {eager_clean_s:.4f}s  "
            f"inflated {eager_clean.stats.bytes_inflated} B "
            f"({100 * eager_clean.stats.bytes_inflated / clean_total:.1f}%)",
            f"  seeded-race workload ({racy_total} trace bytes):",
            f"    lazy : {lazy_racy_s:.4f}s  "
            f"inflated {lazy_racy.stats.bytes_inflated} B "
            f"({100 * lazy_racy.stats.bytes_inflated / racy_total:.1f}%)"
            f"  races {len(lazy_racy.races)}",
            f"    eager: {eager_racy_s:.4f}s  "
            f"inflated {eager_racy.stats.bytes_inflated} B "
            f"({100 * eager_racy.stats.bytes_inflated / racy_total:.1f}%)",
            "  race sets byte-identical across lazy/eager on both workloads",
        ]
        save_result("lazy_inflation", "\n".join(lines))

        # Correctness before cost: both workloads byte-identical.
        assert _blob(lazy_clean.races) == _blob(eager_clean.races)
        assert _blob(lazy_racy.races) == _blob(eager_racy.races)
        assert len(lazy_racy.races) >= 1
        assert len(lazy_clean.races) == 0

        # The machinery engaged: everything pruned without inflation.
        assert lazy_clean.stats.frames_pruned > 0
        assert lazy_clean.stats.frames_inflated == 0
        # (>=: tree-cache eviction can re-inflate frames on the eager leg)
        assert eager_clean.stats.bytes_inflated >= clean_total

        # The headline acceptance bound.
        assert frac <= INFLATION_BOUND, (
            f"lazy analysis inflated {100 * frac:.1f}% of the race-free "
            f"trace (bound {100 * INFLATION_BOUND:.0f}%)"
        )
    finally:
        shutil.rmtree(clean_path, ignore_errors=True)
        shutil.rmtree(racy_path, ignore_errors=True)
