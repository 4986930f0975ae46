"""Offline analyzer vs the exhaustive oracle, across programs and seeds."""

import numpy as np
import pytest

import repro.offline.engine as engine_mod
from repro import api
from repro.common.sourceloc import pc_of
from repro.obs import live
from repro.ilp.bruteforce import bruteforce_overlap
from repro.ilp.memo import SolverMemo
from repro.ilp.overlap import constraint_of
from repro.itree.builder import TreeBuilder
from repro.offline import analyze_trace
from repro.offline.analyzer import reference_analyze
from repro.offline.engine import AnalysisEngine
from repro.offline.intervals import IntervalInventory
from repro.sword import TraceDir

from conftest import sword_and_oracle


def check(program, trace_dir, *, nthreads=4, seed=0, yield_every=0):
    races, oracle, _rec, _rt = sword_and_oracle(
        program, trace_dir, nthreads=nthreads, seed=seed,
        yield_every=yield_every,
    )
    assert races.pc_pairs() == oracle.pc_pairs(), (
        f"sword={sorted(races.pc_pairs())} oracle={sorted(oracle.pc_pairs())}"
    )
    return races


def test_write_read_race_found(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            if ctx.tid == 0:
                ctx.write(a, 0, 1.0, pc=pc_of("t.c", 1))
            else:
                ctx.read(a, 0, pc=pc_of("t.c", 2))
        m.parallel(body)

    races = check(program, trace_dir)
    assert len(races) == 1


def test_read_read_is_not_a_race(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8, fill=1)

        def body(ctx):
            ctx.read(a, 0)
        m.parallel(body)

    assert len(check(program, trace_dir)) == 0


def test_barrier_separation_suppresses_race(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            if ctx.tid == 0:
                ctx.write(a, 0, 1.0)
            ctx.barrier()
            if ctx.tid == 1:
                ctx.read(a, 0)
        m.parallel(body)

    assert len(check(program, trace_dir)) == 0


def test_common_lock_suppresses_race(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            with ctx.critical():
                ctx.write(a, 0, float(ctx.tid))
        m.parallel(body)

    assert len(check(program, trace_dir)) == 0


def test_different_locks_do_not_suppress(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)
        l1 = m.new_lock("l1")
        l2 = m.new_lock("l2")

        def body(ctx):
            lock = l1 if ctx.tid % 2 == 0 else l2
            with ctx.locked(lock):
                ctx.write(a, 0, 1.0, pc=pc_of("locks.c", ctx.tid % 2 + 1))
        m.parallel(body, nthreads=2)

    races = check(program, trace_dir, nthreads=2)
    assert len(races) == 1


def test_atomic_pair_suppressed_mixed_not(trace_dir):
    def program(m):
        a = m.alloc_scalar("a", np.int64)
        b = m.alloc_scalar("b", np.int64)

        def body(ctx):
            ctx.atomic_add(a, 0, 1)           # atomic-atomic: fine
            if ctx.tid == 0:
                ctx.write(b, 0, 1, pc=pc_of("at.c", 10))   # plain write
            else:
                ctx.atomic_add(b, 0, 1, pc=pc_of("at.c", 11))
        m.parallel(body, nthreads=2)

    races = check(program, trace_dir, nthreads=2)
    assert len(races) == 1  # only the mixed pair on b


def test_strided_non_overlap_not_reported(trace_dir):
    """Figure-4 style: extents overlap but no byte is shared."""

    def program(m):
        a = m.alloc_array("a", 64, dtype=np.int32)  # 4-byte elements

        def body(ctx):
            # Even int32 slots vs odd int32 slots: interleaved, disjoint.
            if ctx.tid == 0:
                ctx.write_slice(a, 0, 64, np.zeros(32, np.int32), step=2)
            else:
                ctx.write_slice(a, 1, 64, np.ones(32, np.int32), step=2)
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir, nthreads=2)) == 0


def test_strided_true_overlap_reported(trace_dir):
    def program(m):
        a = m.alloc_array("a", 64, dtype=np.int32)

        def body(ctx):
            if ctx.tid == 0:
                ctx.write_slice(a, 0, 64, np.zeros(22, np.int32), step=3,
                                pc=pc_of("stride.c", 1))
            else:
                ctx.write_slice(a, 0, 64, np.ones(16, np.int32), step=4,
                                pc=pc_of("stride.c", 2))
        m.parallel(body, nthreads=2)

    races = check(program, trace_dir, nthreads=2)
    assert len(races) == 1


def test_partial_word_overlap_detected(trace_dir):
    """Byte-level overlap of differently-sized accesses."""

    def program(m):
        a = m.alloc_array("a", 8, dtype=np.int64)
        b = m.alloc_array("view", 64, dtype=np.int8)

        def body(ctx):
            if ctx.tid == 0:
                ctx.write(a, 0, 7, pc=pc_of("pw.c", 1))  # 8 bytes
            else:
                ctx.write(b, 0, 1, pc=pc_of("pw.c", 2))  # 1 byte, other array
        m.parallel(body, nthreads=2)

    # Different allocations never overlap.
    assert len(check(program, trace_dir, nthreads=2)) == 0


def test_nested_region_races(trace_dir):
    def program(m):
        y = m.alloc_scalar("y")

        def inner(ctx):
            ctx.write(y, 0, 1.0, pc=pc_of("nest.c", 9))

        def outer(ctx):
            ctx.parallel(inner, nthreads=2)
        m.parallel(outer, nthreads=2)

    races = check(program, trace_dir, nthreads=2)
    assert len(races) == 1


def test_seed_sweep_agreement(trace_dir):
    """Oracle equivalence holds across schedules and preemption rates."""

    def program(m):
        a = m.alloc_array("a", 32)
        total = m.alloc_scalar("t")

        def body(ctx):
            for i in ctx.for_range(32, schedule="dynamic", chunk=3):
                ctx.write(a, i, float(i), pc=pc_of("sweep.c", 1))
            v = ctx.read(a, 0, pc=pc_of("sweep.c", 2))
            ctx.reduce_add(total, 0, v, pc=pc_of("sweep.c", 3))
        m.parallel(body)

    import shutil
    import tempfile

    for seed in range(4):
        for yield_every in (0, 3):
            tmp = tempfile.mkdtemp(prefix="sweep-")
            try:
                check(program, tmp, seed=seed, yield_every=yield_every)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)


def test_streaming_chunk_size_does_not_change_result(trace_dir):
    """The engine hands each frame's records to the tree builder whole;
    sliced into chunks of 1, 7 or 1000 records they seal the same tree."""
    def program(m):
        a = m.alloc_array("a", 256)

        def body(ctx):
            for i in ctx.for_range(256, nowait=True):
                ctx.write(a, i, 1.0, pc=pc_of("chunked.c", 1))
            ctx.read(a, 0, pc=pc_of("chunked.c", 2))
        m.parallel(body)

    races, oracle, _rec, _rt = sword_and_oracle(program, trace_dir)
    assert races.pc_pairs() == oracle.pc_pairs()
    trace = TraceDir(trace_dir)
    intervals = {
        interval.key: interval
        for pair in IntervalInventory(trace).concurrent_pairs()
        for interval in pair
    }
    assert intervals
    with AnalysisEngine(trace) as engine:
        for interval in intervals.values():
            whole = list(engine.build_tree(interval))
            with trace.reader(interval.key.gid) as reader:
                records = np.concatenate([
                    records
                    for begin, size in interval.chunks
                    for records in reader.frame_at(begin, size).iter_events()
                ])
            for step in (1, 7, 1000):
                builder = TreeBuilder()
                for lo in range(0, len(records), step):
                    builder.add_records(records[lo : lo + step])
                assert list(builder.finish()) == whole


def test_ilp_crosscheck_mode(trace_dir, monkeypatch):
    """Every Diophantine solve of a real trace agrees with brute force."""
    def program(m):
        a = m.alloc_array("a", 32, dtype=np.int32)

        def body(ctx):
            step = 2 + ctx.tid
            ctx.write_slice(a, ctx.tid, 32, np.zeros(len(range(ctx.tid, 32, step)), np.int32),
                            step=step, pc=pc_of("x.c", ctx.tid + 1))
        m.parallel(body, nthreads=2)

    races, _oracle, _rec, _rt = sword_and_oracle(program, trace_dir, nthreads=2)
    solved = []
    share_address = SolverMemo.share_address

    def crosschecked(memo, a, b):
        result = share_address(memo, a, b)
        brute = bruteforce_overlap(constraint_of(a), constraint_of(b))
        assert (result is None) == (brute is None), (a, b)
        solved.append(result is not None)
        return result

    monkeypatch.setattr(SolverMemo, "share_address", crosschecked)
    checked = analyze_trace(TraceDir(trace_dir))
    assert checked.races.pc_pairs() == races.pc_pairs()
    assert True in solved  # the race itself went through the solver


def test_stats_populated(trace_dir):
    def program(m):
        a = m.alloc_array("a", 16)

        def body(ctx):
            ctx.write(a, ctx.tid, 1.0)
        m.parallel(body)

    sword_and_oracle(program, trace_dir)
    result = analyze_trace(TraceDir(trace_dir))
    assert result.stats.intervals > 0
    # The disjoint per-thread writes are fully decided from the frame
    # digests: every pair is pruned with zero payload bytes inflated.
    assert result.stats.pairs_pruned > 0
    assert result.stats.frames_pruned > 0
    assert result.stats.trees_built == 0
    assert result.stats.bytes_inflated == 0
    assert result.stats.total_seconds >= 0

    # The reference analysis (no frame-digest prune) builds trees and
    # reads events the eager way on the same trace.
    eager = reference_analyze(trace_dir)
    assert eager.stats.trees_built > 0
    assert eager.stats.events_read > 0
    assert eager.stats.bytes_inflated > 0


def test_abandoned_pair_keeps_stats_and_counters_agreeing(trace_dir, monkeypatch):
    """Salvage mode swallows an exception raised mid-comparison; the
    solves and candidates counted up to that point must reach the
    registry too, not only the stats."""
    def program(m):
        a = m.alloc_array("a", 64)

        def body(ctx):
            for i in range(8):
                ctx.write(a, 8 * i, 1.0, pc=pc_of("s.c", i))
        m.parallel(body, nthreads=2)

    sword_and_oracle(program, trace_dir, nthreads=2)
    solve = engine_mod.check_node_pair
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("solver fell over")
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "check_node_pair", failing)
    obs = live()
    result = api.analyze(trace_dir, integrity="salvage", obs=obs)
    assert result.integrity.pairs_skipped == 1
    counters = obs.snapshot()["counters"]
    assert result.stats.ilp_solves == 3
    assert result.stats.ilp_solves == counters["offline.ilp_solves"]
    assert (
        result.stats.overlap_candidates
        == counters["offline.overlap_candidates"]
    )
    histogram = obs.snapshot()["histograms"]["offline.pair_compare_seconds"]
    assert histogram["count"] == 1
