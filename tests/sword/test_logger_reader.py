"""End-to-end trace collection and streaming readback."""

import json

import numpy as np
import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.common.events import KIND_ACCESS
from repro.memory.accounting import NodeMemory
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir
from repro.sword.traceformat import MANIFEST_NAME, MUTEXSETS_NAME, REGIONS_NAME


def collect(program, trace_dir, *, nthreads=4, buffer_events=64, seed=0,
            accountant=None):
    tool = SwordTool(
        SwordConfig(log_dir=trace_dir, buffer_events=buffer_events),
        accountant=accountant,
    )
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
        tool=tool,
    )
    rt.run(program)
    return tool


def simple_program(m):
    a = m.alloc_array("a", 64)

    def body(ctx):
        lo, hi = ctx.static_chunk(64)
        ctx.write_slice(a, lo, hi, np.arange(lo, hi, dtype=float))
        ctx.barrier()
        ctx.read_slice(a, lo, hi)

    m.parallel(body)


def test_trace_dir_files_exist(trace_dir):
    collect(simple_program, trace_dir)
    trace = TraceDir(trace_dir)
    assert len(trace.thread_gids) == 4
    for gid in trace.thread_gids:
        reader = trace.reader(gid)
        assert reader.rows, f"thread {gid} has no meta rows"
        reader.close()
    for name in (MANIFEST_NAME, REGIONS_NAME, MUTEXSETS_NAME):
        assert (trace.path / name).exists()


def test_metadata_rows_cover_log_bytes(trace_dir):
    collect(simple_program, trace_dir)
    trace = TraceDir(trace_dir)
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            covered = sum(r.size for r in reader.rows)
            assert covered == reader.uncompressed_bytes


def test_chunks_decode_to_original_accesses(trace_dir):
    collect(simple_program, trace_dir, nthreads=2)
    trace = TraceDir(trace_dir)
    all_accesses = []
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            for row in reader.rows:
                records = reader.frame_at(row.data_begin, row.size).events()
                mask = records["kind"] == KIND_ACCESS
                all_accesses.extend(records[mask]["count"].tolist())
    # 2 threads x (1 write range + 1 read range) of 32 elements.
    assert sorted(all_accesses) == [32, 32, 32, 32]


def test_buffer_flushes_span_interval_chunks(trace_dir):
    """Tiny buffer: chunks cross compressed-block boundaries and reassemble."""

    def busy_program(m):
        a = m.alloc_array("a", 512)

        def body(ctx):
            for i in ctx.for_range(512):
                ctx.write(a, i, float(i))
            for i in ctx.for_range(512):
                ctx.read(a, i)

        m.parallel(body, nthreads=2)

    tool = collect(busy_program, trace_dir, nthreads=2, buffer_events=32)
    assert tool.stats["flushes"] > 10
    trace = TraceDir(trace_dir)
    total = 0
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            for row in reader.rows:
                records = reader.frame_at(row.data_begin, row.size).events()
                total += int((records["kind"] == KIND_ACCESS).sum())
    # Two worksharing loops of 512 iterations each (distributed across the
    # team), one access per iteration.
    assert total == 2 * 512


def test_streaming_iter_range_matches_read_range(trace_dir):
    collect(simple_program, trace_dir, buffer_events=16)
    trace = TraceDir(trace_dir)
    gid = trace.thread_gids[0]
    with trace.reader(gid) as reader:
        row = max(reader.rows, key=lambda r: r.size)
        # Two views: events() memoizes, and iter_events() would replay it.
        whole = reader.frame_at(row.data_begin, row.size).events()
        streamed = list(
            reader.frame_at(row.data_begin, row.size).iter_events()
        )
        assert sum(part.shape[0] for part in streamed) == whole.shape[0]
        assert (np.concatenate(streamed) == whole).all()


def test_read_past_end_rejected(trace_dir):
    collect(simple_program, trace_dir)
    trace = TraceDir(trace_dir)
    with trace.reader(trace.thread_gids[0]) as reader:
        from repro.common.errors import TraceFormatError

        with pytest.raises(TraceFormatError):
            reader.frame_at(0, reader.uncompressed_bytes + 40).events()
        with pytest.raises(TraceFormatError):
            reader.frame_at(1, 40).events()  # misaligned


def test_memory_charge_is_per_thread_and_bounded(trace_dir):
    accountant = NodeMemory(limit=10**12)
    collect(simple_program, trace_dir, nthreads=4, accountant=accountant)
    cfg = SwordConfig(log_dir=trace_dir)
    assert accountant.peak("tool") == 4 * cfg.per_thread_bytes


def test_nested_regions_resume_outer_chunks(trace_dir):
    def nested_program(m):
        x = m.alloc_array("x", 8)

        def inner(ctx):
            ctx.write(x, 4 + ctx.tid, 1.0)

        def outer(ctx):
            ctx.write(x, ctx.tid, 1.0)      # outer interval, chunk 1
            if ctx.tid == 0:
                ctx.parallel(inner, nthreads=2)
            ctx.write(x, 2 + ctx.tid, 2.0)  # outer interval, chunk 2
        m.parallel(outer, nthreads=2)

    collect(nested_program, trace_dir, nthreads=2)
    trace = TraceDir(trace_dir)
    # The forking thread's outer interval appears as multiple chunk rows
    # with the same (pid, bid).
    forker = None
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            keyed = {}
            for row in reader.rows:
                keyed.setdefault((row.pid, row.bid), []).append(row)
            if any(len(chunks) > 1 for chunks in keyed.values()):
                forker = gid
    assert forker is not None
    # Regions table carries the fork positions for label reconstruction.
    assert any(info["ppid"] > 0 for info in trace.regions.values())


def test_manifest_statistics(trace_dir):
    tool = collect(simple_program, trace_dir)
    manifest = json.loads((TraceDir(trace_dir).path / MANIFEST_NAME).read_text())
    assert manifest["events"] == tool.stats["events"]
    assert manifest["threads"] == 4
    assert manifest["bytes_uncompressed"] >= manifest["bytes_compressed"] * 0
    assert manifest["buffer_events"] == 64
    assert manifest["codec"] == "zlib"


def test_finalize_after_run_end_is_a_no_op(tmp_path):
    """``on_run_end`` already finalised (and released the buffers); a
    second ``finalize`` must neither raise nor rewrite the trace."""
    tool = collect(simple_program, str(tmp_path))
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    tool.finalize()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
    assert TraceDir(str(tmp_path)).thread_gids
