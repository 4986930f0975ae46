"""Online fault injection: the logger's retry/backoff/degradation policy."""

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.common.errors import FlushError
from repro.faults import FaultySinkFactory, SinkFaultSpec
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir

from repro import api


def _run(tool, *, nthreads=2, seed=0):
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
        tool=tool,
    )

    def program(m):
        a = m.alloc_array("a", 256)

        def body(ctx):
            for i in ctx.for_range(256):
                ctx.write(a, i, float(i))

        m.parallel(body)

    rt.run(program)
    return tool


def _tool(trace_dir, factory, **knobs):
    config = SwordConfig(
        log_dir=str(trace_dir),
        buffer_events=32,
        flush_backoff_seconds=0.0,
        **knobs,
    )
    return SwordTool(config, sink_factory=factory)


def test_sink_fault_spec_schedule():
    spec = SinkFaultSpec(fail_at=3, fail_count=2)
    assert [spec.should_fail(n) for n in range(1, 7)] == [
        False, False, True, True, False, False,
    ]
    permanent = SinkFaultSpec(fail_at=2, permanent=True)
    assert [permanent.should_fail(n) for n in range(1, 5)] == [
        False, True, True, True,
    ]


def test_transient_fault_recovered_by_retry(trace_dir):
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=2, fail_count=1))
    tool = _run(_tool(trace_dir, factory, flush_retries=3))
    assert factory.failures == 1
    assert tool.stats["flush_retries"] >= 1
    assert tool.stats["chunks_dropped"] == 0
    # The trace is fully intact: strict analysis works.
    result = api.analyze(TraceDir(trace_dir))
    assert result.integrity is None


def test_retry_uses_exponential_backoff(trace_dir):
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=1, fail_count=3))
    tool = _tool(trace_dir, factory, flush_retries=3)
    tool.config.flush_backoff_seconds = 0.01
    sleeps = []
    tool._sleep = sleeps.append
    _run(tool)
    assert sleeps[:3] == [0.01, 0.02, 0.04]


def test_permanent_fault_raises_flush_error(trace_dir):
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=1, permanent=True))
    tool = _tool(trace_dir, factory, flush_retries=2)
    with pytest.raises(FlushError) as info:
        _run(tool)
    assert info.value.attempts == 3  # initial try + 2 retries
    assert "flush failed" in str(info.value)


def test_drop_oldest_keeps_run_alive(trace_dir):
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=2, fail_count=50))
    tool = _tool(
        trace_dir, factory, flush_retries=1, flush_degraded="drop-oldest"
    )
    _run(tool)  # must not raise
    assert tool.stats["chunks_dropped"] >= 1
    assert tool.stats["events_dropped"] > 0
    assert tool.dropped_chunks  # exactly what was lost, recorded
    for entry in tool.dropped_chunks:
        assert set(entry) == {"gid", "data_begin", "size", "events"}


def test_dropped_chunks_recorded_in_manifest_and_salvageable(trace_dir):
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=2, fail_count=2))
    tool = _tool(
        trace_dir, factory, flush_retries=0, flush_degraded="drop-oldest"
    )
    _run(tool)
    assert tool.stats["chunks_dropped"] >= 1
    import json
    from pathlib import Path

    manifest = json.loads((Path(trace_dir) / "manifest.json").read_text())
    assert manifest["dropped_chunks"] == tool.dropped_chunks
    # The surviving trace still analyses cleanly: rows are sealed only
    # once their buffer's write outcome is known, and rows overlapping a
    # hole go to lost_rows instead, so strict mode has a consistent (if
    # incomplete) view.
    result = api.analyze(TraceDir(trace_dir))
    assert result.races is not None


def test_rollback_leaves_no_torn_frame(trace_dir):
    """A failed write mid-frame must not corrupt the file for the retry."""

    class PartialThenFailSink:
        """Writes half the frame, then raises (torn write)."""

        def __init__(self, file, schedule):
            self._file = file
            self._schedule = schedule

        def write(self, data):
            self._schedule["n"] += 1
            if self._schedule["n"] == self._schedule["fail_at"]:
                self._file.write(data[: len(data) // 2])
                raise OSError("torn write")
            return self._file.write(data)

        def __getattr__(self, name):
            return getattr(self._file, name)

    schedule = {"n": 0, "fail_at": 2}
    factory = lambda path: PartialThenFailSink(  # noqa: E731
        open(path, "wb"), schedule
    )
    tool = _run(_tool(trace_dir, factory, flush_retries=2))
    assert tool.stats["flush_retries"] >= 1
    # Strict verification: every frame parses, no torn bytes mid-file.
    trace = TraceDir(trace_dir)
    for gid in trace.thread_gids:
        trace.reader(gid).close()


def _barrier_program(m):
    a = m.alloc_array("a", 64)

    def body(ctx):
        lo, hi = ctx.static_chunk(64)
        for step in range(8):
            for i in range(lo, hi):
                ctx.write(a, i, float(step))
            ctx.barrier()

    m.parallel(body)


@pytest.mark.parametrize("durable", [False, True])
def test_drop_oldest_never_leaves_a_row_in_a_hole(trace_dir, durable):
    """A row closed *before* its buffer's flush was dropped is lost too.

    Each barrier closes a chunk whose bytes are still buffered; when that
    buffer's write then fails, every such row must be listed in
    ``lost_rows`` and none may reach the meta file, where the reader
    would serve no events for a row whose digest counts accesses.
    """
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=2, fail_count=2))
    tool = _tool(
        trace_dir, factory, flush_retries=0, flush_degraded="drop-oldest",
        durable=durable,
    )
    rt = OpenMPRuntime(
        RunConfig(nthreads=2, scheduler=SchedulerConfig(seed=0)), tool=tool
    )
    rt.run(_barrier_program)
    assert tool.stats["chunks_dropped"] == 2
    holes = [
        (d["gid"], d["data_begin"], d["data_begin"] + d["size"])
        for d in tool.dropped_chunks
    ]

    def in_hole(gid, begin, size):
        return any(
            g == gid and begin < hi and lo < begin + size
            for g, lo, hi in holes
        )

    # Every lost row really touched a hole, and some row was lost.
    assert tool.lost_rows
    assert all(
        in_hole(r["gid"], r["data_begin"], r["size"]) for r in tool.lost_rows
    )
    trace = TraceDir(trace_dir)
    emitted = 0
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            for view in reader.frames():
                row = view.row
                assert not in_hole(gid, row.data_begin, row.size)
                # The reader serves exactly the records the digest counts.
                assert view.events().shape[0] == view.digest.events
                emitted += 1
    # Rows either reached the meta file or were listed as lost: per
    # thread, 8 barriers + the region's implicit one close a chunk each,
    # and the region end closes the last.
    assert emitted + len(tool.lost_rows) == 2 * 10
    result = api.analyze(TraceDir(trace_dir))
    assert result.races is not None
