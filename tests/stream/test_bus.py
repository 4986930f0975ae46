"""Flush-event bus: live notification contract and replay equivalence."""

from collections import defaultdict

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.omp import OpenMPRuntime
from repro.stream import TraceObserver, replay_trace
from repro.sword import SwordTool, TraceDir
from repro.sword.reader import ThreadTraceReader


class Recorder(TraceObserver):
    """Captures every notification in arrival order."""

    def __init__(self):
        self.events = []

    def on_trace_begin(self, producer):
        self.events.append(("begin",))

    def on_region(self, pid, info):
        self.events.append(("region", pid, dict(info)))

    def on_chunk(self, gid, row):
        self.events.append(("chunk", gid, row))

    def on_interval_end(self, gid, pid, bid, slot, span):
        self.events.append(("end", gid, pid, bid, slot, span))

    def on_trace_end(self, producer):
        self.events.append(("finish",))


def two_interval_program(m):
    a = m.alloc_scalar("a")

    def body(ctx):
        ctx.write(a, 0, float(ctx.tid))
        ctx.barrier()
        ctx.read(a, 0)

    m.parallel(body, nthreads=3)


def run_with_observer(trace_dir, observer, program=two_interval_program):
    tool = SwordTool(SwordConfig(log_dir=trace_dir, buffer_events=64))
    tool.subscribe(observer)
    rt = OpenMPRuntime(
        RunConfig(nthreads=3, scheduler=SchedulerConfig(seed=0)), tool=tool
    )
    rt.run(program)
    return tool


def test_live_notification_ordering(trace_dir):
    rec = Recorder()
    run_with_observer(trace_dir, rec)

    kinds = [e[0] for e in rec.events]
    assert kinds[0] == "begin"
    assert kinds[-1] == "finish"
    assert kinds.count("begin") == 1 and kinds.count("finish") == 1

    # Every chunk's region was announced first.
    announced = set()
    seen_chunk_pids = []
    for e in rec.events:
        if e[0] == "region":
            announced.add(e[1])
        elif e[0] == "chunk":
            seen_chunk_pids.append(e[2].pid)
            assert e[2].pid in announced

    # Three barrier intervals per thread: bid 0, the post-barrier bid 1,
    # and bid 2 after the implicit region-end barrier.
    ends = [e for e in rec.events if e[0] == "end"]
    assert {(gid, pid, bid) for _, gid, pid, bid, _, _ in ends} == {
        (gid, 1, bid) for gid in (0, 1, 2) for bid in (0, 1, 2)
    }

    # The last chunk of each interval precedes its end notification.
    last_chunk_pos = {}
    for i, e in enumerate(rec.events):
        if e[0] == "chunk":
            last_chunk_pos[(e[1], e[2].pid, e[2].bid)] = i
    for i, e in enumerate(rec.events):
        if e[0] == "end":
            _, gid, pid, bid, _, _ = e
            assert last_chunk_pos[(gid, pid, bid)] < i


def test_chunk_data_durable_when_notified(trace_dir):
    """A live reader can materialise every chunk inside its notification."""
    import pathlib

    trace_dir = pathlib.Path(trace_dir)

    class ChunkReader(TraceObserver):
        def __init__(self):
            self.readers = {}
            self.events_seen = 0

        def on_chunk(self, gid, row):
            reader = self.readers.get(gid)
            if reader is None:
                reader = ThreadTraceReader(trace_dir, gid, live=True)
                self.readers[gid] = reader
            records = reader.frame_at(row.data_begin, row.size).events()
            self.events_seen += records.shape[0]

        def on_trace_end(self, producer):
            for reader in self.readers.values():
                reader.close()

    obs = ChunkReader()
    tool = run_with_observer(trace_dir, obs)
    assert obs.events_seen == tool.stats["events"]


def test_replay_matches_live_sequence(trace_dir):
    live = Recorder()
    run_with_observer(trace_dir, live)

    replayed = Recorder()
    replay_trace(TraceDir(trace_dir), replayed)

    def summarize(rec):
        regions = {e[1]: e[2] for e in rec.events if e[0] == "region"}
        chunks = defaultdict(list)
        for e in rec.events:
            if e[0] == "chunk":
                chunks[e[1]].append(e[2])
        ends = {tuple(e[1:]) for e in rec.events if e[0] == "end"}
        return regions, dict(chunks), ends

    # Same regions, identical per-thread chunk-row sequences, same
    # interval completions (cross-thread interleaving may differ).
    assert summarize(replayed) == summarize(live)


def test_unsubscribed_logger_output_unchanged(trace_dir, tmp_path):
    """Observers force eager flushes; the resulting trace is identical."""
    run_with_observer(trace_dir, Recorder())
    plain = tmp_path / "plain"
    tool = SwordTool(SwordConfig(log_dir=str(plain), buffer_events=64))
    rt = OpenMPRuntime(
        RunConfig(nthreads=3, scheduler=SchedulerConfig(seed=0)), tool=tool
    )
    rt.run(two_interval_program)

    observed = TraceDir(trace_dir)
    baseline = TraceDir(plain)
    for gid in baseline.thread_gids:
        with baseline.reader(gid) as a, observed.reader(gid) as b:
            assert a.rows == b.rows
