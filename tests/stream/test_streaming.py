"""Streaming analyzer: live feed, parity, checkpoint kill/resume."""

import json
import shutil
import tempfile

import pytest
from conftest import disk_full_midwrite

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.common.errors import TraceFormatError
from repro.offline import analyze_trace
from repro.omp import OpenMPRuntime
from repro.stream import (
    Checkpoint,
    StreamAnalyzer,
    StreamingInterrupted,
    replay_analyze,
    replay_trace,
    watch,
)
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY


def blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


def make_trace(trace_path, name="c_md", nthreads=4, seed=0):
    workload = REGISTRY.get(name)
    tool = SwordTool(SwordConfig(log_dir=str(trace_path), buffer_events=256))
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
        tool=tool,
    )
    rt.run(lambda m: workload.run_program(m))
    return TraceDir(trace_path)


def test_watch_reports_races_before_run_ends():
    feed = []
    result = watch(
        REGISTRY.get("plusplus-orig-yes"),
        nthreads=4,
        on_race=lambda r: feed.append(r),
    )
    assert result.race_count == 2
    # The live feed fired during the run, strictly before it finished.
    assert len(feed) == 2
    assert result.time_to_first_race is not None
    assert result.time_to_first_race < result.elapsed_seconds
    assert {r.key for r in feed} == result.races.pc_pairs()


def test_watch_matches_post_mortem(trace_dir):
    workload = REGISTRY.get("c_md")
    watched = watch(workload, nthreads=4, seed=0)
    make_trace(trace_dir)
    post = analyze_trace(TraceDir(trace_dir))
    assert blob(watched.races) == blob(post.races)


def test_replay_analyze_matches_post_mortem(trace_dir):
    trace = make_trace(trace_dir, name="figure2-nested")
    post = analyze_trace(trace)
    streamed = replay_analyze(trace_dir)
    assert blob(streamed.races) == blob(post.races)
    assert streamed.stats.concurrent_pairs == post.stats.concurrent_pairs
    # The inventory's time is charged as the serial driver's is.
    assert streamed.stats.plan_seconds > 0


def test_checkpoint_kill_and_resume(trace_dir, tmp_path):
    """The acceptance scenario: die mid-analysis, resume, same race set."""
    trace = make_trace(trace_dir)
    gold = analyze_trace(trace).races
    ckpt = tmp_path / "checkpoint.json"

    with pytest.raises(StreamingInterrupted):
        replay_analyze(trace_dir, checkpoint_path=ckpt, max_pairs=3)
    assert ckpt.exists()
    partial = Checkpoint(ckpt)
    assert len(partial.analyzed) == 3

    resumed = replay_analyze(trace_dir, checkpoint_path=ckpt)
    assert blob(resumed.races) == blob(gold)


def test_resume_skips_checkpointed_pairs(trace_dir, tmp_path):
    trace = make_trace(trace_dir, name="plusplus-orig-yes")
    ckpt = tmp_path / "checkpoint.json"
    first = StreamAnalyzer(trace_dir, checkpoint_path=ckpt)
    replay_trace(trace, first)
    assert first.pairs_analyzed > 0 and first.pairs_skipped == 0

    second = StreamAnalyzer(trace_dir, checkpoint_path=ckpt)
    replay_trace(trace, second)
    assert second.pairs_analyzed == 0
    assert second.pairs_skipped == first.pairs_analyzed
    assert blob(second.races) == blob(first.races)


def test_checkpoint_save_is_atomic_and_versioned(tmp_path):
    path = tmp_path / "ck.json"
    ck = Checkpoint(path)
    ck.analyzed.add(((0, 1, 0), (1, 1, 0)))
    ck.save()
    assert not list(tmp_path.glob("*.tmp"))
    assert Checkpoint(path).analyzed == ck.analyzed

    # A save that fails partway leaves the previous checkpoint and no
    # temp file.
    saved = set(ck.analyzed)
    ck.analyzed.update(((0, 1, b), (1, 1, b)) for b in range(1, 64))
    with disk_full_midwrite(), pytest.raises(OSError):
        ck.save()
    assert Checkpoint(path).analyzed == saved
    assert not list(tmp_path.glob("*.tmp"))

    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(TraceFormatError):
        Checkpoint(path)


@pytest.mark.parametrize(
    "body",
    [
        "{not json",
        "[]",
        '{"version": 1}',
        '{"version": 1, "analyzed": [[1]], "races": []}',
        '{"version": 1, "analyzed": [], "races": [{"x": 1}]}',
    ],
    ids=[
        "not-json", "not-an-object", "no-watermark", "short-pair", "bad-race",
    ],
)
def test_checkpoint_rejects_garbage(tmp_path, body):
    """A resume file is outside input: any wrong shape is one error."""
    path = tmp_path / "ck.json"
    path.write_text(body)
    with pytest.raises(TraceFormatError, match="ck.json"):
        Checkpoint(path)


def test_streaming_handles_race_free_workload():
    result = watch(REGISTRY.get("critical-orig-no"), nthreads=4)
    assert result.race_count == 0
    assert result.time_to_first_race is None


def test_streaming_tasking_extension_parity(trace_dir):
    """Tasky groups wait for the seal, then judge with the final graph."""
    trace = make_trace(trace_dir, name="task-reduce-racy")
    post = analyze_trace(trace)
    assert blob(replay_analyze(trace_dir).races) == blob(post.races)
    watched = watch(REGISTRY.get("task-reduce-racy"), nthreads=4, seed=0)
    assert blob(watched.races) == blob(post.races)
