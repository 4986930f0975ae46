"""Streaming analyzer: live feed, parity, kill/resume through the cache."""

import json

import pytest
from conftest import Killed, kill_after

from repro import api
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import AnalysisOptions, FastPathOptions, analyze_trace
from repro.omp import OpenMPRuntime
from repro.stream import replay_analyze, watch
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


@pytest.mark.parametrize("mode", ["serial", "streaming"])
@pytest.mark.parametrize("name", ["plusplus-orig-yes", "task-reduce-racy"])
def test_cache_resumes_a_kill_at_every_pair(trace_dir, tmp_path, name, mode):
    """A resume is a rerun with the result cache on: killed after any k
    compared pairs, the rerun replays exactly those k from the pair store
    and ends on the uninterrupted race set."""
    make_trace(trace_dir, name=name)
    gold = api.analyze(trace_dir, mode=mode)
    compared = gold.stats.concurrent_pairs - gold.stats.pairs_pruned
    assert compared >= 3
    for k in range(compared + 1):
        options = AnalysisOptions(
            fastpath=FastPathOptions(
                result_cache=True, cache_dir=str(tmp_path / f"cache-{k}")
            )
        )
        with pytest.MonkeyPatch.context() as patch:
            kill_after(patch, k)
            try:
                api.analyze(trace_dir, mode=mode, options=options)
                assert k == compared
            except Killed:
                assert k < compared
        resumed = api.analyze(trace_dir, mode=mode, options=options)
        assert blob(resumed.races) == blob(gold.races)
        assert resumed.stats.pair_cache_hits == k


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
