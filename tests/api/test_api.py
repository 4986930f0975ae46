"""The repro.api facade covers every flow; no legacy entry point remains."""

import json
from pathlib import Path

import pytest

import repro.api as api
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import analyze_trace
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY

WORKLOAD = "plusplus-orig-yes"
NTHREADS = 2


def blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


@pytest.fixture()
def trace_dir(tmp_path):
    trace = tmp_path / "trace"
    workload = REGISTRY.get(WORKLOAD)
    tool = SwordTool(SwordConfig(log_dir=str(trace)))
    rt = OpenMPRuntime(
        RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=0)),
        tool=tool,
    )
    rt.run(lambda m: workload.run_program(m))
    return trace


# -- detect --------------------------------------------------------------------


def test_detect_by_name():
    result = api.detect(WORKLOAD, tool="sword", nthreads=NTHREADS)
    assert result.tool == "sword"
    assert result.race_count == 2


def test_detect_workload_instance():
    result = api.detect(REGISTRY.get(WORKLOAD), tool="sword", nthreads=NTHREADS)
    assert result.race_count == 2


def test_detect_unknown_workload():
    with pytest.raises(KeyError):
        api.detect("no-such-workload")


def test_detect_other_tools():
    assert api.detect(WORKLOAD, tool="baseline", nthreads=NTHREADS).races is None
    assert api.detect(WORKLOAD, tool="archer", nthreads=NTHREADS).race_count == 2


def test_detect_forwards_analysis_options(tmp_path):
    opts = api.AnalysisOptions(
        fastpath=api.FastPathOptions(result_cache=True)
    )
    result = api.detect(
        WORKLOAD,
        nthreads=NTHREADS,
        options=opts,
        trace_dir=str(tmp_path / "t"),
        keep_trace=True,
    )
    assert result.race_count == 2
    assert (tmp_path / "t" / ".sword-cache").is_dir()


# -- analyze -------------------------------------------------------------------


def test_analyze_modes_byte_identical(trace_dir):
    serial = api.analyze(trace_dir, mode="serial")
    parallel = api.analyze(
        trace_dir, mode="parallel", options=api.AnalysisOptions(workers=2)
    )
    streaming = api.analyze(trace_dir, mode="streaming")
    auto = api.analyze(trace_dir)
    gold = blob(serial.races)
    assert blob(parallel.races) == gold
    assert blob(streaming.races) == gold
    assert blob(auto.races) == gold
    assert serial.race_count == 2


def test_analyze_auto_picks_parallel(trace_dir):
    result = api.analyze(trace_dir, options=api.AnalysisOptions(workers=2))
    assert result.race_count == 2


def test_analyze_accepts_str_pathlike_and_tracedir(trace_dir):
    gold = blob(api.analyze(TraceDir(trace_dir)).races)
    assert blob(api.analyze(str(trace_dir)).races) == gold
    assert blob(api.analyze(Path(trace_dir)).races) == gold


def test_analyze_rejects_unknown_mode(trace_dir):
    with pytest.raises(ValueError, match="unknown analysis mode"):
        api.analyze(trace_dir, mode="psychic")


# -- watch ---------------------------------------------------------------------


def test_watch_live_feed():
    live = []
    result = api.watch(WORKLOAD, nthreads=NTHREADS, on_race=live.append)
    assert result.race_count == 2
    assert len(live) == 2
    assert result.time_to_first_race is not None


# -- Session -------------------------------------------------------------------


def test_session_replay(trace_dir):
    with api.Session(trace_dir) as session:
        result = session.analyze()
        assert result.race_count == 2
        assert session.pairs_analyzed > 0
        assert len(session.races) == 2


def test_session_live(tmp_path):
    trace = tmp_path / "live"
    workload = REGISTRY.get(WORKLOAD)
    live = []
    with api.Session(trace, on_race=live.append) as session:
        tool = SwordTool(SwordConfig(log_dir=str(trace)))
        session.attach(tool)
        rt = OpenMPRuntime(
            RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=0)),
            tool=tool,
        )
        rt.run(lambda m: workload.run_program(m))
        result = session.result()
    assert result.race_count == 2
    assert len(live) == 2


def test_session_matches_offline(trace_dir):
    gold = blob(api.analyze(trace_dir, mode="serial").races)
    with api.Session(trace_dir) as session:
        assert blob(session.analyze().races) == gold


# -- path-type fix -------------------------------------------------------------


def test_analyze_trace_accepts_str_and_pathlike(trace_dir):
    gold = blob(analyze_trace(TraceDir(trace_dir)).races)
    assert blob(analyze_trace(str(trace_dir)).races) == gold
    assert blob(analyze_trace(Path(trace_dir)).races) == gold


def test_tracedir_reader_accepts_pathlike(trace_dir):
    trace = TraceDir(Path(trace_dir))
    gid = trace.thread_gids[0]
    with trace.reader(gid) as reader:
        assert reader.uncompressed_bytes >= 0


# -- the compatibility layer is gone ---------------------------------------------


def test_new_names_do_not_warn(trace_dir, recwarn):
    from repro.offline import analyze_trace
    from repro.stream import StreamAnalyzer

    analyze_trace(TraceDir(trace_dir))
    api.analyze(trace_dir, mode="parallel", options=api.AnalysisOptions(workers=2))
    StreamAnalyzer(trace_dir)
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
    # ... and the shims they replaced are deleted, not merely silenced.
    import repro.offline
    import repro.stream
    from repro.sword.reader import ThreadTraceReader

    for owner, legacy in [
        (repro.offline, "OfflineAnalyzer"),
        (repro.offline, "ParallelOfflineAnalyzer"),
        (repro.stream, "StreamingAnalyzer"),
        (ThreadTraceReader, "read_range"),
        (ThreadTraceReader, "iter_range"),
        (ThreadTraceReader, "read_chunk"),
        (api.AnalysisOptions, "from_config"),
        (api.AnalysisOptions, "offline_config"),
    ]:
        assert not hasattr(owner, legacy), legacy
