"""Parallel mode: one job through a short-lived analysis service.

``api.analyze(mode="parallel")`` submits the trace to a one-job
``Service`` and returns its result, so it agrees with the serial analyzer,
shares the service's worker pool, and fails loudly when a shard fails.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api as api
from repro.__main__ import main
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.obs import live
from repro.offline import AnalysisOptions, analyze_trace
from repro.omp import OpenMPRuntime
from repro.serve import JobFailedError
from repro.sword import SwordTool, TraceDir


def racy_multi_region(m):
    a = m.alloc_array("a", 64)
    b = m.alloc_scalar("b")

    def phase1(ctx):
        if ctx.tid == 0:
            ctx.write(a, 0, 1.0)
        ctx.read(a, 0)

    def phase2(ctx):
        for i in ctx.for_range(64, nowait=True):
            ctx.write(a, i, float(i))
        ctx.write(b, 0, 1.0)

    m.parallel(phase1)
    m.parallel(phase2)


@pytest.fixture
def collected(trace_dir):
    tool = SwordTool(SwordConfig(log_dir=trace_dir, buffer_events=64))
    rt = OpenMPRuntime(
        RunConfig(nthreads=4, scheduler=SchedulerConfig(seed=1)), tool=tool
    )
    rt.run(racy_multi_region)
    return trace_dir


def parallel(trace, workers, **kwargs):
    return api.analyze(
        trace, mode="parallel", options=AnalysisOptions(workers=workers),
        **kwargs,
    )


def test_parallel_matches_serial(collected):
    serial = analyze_trace(TraceDir(collected))
    result = parallel(collected, 3)
    assert result.races.pc_pairs() == serial.races.pc_pairs()
    assert result.stats.concurrent_pairs == serial.stats.concurrent_pairs


def test_one_requested_worker_widens_to_the_default_pool(collected):
    result = parallel(collected, 1)
    serial = analyze_trace(TraceDir(collected))
    assert result.races.pc_pairs() == serial.races.pc_pairs()


def test_more_workers_than_pairs(collected):
    result = parallel(collected, 16)
    serial = analyze_trace(TraceDir(collected))
    # More workers than pairs left to compare after the plan-time prune.
    assert result.stats.concurrent_pairs - result.stats.pairs_pruned < 16
    assert result.races.pc_pairs() == serial.races.pc_pairs()


def test_a_failing_shard_fails_the_call(collected, monkeypatch, capsys):
    def explode(spec):
        raise RuntimeError("shard exploded")

    # In-process executor, so the patched shard body is what runs.
    monkeypatch.setattr(
        "repro.serve.pool.ProcessPoolExecutor", ThreadPoolExecutor
    )
    monkeypatch.setattr("repro.serve.pool.run_shard", explode)
    with pytest.raises(JobFailedError, match="shard exploded"):
        parallel(collected, 2)
    capsys.readouterr()
    argv = ["analyze", collected, "--mode", "parallel", "--workers", "2"]
    assert main(argv) == 2
    assert "shard exploded" in capsys.readouterr().err


def test_shard_spans_come_home_under_worker_pids(collected, tmp_path):
    bundle = live()
    parallel(collected, 2, obs=bundle)
    pids = {span.tid for span in bundle.tracer.find("shard")}
    assert pids and os.getpid() not in pids

    events_path = tmp_path / "events.json"
    argv = [
        "analyze", collected, "--mode", "parallel", "--workers", "2",
        "--trace-events", str(events_path),
    ]
    assert main(argv) == 1
    events = json.loads(events_path.read_text())["traceEvents"]

    def rows(name):
        return {e["tid"] for e in events if e["ph"] == "X" and e["name"] == name}

    assert rows("shard") and rows("analyze")
    assert not rows("shard") & rows("analyze")
