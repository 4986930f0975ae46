"""Distributed offline analysis agrees with the serial analyzer."""

import numpy as np
import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import (
    AnalysisOptions,
    DistributedOfflineAnalyzer,
    SerialOfflineAnalyzer,
)
from repro.omp import OpenMPRuntime
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


def test_parallel_matches_serial(collected):
    serial = SerialOfflineAnalyzer(TraceDir(collected)).analyze()
    parallel = DistributedOfflineAnalyzer(
        TraceDir(collected), options=AnalysisOptions(workers=3)
    ).analyze()
    assert parallel.races.pc_pairs() == serial.races.pc_pairs()
    assert parallel.stats.concurrent_pairs == serial.stats.concurrent_pairs


def test_single_worker_falls_back_to_serial(collected):
    result = DistributedOfflineAnalyzer(
        TraceDir(collected), options=AnalysisOptions(workers=1)
    ).analyze()
    serial = SerialOfflineAnalyzer(TraceDir(collected)).analyze()
    assert result.races.pc_pairs() == serial.races.pc_pairs()


def test_more_workers_than_pairs(collected):
    result = DistributedOfflineAnalyzer(
        TraceDir(collected), options=AnalysisOptions(workers=64)
    ).analyze()
    serial = SerialOfflineAnalyzer(TraceDir(collected)).analyze()
    assert result.races.pc_pairs() == serial.races.pc_pairs()
