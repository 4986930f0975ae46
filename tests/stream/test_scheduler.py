"""Incremental pair scheduler: sealing, cross-region pairs, plan parity."""

import shutil
import tempfile

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline.intervals import IntervalInventory
from repro.omp import OpenMPRuntime
from repro.stream import IncrementalPairScheduler, StreamAnalyzer, replay_trace
from repro.stream.checkpoint import pair_key
from repro.sword import SwordTool, TraceDir
from repro.sword.traceformat import MetaRow
from repro.workloads import REGISTRY

TOP_REGION = {"ppid": 0, "parent_slot": 0, "parent_bid": 0, "span": 3, "level": 0}


def row(pid, bid, slot, span=3, begin=0, size=24):
    return MetaRow(
        pid=pid, ppid=0, bid=bid, offset=slot, span=span, level=0,
        data_begin=begin, size=size,
    )


def complete(sched, gid, pid, bid, slot, span=3):
    sched.add_chunk(gid, row(pid, bid, slot, span=span))
    return sched.complete_interval(gid, pid, bid, slot, span)


def test_same_group_pairs_only_at_seal():
    sched = IncrementalPairScheduler()
    sched.add_region(1, TOP_REGION)
    assert complete(sched, 0, 1, 0, 0) == []
    assert complete(sched, 1, 1, 0, 1) == []
    pairs = complete(sched, 2, 1, 0, 2)
    keys = {pair_key(a.key, b.key) for a, b in pairs}
    assert keys == {
        ((0, 1, 0), (1, 1, 0)),
        ((0, 1, 0), (2, 1, 0)),
        ((1, 1, 0), (2, 1, 0)),
    }


def test_barrier_separated_groups_never_pair():
    sched = IncrementalPairScheduler()
    sched.add_region(1, TOP_REGION)
    for slot in range(3):
        complete(sched, slot, 1, 0, slot)
    pairs = []
    for slot in range(3):
        pairs += complete(sched, slot, 1, 1, slot)
    # Only the bid-1 in-group pairs: nothing across the barrier.
    assert all(a.key.bid == 1 and b.key.bid == 1 for a, b in pairs)
    assert len(pairs) == 3


def test_duplicate_completion_is_idempotent():
    sched = IncrementalPairScheduler()
    sched.add_region(1, TOP_REGION)
    complete(sched, 0, 1, 0, 0)
    assert sched.complete_interval(0, 1, 0, 0, 3) == []
    assert sched.unsealed_groups() == [(1, 0)]


def test_tasky_group_gets_self_pairs():
    sched = IncrementalPairScheduler(is_tasky=lambda pid, bid: True)
    sched.add_region(1, TOP_REGION)
    complete(sched, 0, 1, 0, 0)
    complete(sched, 1, 1, 0, 1)
    pairs = complete(sched, 2, 1, 0, 2)
    selfs = [(a, b) for a, b in pairs if a.key == b.key]
    cross = [(a, b) for a, b in pairs if a.key != b.key]
    assert len(selfs) == 3 and len(cross) == 3


def test_nested_cross_region_pair_ready_before_seal():
    """Sibling nested regions pair the moment both sides complete."""
    sched = IncrementalPairScheduler()
    sched.add_region(1, {"ppid": 0, "parent_slot": 0, "parent_bid": 0,
                         "span": 2, "level": 0})
    # Regions 2 and 3 forked by different teammates of region 1, bid 0.
    sched.add_region(2, {"ppid": 1, "parent_slot": 0, "parent_bid": 0,
                         "span": 2, "level": 1})
    sched.add_region(3, {"ppid": 1, "parent_slot": 1, "parent_bid": 0,
                         "span": 2, "level": 1})
    assert complete(sched, 10, 2, 0, 0, span=2) == []
    pairs = complete(sched, 20, 3, 0, 0, span=2)
    assert {pair_key(a.key, b.key) for a, b in pairs} == {
        ((10, 2, 0), (20, 3, 0))
    }


def test_serialised_sibling_regions_never_pair():
    """Two regions forked by the same thread position are sequential."""
    sched = IncrementalPairScheduler()
    sched.add_region(1, {"ppid": 0, "parent_slot": 0, "parent_bid": 0,
                         "span": 2, "level": 0})
    sched.add_region(2, {"ppid": 1, "parent_slot": 0, "parent_bid": 0,
                         "span": 2, "level": 1})
    sched.add_region(3, {"ppid": 1, "parent_slot": 0, "parent_bid": 0,
                         "span": 2, "level": 1})
    complete(sched, 10, 2, 0, 0, span=2)
    pairs = complete(sched, 10, 3, 0, 0, span=2)
    assert pairs == []


@pytest.mark.parametrize(
    "name", ["figure2-nested", "nestedparallel-orig-yes", "task-fib", "c_md"]
)
def test_plan_matches_batch_planner(name):
    """Incremental emission covers exactly the batch planner's pair set."""
    workload = REGISTRY.get(name)
    trace_path = tempfile.mkdtemp(prefix="plan-")
    try:
        tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=128))
        rt = OpenMPRuntime(
            RunConfig(nthreads=4, scheduler=SchedulerConfig(seed=0)), tool=tool
        )
        rt.run(lambda m: workload.run_program(m))
        trace = TraceDir(trace_path)

        batch = {
            pair_key(a.key, b.key)
            for a, b in IntervalInventory(trace).concurrent_pairs()
        }

        analyzer = StreamAnalyzer(trace_path)
        streamed = set()
        process = analyzer._process

        def capture(pairs):
            streamed.update(pair_key(a.key, b.key) for a, b in pairs)
            process(pairs)

        analyzer._process = capture
        replay_trace(trace, analyzer)
        assert streamed == batch
        assert analyzer.scheduler.unsealed_groups() == []
    finally:
        shutil.rmtree(trace_path, ignore_errors=True)
