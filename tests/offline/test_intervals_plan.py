"""The one pair planner, batch and streaming, against a brute-force reference.

The reference is the per-label judgment itself: every two intervals of
different threads whose labels are concurrent, plus each interval of a
barrier interval holding explicit tasks paired with itself.  The
inventory's structural plan (``concurrent_pairs``) and the pairs it emits
while growing row by row under the streaming analyzer must both equal it.
"""

from itertools import combinations
from types import SimpleNamespace

import pytest

from repro.harness.tools import driver
from repro.offline.intervals import IntervalInventory
from repro.osl.concurrency import concurrent_intervals
from repro.stream import StreamAnalyzer, replay_trace
from repro.sword import TraceDir
from repro.sword.digest import FrameDigest
from repro.sword.traceformat import MetaRow
from repro.tasking.graph import TaskGraph, TaskInfo
from repro.workloads import REGISTRY

# -- hand-built region tables -------------------------------------------------------

TOP_REGION = {"ppid": 0, "parent_slot": 0, "parent_bid": 0, "span": 3, "level": 0}


def inventory(*tasky_groups):
    graph = TaskGraph()
    for task_id, (pid, bid) in enumerate(tasky_groups, start=1):
        graph.add(TaskInfo(task_id, 0, 0, pid, bid, 0))
    source = SimpleNamespace(regions={}, task_graph=graph)
    return IntervalInventory(source, load=False)


def region(ppid, parent_slot, span=2):
    return {"ppid": ppid, "parent_slot": parent_slot, "parent_bid": 0,
            "span": span, "level": int(ppid > 0)}


def row(pid, bid, slot, span=3):
    return MetaRow(
        pid=pid, ppid=0, bid=bid, offset=slot, span=span, level=0,
        data_begin=0, size=24, digest=FrameDigest.empty(),
    )


def complete(inv, gid, pid, bid, slot, span=3):
    inv.add_row(gid, row(pid, bid, slot, span))
    return inv.complete(gid, pid, bid, slot, span)


def pair_key(key_a, key_b):
    """Order-normalised identity of one interval pair."""
    a = (key_a.gid, key_a.pid, key_a.bid)
    b = (key_b.gid, key_b.pid, key_b.bid)
    return (a, b) if a <= b else (b, a)


def keys(pairs):
    return {pair_key(a.key, b.key) for a, b in pairs}


def test_same_group_pairs_only_at_seal():
    inv = inventory()
    inv.add_region(1, TOP_REGION)
    assert complete(inv, 0, 1, 0, 0) == []
    assert complete(inv, 1, 1, 0, 1) == []
    assert keys(complete(inv, 2, 1, 0, 2)) == {
        ((0, 1, 0), (1, 1, 0)),
        ((0, 1, 0), (2, 1, 0)),
        ((1, 1, 0), (2, 1, 0)),
    }


def test_barrier_separated_groups_never_pair():
    inv = inventory()
    inv.add_region(1, TOP_REGION)
    for slot in range(3):
        complete(inv, slot, 1, 0, slot)
    pairs = []
    for slot in range(3):
        pairs += complete(inv, slot, 1, 1, slot)
    # Only the bid-1 in-group pairs: nothing across the barrier.
    assert all(a.key.bid == 1 and b.key.bid == 1 for a, b in pairs)
    assert len(pairs) == 3


def test_duplicate_completion_is_idempotent():
    inv = inventory()
    inv.add_region(1, TOP_REGION)
    complete(inv, 0, 1, 0, 0)
    assert inv.complete(0, 1, 0, 0, 3) == []
    assert inv.unsealed_groups() == [(1, 0)]


def test_tasky_group_gets_self_pairs():
    inv = inventory((1, 0))
    inv.add_region(1, TOP_REGION)
    complete(inv, 0, 1, 0, 0)
    complete(inv, 1, 1, 0, 1)
    pairs = complete(inv, 2, 1, 0, 2)
    selfs = [(a, b) for a, b in pairs if a.key == b.key]
    cross = [(a, b) for a, b in pairs if a.key != b.key]
    assert len(selfs) == 3 and len(cross) == 3
    # The same rows loaded whole plan the same pairs.
    batch = inventory((1, 0))
    batch.add_region(1, TOP_REGION)
    for slot in range(3):
        batch.add_row(slot, row(1, 0, slot))
    assert keys(pairs) == keys(batch.concurrent_pairs())


def test_nested_cross_region_pair_ready_before_seal():
    """Sibling nested regions pair the moment both sides complete."""
    inv = inventory()
    inv.add_region(1, region(0, 0))
    # Regions 2 and 3 forked by different teammates of region 1, bid 0.
    inv.add_region(2, region(1, 0))
    inv.add_region(3, region(1, 1))
    assert complete(inv, 10, 2, 0, 0, span=2) == []
    assert keys(complete(inv, 20, 3, 0, 0, span=2)) == {
        ((10, 2, 0), (20, 3, 0))
    }


def test_serialised_sibling_regions_never_pair():
    """Two regions forked by the same thread position are sequential."""
    inv = inventory()
    inv.add_region(1, region(0, 0))
    inv.add_region(2, region(1, 0))
    inv.add_region(3, region(1, 0))
    complete(inv, 10, 2, 0, 0, span=2)
    assert complete(inv, 10, 3, 0, 0, span=2) == []


# -- registry workloads ---------------------------------------------------------------

#: Every registry workload with nested regions or explicit tasks, plus a
#: flat racy one and many-region lulesh (kept small).
PLANNED = [
    ("figure2-nested", {}),
    ("nestedparallel-orig-yes", {}),
    ("task-farm", {}),
    ("task-fib", {}),
    ("task-pipeline", {}),
    ("task-reduce-racy", {}),
    ("c_md", {}),
    ("lulesh", {"steps": 3}),
]


def reference(trace, intervals):
    """Brute force: the label judgment over every interval pair."""
    labels = {
        key: trace.interval_label(key.pid, data.slot, key.bid)
        for key, data in intervals.items()
    }
    tasky = {(t.pid, t.bid) for t in trace.task_graph.tasks()}
    expected = {pair_key(k, k) for k in labels if (k.pid, k.bid) in tasky}
    for a, b in combinations(labels, 2):
        if a.gid != b.gid and concurrent_intervals(labels[a], labels[b]):
            expected.add(pair_key(a, b))
    return expected


@pytest.mark.parametrize("nthreads", [2, 4])
@pytest.mark.parametrize(
    "name, params", PLANNED, ids=[name for name, _ in PLANNED]
)
def test_plan_matches_reference(name, params, nthreads, trace_dir):
    driver("sword").run(
        REGISTRY.get(name), nthreads=nthreads, seed=0,
        trace_dir=trace_dir, keep_trace=True, **params,
    )
    trace = TraceDir(trace_dir)
    batch = IntervalInventory(trace)
    expected = reference(trace, batch.intervals)
    planned = [pair_key(a.key, b.key) for a, b in batch.concurrent_pairs()]
    assert len(planned) == len(set(planned))
    assert set(planned) == expected

    analyzer = StreamAnalyzer(trace_dir)
    streamed = []
    analyzer._process = lambda pairs: streamed.extend(
        pair_key(a.key, b.key) for a, b in pairs
    )
    replay_trace(trace, analyzer)
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    assert analyzer.inventory.intervals.keys() == batch.intervals.keys()
    assert analyzer.inventory.unsealed_groups() == []
