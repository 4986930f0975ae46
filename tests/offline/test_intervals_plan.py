"""The one pair planner, batch and streaming, against a brute-force reference.

The reference is the per-label judgment itself: every two intervals of
different threads whose labels are concurrent, plus each interval of a
barrier interval holding explicit tasks paired with itself.  The
inventory's structural plan (``concurrent_pairs``) and the pairs it emits
while growing row by row under the streaming analyzer must both equal the
reference pairs whose sides both logged an access; the rest it counts
(pairs, and the chunks of their two sides).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import interval_rows, pair_key, reference_pairs

from repro.common.events import KIND_ACCESS
from repro.harness.tools import driver
from repro.offline.intervals import IntervalInventory
from repro.stream import StreamAnalyzer, replay_trace
from repro.sword import TraceDir
from repro.sword.digest import FrameDigest, fold_digests
from repro.sword.reader import build_interval_label
from repro.sword.traceformat import MetaRow
from repro.tasking.graph import TaskGraph, TaskInfo
from repro.workloads import REGISTRY

#: Chunk digests of an interval that logged nothing, and of one write.
EMPTY = FrameDigest.empty()
LOGGED = FrameDigest.from_ints((1, 1, 1, 0, 0, 0, 7, 0, 8, 0, 0))

# -- hand-built region tables -------------------------------------------------------

TOP_REGION = {"ppid": 0, "parent_slot": 0, "parent_bid": 0, "span": 3, "level": 0}


def task_graph(*tasky_groups):
    graph = TaskGraph()
    for task_id, (pid, bid) in enumerate(tasky_groups, start=1):
        graph.add(TaskInfo(task_id, 0, 0, pid, bid, 0))
    return graph


def inventory(*tasky_groups):
    source = SimpleNamespace(regions={}, task_graph=task_graph(*tasky_groups))
    return IntervalInventory(source, load=False)


def loaded(regions, rows, *tasky_groups):
    """An inventory that loads ``rows`` ({gid: [MetaRow]}) whole, as a
    closed trace's meta tables."""
    tables = {
        gid: np.array([r.ints() for r in meta], dtype=np.int64)
        for gid, meta in rows.items()
    }
    source = SimpleNamespace(
        regions=dict(regions), task_graph=task_graph(*tasky_groups),
        thread_gids=list(tables),
        reader=lambda gid: SimpleNamespace(table=tables[gid], close=lambda: None),
    )
    return IntervalInventory(source)


def region(ppid, parent_slot, span=2):
    return {"ppid": ppid, "parent_slot": parent_slot, "parent_bid": 0,
            "span": span, "level": int(ppid > 0)}


def row(pid, bid, slot, span=3, digest=LOGGED):
    return MetaRow(
        pid=pid, ppid=0, bid=bid, offset=slot, span=span, level=0,
        data_begin=0, size=24, digest=digest,
    )


def complete(inv, gid, pid, bid, slot, span=3):
    inv.add_row(gid, row(pid, bid, slot, span))
    return inv.complete(gid, pid, bid, slot, span)


def ident(key):
    return (key.gid, key.pid, key.bid)


def keys(pairs):
    return {pair_key(ident(a.key), ident(b.key)) for a, b in pairs}


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
    rows = {slot: [row(1, 0, slot)] for slot in range(3)}
    batch = loaded({1: TOP_REGION}, rows, (1, 0))
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


def split(plan, chunks):
    """The plan's pairs whose sides both logged an access (emitted), the
    others (counted), and the chunks of the counted pairs' sides.
    ``chunks`` maps each interval to its chunk digests; the oracle for
    "logged an access" is their fold, as the digest prune sees it."""
    logged = {key for key, digests in chunks.items() if fold_digests(digests).nodes}
    emitted = {pair for pair in plan if logged.issuperset(pair)}
    counted = plan - emitted
    frames = sum(len(chunks[a]) + len(chunks[b]) for a, b in counted)
    return emitted, len(counted), frames


def all_intervals(trace):
    """Every interval of the trace, empty ones too: slot and digests."""
    rows = interval_rows(trace)
    slots = {key: meta[0].offset for key, meta in rows.items()}
    return slots, {key: [r.digest for r in meta] for key, meta in rows.items()}


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
    slots, chunks = all_intervals(trace)
    emitted, counted, frames = split(reference_pairs(trace, slots), chunks)

    batch = IntervalInventory(trace)
    planned = [pair_key(ident(a.key), ident(b.key)) for a, b in batch.concurrent_pairs()]
    assert len(planned) == len(set(planned))
    assert set(planned) == emitted
    assert (batch.pairs_counted, batch.frames_counted) == (counted, frames)
    assert len(batch) == len(slots)

    analyzer = StreamAnalyzer(trace_dir)
    streamed = []
    analyzer._process = lambda pairs: streamed.extend(
        pair_key(ident(a.key), ident(b.key)) for a, b in pairs
    )
    replay_trace(trace, analyzer)
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == emitted
    inventory = analyzer.inventory
    assert (inventory.pairs_counted, inventory.frames_counted) == (counted, frames)
    assert inventory.intervals.keys() == batch.intervals.keys()
    assert len(inventory) == len(slots)
    assert inventory.unsealed_groups() == []


def test_counted_pairs_in_a_tasky_group_and_across_regions():
    """A tasky group mixing empty and logged intervals, and a region
    nested at bid 1 of an ancestor whose intervals there are partly
    empty: emitted and counted pairs split the brute-force plan."""
    regions = {
        1: {"ppid": 0, "parent_slot": 0, "parent_bid": 0, "span": 3, "level": 0},
        2: {"ppid": 1, "parent_slot": 0, "parent_bid": 1, "span": 2, "level": 1},
    }
    #: (gid, pid, bid, slot, chunk digests), in completion order.
    intervals = [
        (0, 1, 0, 0, [LOGGED, EMPTY]),
        (1, 1, 0, 1, [EMPTY]),
        (2, 1, 0, 2, [LOGGED]),
        (0, 2, 0, 0, [LOGGED]),
        (3, 2, 0, 1, [EMPTY, EMPTY]),
        (1, 1, 1, 1, [EMPTY]),
        (0, 1, 1, 0, [EMPTY, EMPTY]),
        (2, 1, 1, 2, [LOGGED, EMPTY]),
    ]
    slots = {(g, p, b): slot for g, p, b, slot, _ in intervals}
    chunks = {(g, p, b): digests for g, p, b, _, digests in intervals}
    graph = TaskGraph()
    graph.add(TaskInfo(1, 0, 0, 1, 0, 0))
    trace = SimpleNamespace(
        task_graph=graph,
        interval_label=lambda pid, slot, bid: build_interval_label(
            regions, pid, slot, bid
        ),
    )
    plan = reference_pairs(trace, slots)
    emitted, counted, frames = split(plan, chunks)
    assert emitted and counted
    assert any(a[1] != b[1] for a, b in plan - emitted)  # across regions

    streamed = inventory((1, 0))
    for pid, info in regions.items():
        streamed.add_region(pid, dict(info))
    pairs, rows = [], {}
    for gid, pid, bid, slot, digests in intervals:
        span = regions[pid]["span"]
        for digest in digests:
            streamed.add_row(gid, row(pid, bid, slot, span, digest))
            rows.setdefault(gid, []).append(row(pid, bid, slot, span, digest))
        pairs += streamed.complete(gid, pid, bid, slot, span)
    pairs += streamed.finish()
    batch = loaded(regions, rows, (1, 0))
    for inv, planned in ((streamed, pairs), (batch, batch.concurrent_pairs())):
        assert len(planned) == len(keys(planned))
        assert keys(planned) == emitted
        assert (inv.pairs_counted, inv.frames_counted) == (counted, frames)
        assert len(inv) == len(intervals)


#: Every registry workload but the benchmark-tier ones, at the unit
#: tier's sizes.
SIZES = {"lulesh": {"steps": 6}, "amg2013_10": {"sweeps": 5}, "amg2013_20": {"sweeps": 5}}
LOGGED_PROBES = [w for w in REGISTRY if w.name not in ("amg2013_30", "amg2013_40")]


@pytest.mark.parametrize("workload", LOGGED_PROBES, ids=lambda w: w.name)
def test_counted_intervals_hold_no_access(workload, trace_dir):
    """The planner counts an interval's pairs instead of comparing them
    when its chunk digests all read ``nodes == 0``; every analysis mode,
    the reference included, trusts that.  Checked here against the log
    itself: inflating every chunk, an interval holds an access record
    exactly when the inventory keeps it for pairing."""
    driver("sword").run(
        workload, nthreads=2, seed=0, trace_dir=trace_dir,
        keep_trace=True, **SIZES.get(workload.name, {}),
    )
    trace = TraceDir(trace_dir)
    accessed = set()
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            for r in reader.rows:
                events = reader.frame_at(r.data_begin, r.size).events()
                if np.any(events["kind"] == KIND_ACCESS):
                    accessed.add((gid, r.pid, r.bid))
    inv = IntervalInventory(trace)
    assert {ident(key) for key in inv.intervals} == accessed
    assert len(inv) == len(interval_rows(trace))
