"""Interval inventory: the concurrency plan must match the label judgment."""

import itertools

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline.intervals import IntervalInventory
from repro.omp import OpenMPRuntime
from repro.osl.concurrency import concurrent_intervals
from repro.sword import SwordTool, TraceDir


def build_inventory(program, trace_dir, *, nthreads=4, seed=0):
    tool = SwordTool(SwordConfig(log_dir=trace_dir, buffer_events=64))
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
        tool=tool,
    )
    rt.run(program)
    return IntervalInventory(TraceDir(trace_dir))


def assert_plan_matches_judgment(inventory):
    """The optimised pair plan == brute-force label comparison; returns
    the plan (``concurrent_pairs`` completes the inventory: call once)."""
    pairs = list(inventory.concurrent_pairs())
    planned = set()
    for a, b in pairs:
        key = tuple(sorted([a.key, b.key], key=lambda k: (k.gid, k.pid, k.bid)))
        assert key not in planned, f"pair yielded twice: {key}"
        planned.add(key)
    trace = inventory.trace
    labels = {
        k: trace.interval_label(k.pid, d.slot, k.bid)
        for k, d in inventory.intervals.items()
    }
    expected = set()
    for a, b in itertools.combinations(inventory.intervals.values(), 2):
        if a.key.gid == b.key.gid:
            continue
        if concurrent_intervals(labels[a.key], labels[b.key]):
            key = tuple(
                sorted([a.key, b.key], key=lambda k: (k.gid, k.pid, k.bid))
            )
            expected.add(key)
    assert planned == expected
    return pairs


def test_flat_region_plan(trace_dir):
    def program(m):
        a = m.alloc_array("a", 16)

        def body(ctx):
            ctx.write(a, ctx.tid, 1.0)
            ctx.barrier()
            ctx.read(a, 0)
        m.parallel(body)

    inventory = build_inventory(program, trace_dir)
    assert_plan_matches_judgment(inventory)
    # 4 threads x 2+ intervals with data.
    assert len(inventory) >= 8


def test_multi_region_plan(trace_dir):
    def program(m):
        a = m.alloc_array("a", 16)

        def body(ctx):
            ctx.write(a, ctx.tid, 1.0)
        m.parallel(body, nthreads=2)
        m.parallel(body, nthreads=3)

    inventory = build_inventory(program, trace_dir)
    pairs = assert_plan_matches_judgment(inventory)
    # Cross-region pairs must be absent (serialised top-level regions).
    for a, b in pairs:
        assert a.key.pid == b.key.pid


def test_nested_region_plan(trace_dir):
    def program(m):
        y = m.alloc_array("y", 8)

        def inner(ctx):
            ctx.write(y, 4 + ctx.tid, 1.0)

        def outer(ctx):
            ctx.write(y, ctx.tid, 1.0)
            ctx.parallel(inner, nthreads=2)
            ctx.write(y, 2 + ctx.tid, 1.0)
        m.parallel(outer, nthreads=2)

    inventory = build_inventory(program, trace_dir)
    cross_region = [
        (a, b)
        for a, b in assert_plan_matches_judgment(inventory)
        if a.key.pid != b.key.pid
    ]
    assert cross_region, "nested sibling regions must be planned"


def test_deeper_nesting_plan(trace_dir):
    def program(m):
        z = m.alloc_array("z", 32)

        def level3(ctx):
            ctx.write(z, 16 + ctx.tid, 1.0)

        def level2(ctx):
            ctx.write(z, 8 + ctx.tid, 1.0)
            ctx.parallel(level3, nthreads=2)

        def level1(ctx):
            ctx.write(z, ctx.tid, 1.0)
            ctx.parallel(level2, nthreads=2)
        m.parallel(level1, nthreads=2)

    inventory = build_inventory(program, trace_dir)
    assert_plan_matches_judgment(inventory)


def test_barriers_split_intervals(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            ctx.write(a, ctx.tid, 1.0)
            ctx.barrier()
            ctx.write(a, ctx.tid + 4, 1.0)
        m.parallel(body, nthreads=2)

    inventory = build_inventory(program, trace_dir, nthreads=2)
    pairs = assert_plan_matches_judgment(inventory)
    bids = {k.bid for k in inventory.intervals}
    assert {0, 1} <= bids
    # Cross-bid pairs never planned within one region.
    for a, b in pairs:
        if a.key.pid == b.key.pid:
            assert a.key.bid == b.key.bid
