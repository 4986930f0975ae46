"""Micro-benchmarks of SWORD's hot kernels.

These time the algorithmic building blocks the paper credits for bringing
the offline analysis "from days to seconds": interval-summary construction
and search, streaming summarisation, the Diophantine overlap solver, the
offset-span judgment, and ARCHER's vectorised shadow processing (for the
comparison baseline).
"""

import time
import types

import numpy as np
import pytest

from repro.archer.shadow import AllocationShadow
from repro.common.events import (
    EVENT_DTYPE,
    FLAG_WRITE,
    KIND_ACCESS,
    Access,
    accesses_to_records,
)
from repro.ilp.model import IntervalConstraint, OverlapSystem
from repro.itree.builder import TreeBuilder
from repro.itree.tree import IntervalTree
from repro.memory.address_space import AddressSpace
from repro.offline.engine import _COLUMNAR_MIN_NODE_PRODUCT, AnalysisEngine
from repro.offline.intervals import IntervalKey
from repro.offline.report import RaceSet
from repro.omp.mutexset import MutexSetTable
from repro.osl.concurrency import concurrent_intervals, make_interval_label
from repro.sword.buffer import EventBuffer
from repro.tasking.graph import TaskGraph


def _nodes(n, rng):
    """The node table (``table_of`` layout) of ``n`` sealed intervals."""
    return np.stack((
        rng.integers(0, 1_000_000, size=n),
        np.full(n, 8), np.full(n, 8), rng.integers(1, 64, size=n),
        rng.integers(0, 2, size=n), np.zeros(n, np.int64),
        rng.integers(1, 100, size=n), np.zeros(n, np.int64),
        np.zeros(n, np.int64),
    ))


def _summary(nodes):
    """What ``TreeBuilder.finish`` does with its sealed node table."""
    return IntervalTree.from_seal_order(nodes)


def test_bench_summary_build_10k(benchmark):
    rng = np.random.default_rng(0)
    nodes = _nodes(10_000, rng)
    tree = benchmark(_summary, nodes)
    assert len(tree) == 10_000


def test_bench_tree_overlap_queries(benchmark):
    rng = np.random.default_rng(1)
    tree = _summary(_nodes(10_000, rng))
    queries = rng.integers(0, 1_000_000, size=1_000)

    def probe():
        hits = 0
        for q in queries:
            for _ in tree.iter_overlaps(int(q), int(q) + 512):
                hits += 1
        return hits

    hits = benchmark(probe)
    assert hits > 0


def test_bench_builder_summarises_sweep(benchmark):
    records = accesses_to_records(
        Access(addr=i * 8, size=8, count=1, stride=0, is_write=True,
               is_atomic=False, pc=7)
        for i in range(50_000)
    )

    def build():
        b = TreeBuilder()
        b.add_records(records)
        return b.finish()

    tree = benchmark(build)
    assert len(tree) == 1  # 50k accesses -> one summarised node


def test_bench_builder_bulk_records(benchmark):
    """FFT butterflies of four elements: eight sites (re/im x lo/hi x
    read/write) each log a 2-element bulk record a block, and no record
    continues the one before it (the next block starts 32 bytes on, not
    16), so every record is a node — the batch path's worst case."""
    nblocks = 8192
    sites = 8
    records = np.zeros(nblocks * sites, dtype=EVENT_DTYPE)
    site = np.tile(np.arange(sites), nblocks)
    block = np.repeat(np.arange(nblocks), sites)
    records["kind"] = KIND_ACCESS
    records["flags"] = np.where(site >= 4, FLAG_WRITE, 0)
    records["size"] = 8
    records["addr"] = (
        0x100000 + (site % 2) * 0x20000 + block * 32 + (site // 2 % 2) * 16
    )
    records["count"] = 2
    records["stride"] = 8
    records["pc"] = 0x1016 + site

    def build():
        b = TreeBuilder()
        b.add_records(records)
        return b.finish()

    tree = benchmark(build)
    assert len(tree) == nblocks * sites


def test_bench_diophantine_solver(benchmark):
    systems = [
        OverlapSystem(
            IntervalConstraint(base=10 + i, stride=8, count=1000, size=4),
            IntervalConstraint(base=14 + i * 3, stride=12, count=1000, size=4),
        )
        for i in range(100)
    ]

    def solve_all():
        return sum(1 for s in systems if s.feasible())

    feasible = benchmark(solve_all)
    assert 0 <= feasible <= 100


def test_bench_osl_judgment(benchmark):
    labels = [
        make_interval_label((1, s % 8, b % 4, 8), (10 + s % 3, 0, 0, 2))
        for s, b in ((i, i * 7) for i in range(64))
    ]

    def judge_all():
        count = 0
        for a in labels:
            for b in labels:
                if concurrent_intervals(a, b):
                    count += 1
        return count

    count = benchmark(judge_all)
    assert count > 0


def test_bench_buffer_append(benchmark):
    access = Access(addr=0x1000, size=8, count=1, stride=0, is_write=True,
                    is_atomic=False, pc=5)
    buf = EventBuffer(capacity=25_000)

    def fill():
        for _ in range(25_000):
            buf.append_access(access)
        buf.flush()

    benchmark(fill)
    assert buf.events_total >= 25_000


def test_bench_archer_shadow_bulk(benchmark):
    space = AddressSpace()
    arr = space.alloc_array("a", 100_000, np.float64)
    shadow = AllocationShadow(arr.allocation, cells=4, word_bytes=8)
    vc = np.zeros(8, dtype=np.int64)

    def process():
        hits = []
        shadow.check_and_store(
            addr=arr.addr(0), size=8, count=100_000, stride=8,
            tid=1, clk=1, is_write=True, is_atomic=False, pc=3,
            vc_array=vc, on_race=hits.append,
        )
        return hits

    hits = benchmark(process)
    assert hits == [] or hits  # either is valid; kernel must complete


def _compare_kernels(n):
    """Scalar vs columnar comparison of two n-node trees built as the
    builder builds them (columns, no interval objects).  The scalar walk
    is timed with the trees' interval objects made before the call (warm:
    a tree is compared against every other thread's) and inside it (cold:
    its first comparison); the join makes objects only for solver rows and
    reports.  Returns (rows, warm scalar, cold scalar, columnar seconds)
    after checking that all three produce the same reports and counts."""
    rng = np.random.default_rng(n)

    def nodes():
        return np.stack((
            np.sort(rng.integers(0, n * 64, size=n)),
            np.full(n, 8), np.full(n, 8), rng.integers(1, 64, size=n),
            rng.integers(0, 8, size=n) == 0, np.zeros(n, np.int64),
            rng.integers(0x1000, 0x1008, size=n), np.zeros(n, np.int64),
            np.zeros(n, np.int64),
        ))

    nodes_a, nodes_b = nodes(), nodes()
    source = types.SimpleNamespace(
        mutexsets=MutexSetTable(), task_graph=TaskGraph()
    )
    ia = types.SimpleNamespace(key=IntervalKey(gid=0, pid=1, bid=0))
    ib = types.SimpleNamespace(key=IntervalKey(gid=1, pid=1, bid=0))

    def run(kernel):
        best, outcome = float("inf"), None
        for _ in range(5 if n <= 256 else 2):
            tree_a = IntervalTree.from_seal_order(nodes_a)
            tree_b = IntervalTree.from_seal_order(nodes_b)
            if kernel == "warm":
                tree_a.intervals(), tree_b.intervals()
            engine = AnalysisEngine(source)
            sink = []
            args = (tree_a, tree_b, ia, ib, RaceSet(), None, sink)
            t0 = time.perf_counter()
            if kernel == "columnar":
                engine._compare_columnar(*args)
            else:
                engine._compare_scalar(*args, False, engine._memo)
            best = min(best, time.perf_counter() - t0)
            outcome = (
                sink, engine.stats.overlap_candidates, engine.stats.ilp_solves
            )
        return best, outcome

    warm_s, expected = run("warm")
    cold_s, cold_out = run("cold")
    columnar_s, columnar_out = run("columnar")
    assert cold_out == columnar_out == expected
    return expected[1], warm_s, cold_s, columnar_s


def test_bench_compare_kernels(save_result):
    """Where the columnar join overtakes the scalar walk — the measurement
    behind ``engine._COLUMNAR_MIN_NODE_PRODUCT``."""
    lines = [
        "compare kernels: scalar walk (warm = interval objects made before "
        "the call, cold = made in it) vs columnar join",
        f"{'nodes':>11} {'rows':>7} {'warm':>10} {'cold':>10} "
        f"{'columnar':>10} {'warm rows/s':>12} {'join rows/s':>12}",
    ]
    for n in (8, 32, 64, 256, 4096):
        rows, warm_s, cold_s, columnar_s = _compare_kernels(n)
        lines.append(
            f"{n:>5}x{n:<5} {rows:>7} {warm_s * 1e3:>8.3f}ms "
            f"{cold_s * 1e3:>8.3f}ms {columnar_s * 1e3:>8.3f}ms "
            f"{rows / warm_s:>12,.0f} {rows / columnar_s:>12,.0f}"
        )
    side = int(_COLUMNAR_MIN_NODE_PRODUCT ** 0.5)
    lines.append(
        f"gate: columnar from {_COLUMNAR_MIN_NODE_PRODUCT} node pairs "
        f"({side}x{side})"
    )
    save_result("compare_kernels", "\n".join(lines))
    assert columnar_s < warm_s  # the largest size
