"""Ablations of the design choices DESIGN.md §5 calls out.

* **Shadow-cell count** — the eviction misses are a direct consequence of
  TSan's 4-cell bound: raising the cell count recovers the hidden AMG races
  at a proportional shadow-memory cost (quantifies §II's trade-off).
* **Buffer capacity** — the paper fixes 25,000 events (~2 MB, L3-resident):
  smaller buffers multiply flush count (I/O overhead), larger ones only
  spend memory; flushed byte volume is invariant.
* **Interval summarisation** — the paper credits interval trees for the
  days-to-seconds offline speedup: compare summarised tree sizes against a
  one-node-per-access baseline and measure the compare-time effect.
"""

import numpy as np
import pytest

from repro.archer.tool import ArcherTool
from repro.common.config import (
    ArcherConfig,
    RunConfig,
    SchedulerConfig,
    SwordConfig,
)
from repro.harness.tables import Table
from repro.memory.accounting import NodeMemory
from repro.omp.runtime import OpenMPRuntime
from repro.sword.logger import SwordTool
from repro.workloads import REGISTRY


def test_ablation_shadow_cells(benchmark, save_result):
    """Detection and memory as a function of the shadow-cell bound."""
    w = REGISTRY.get("amg2013_10")

    def sweep():
        table = Table(
            "Ablation: ARCHER shadow cells on amg2013_10 (8 threads)",
            ["cells", "races found", "evictions", "shadow bytes"],
        )
        for cells in (2, 4, 8, 16):
            accountant = NodeMemory(limit=2**45)
            tool = ArcherTool(ArcherConfig(shadow_cells=cells), accountant)
            rt = OpenMPRuntime(
                RunConfig(nthreads=8, scheduler=SchedulerConfig(seed=0)),
                tool=tool,
                accountant=accountant,
            )
            rt.run(lambda m: w.run_program(m, sweeps=6))
            table.add(
                cells,
                tool.race_count,
                tool.evictions,
                accountant.peak("shadow"),
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("ablation_shadow_cells", table.render())

    races = dict(zip(table.column("cells"), table.column("races found")))
    shadow = dict(zip(table.column("cells"), table.column("shadow bytes")))
    # 4 cells: the paper's configuration misses the 10 eviction races.
    assert races[4] == 4
    # Enough cells to survive the re-read bursts recovers them all...
    assert races[16] == 14
    # ...at proportional shadow cost.
    assert shadow[16] == 4 * shadow[4]
    # Fewer cells never find more.
    assert races[2] <= races[4] <= races[8] <= races[16]


def test_ablation_buffer_capacity(benchmark, save_result):
    """Flush count scales inversely with the buffer bound; bytes invariant."""
    w = REGISTRY.get("c_md")

    def sweep():
        table = Table(
            "Ablation: SWORD buffer capacity on c_md (8 threads)",
            ["buffer events", "flushes", "uncompressed bytes", "io seconds"],
        )
        import tempfile, shutil

        for capacity in (100, 1_000, 25_000):
            tmp = tempfile.mkdtemp(prefix="ablation-buf-")
            try:
                tool = SwordTool(
                    SwordConfig(log_dir=tmp, buffer_events=capacity)
                )
                rt = OpenMPRuntime(
                    RunConfig(nthreads=8, scheduler=SchedulerConfig(seed=0)),
                    tool=tool,
                )
                rt.run(lambda m: w.run_program(m))
                table.add(
                    capacity,
                    tool.stats["flushes"],
                    tool.stats["bytes_uncompressed"],
                    round(tool.stats["io_seconds"], 4),
                )
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result("ablation_buffer_capacity", table.render())

    flushes = dict(zip(table.column("buffer events"), table.column("flushes")))
    volumes = set(table.column("uncompressed bytes"))
    assert flushes[100] > flushes[1_000] >= flushes[25_000]
    assert len(volumes) == 1  # the data written is capacity-invariant


def test_ablation_summarisation(benchmark, save_result):
    """Tree size and compare cost with vs without interval coalescing."""
    from repro.common.events import Access, accesses_to_records
    from repro.itree.builder import TreeBuilder
    from repro.itree.tree import IntervalTree
    from repro.itree.interval import interval_from_access
    import time

    n = 20_000
    accesses = [
        Access(addr=0x1000 + i * 8, size=8, count=1, stride=0,
               is_write=True, is_atomic=False, pc=17)
        for i in range(n)
    ]

    records = accesses_to_records(accesses)

    def build_both():
        t0 = time.perf_counter()
        builder = TreeBuilder()
        builder.add_records(records)
        summarised = builder.finish()
        t_sum = time.perf_counter() - t0

        t1 = time.perf_counter()
        naive = IntervalTree.from_intervals(
            sorted(map(interval_from_access, accesses), key=lambda iv: iv.low)
        )
        t_naive = time.perf_counter() - t1

        # Probe cost: overlap query across the whole extent.
        t2 = time.perf_counter()
        sum_hits = sum(1 for _ in summarised.iter_overlaps(0, 0x1000 + n * 8))
        t_q_sum = time.perf_counter() - t2
        t3 = time.perf_counter()
        naive_hits = sum(1 for _ in naive.iter_overlaps(0, 0x1000 + n * 8))
        t_q_naive = time.perf_counter() - t3

        table = Table(
            f"Ablation: interval summarisation ({n} unit-stride accesses)",
            ["variant", "tree nodes", "build s", "full-scan hits", "scan s"],
        )
        table.add("summarised", len(summarised), round(t_sum, 4), sum_hits,
                  round(t_q_sum, 6))
        table.add("naive", len(naive), round(t_naive, 4), naive_hits,
                  round(t_q_naive, 6))
        return table

    table = benchmark.pedantic(build_both, rounds=1, iterations=1)
    save_result("ablation_summarisation", table.render())

    nodes = dict(zip(table.column("variant"), table.column("tree nodes")))
    assert nodes["summarised"] == 1
    assert nodes["naive"] == n
