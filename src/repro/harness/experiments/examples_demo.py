"""E10 — the paper's worked examples: §II shadow-cell eviction and the
§III-B interval-tree example (Figure 5).

Two demonstrations:

* **Eviction** (§II): ``a[i] = a[i] + a[0]`` — the master's write record of
  ``a[0]`` is purged from the 4 shadow cells by its own subsequent reads,
  so ARCHER misses the write/read race that SWORD's complete log retains.
* **Interval trees** (Fig. 5): ``a[i] = a[i-1]`` with two threads — build
  the per-thread summarised interval trees, show the overlapping node pair,
  render the paper's ILP constraint system for it, and report the race.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Sequence

from ...archer.tool import ArcherTool
from ...common.config import RunConfig, SchedulerConfig, SwordConfig
from ...common.sourceloc import pc_of
from ...ilp.model import OverlapSystem
from ...ilp.overlap import constraint_of
from ...itree.builder import build_tree
from ...offline.analyzer import analyze_trace
from ...omp.recording import RecordingTool
from ...omp.runtime import OpenMPRuntime
from ...sword.logger import SwordTool
from ..tables import Table

PC_EVICT_W = pc_of("section2.c", 4, "loop")
PC_EVICT_R = pc_of("section2.c", 4, "loop_read_a0")
PC_FIG5_R = pc_of("figure5.c", 4, "loop")
PC_FIG5_W = pc_of("figure5.c", 4, "loop_store")


def eviction_program(m, n: int = 64):
    """§II: a[i] = a[i] + a[0] — exactly one thread writes a[0]."""
    a = m.alloc_array("a", n, fill=1)

    def body(ctx):
        for i in ctx.for_range(n):
            v0 = ctx.read(a, 0, pc=PC_EVICT_R)
            vi = ctx.read(a, i, pc=pc_of("section2.c", 4, "loop_read_ai"))
            ctx.write(a, i, vi + v0, pc=PC_EVICT_W)

    m.parallel(body)


def fig5_program(m, n: int = 1000):
    """Fig. 5: a[i] = a[i-1] with two threads."""
    a = m.alloc_array("a", n, fill=0)

    def body(ctx):
        for i in ctx.for_range(n - 1):
            v = ctx.read(a, i, pc=PC_FIG5_R)
            ctx.write(a, i + 1, v, pc=PC_FIG5_W)

    m.parallel(body, nthreads=2)


def run_eviction(nthreads: int = 8, seeds: Sequence[int] = (0, 1, 2, 3)) -> Table:
    """ARCHER vs SWORD on the §II eviction example."""
    table = Table(
        "E10a / §II eviction example: a[i] = a[i] + a[0]",
        ["seed", "archer races", "archer evictions", "sword races"],
    )
    for seed in seeds:
        archer = ArcherTool()
        OpenMPRuntime(
            RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
            tool=archer,
        ).run(eviction_program)
        tmp = tempfile.mkdtemp(prefix="evict-")
        try:
            sword = SwordTool(SwordConfig(log_dir=tmp))
            OpenMPRuntime(
                RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
                tool=sword,
            ).run(eviction_program)
            sword_count = analyze_trace(tmp).race_count
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        table.add(seed, archer.race_count, archer.evictions, sword_count)
    table.note("the write record of a[0] is evicted by the writer's own reads")
    return table


def run_fig5(n: int = 1000) -> tuple[Table, str]:
    """Build the Figure-5 interval trees and show the overlap constraint."""
    rec = RecordingTool()
    rt = OpenMPRuntime(
        RunConfig(nthreads=2, scheduler=SchedulerConfig(seed=0)), tool=rec
    )
    rt.run(lambda m: fig5_program(m, n))

    accesses: dict[int, list] = {}
    for entry in rec.accesses():
        accesses.setdefault(entry.gid, []).append(entry.access)
    trees = {gid: build_tree(items) for gid, items in accesses.items()}

    table = Table(
        "E10b / Figure 5: per-thread summarised interval trees",
        ["thread", "tree nodes", "events summarised", "bisection depth"],
    )
    for gid in sorted(trees):
        tree = trees[gid]
        # Depth of the implicit median-split search over the sorted rows.
        table.add(gid, len(tree), len(accesses[gid]), len(tree).bit_length())

    # Find one overlapping cross-thread node pair and render its system.
    gids = sorted(trees)
    system_text = "no overlap found"
    for si in trees[gids[0]]:
        hits = list(trees[gids[1]].iter_overlaps(si.low, si.high))
        if hits:
            system = OverlapSystem(constraint_of(si), constraint_of(hits[0]))
            witness = system.solve()
            system_text = (
                system.pretty()
                + f"\nsatisfiable: {witness is not None}"
                + (f", witness address {witness.address:#x}" if witness else "")
            )
            break
    return table, system_text


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_eviction().render())
    print()
    table, system_text = run_fig5()
    print(table.render())
    print()
    print("Overlap constraint system (paper §III-B form):")
    print(system_text)


if __name__ == "__main__":  # pragma: no cover
    main()
