"""Exhaustive race oracle over a recorded execution tape.

Ground truth for tests: given the full, globally ordered event tape of a
simulated run (:class:`~repro.omp.recording.RecordingTool`), judge every
pair of accesses from different threads, decide concurrency with the
barrier-interval judgment on their (runtime-computed) labels, and check the
race condition by expanding byte-address sets.  Only accesses that share a
byte, one of them writing, can race: each access meets only the later ones
whose byte extents overlap its own, in the tape's (i, j) order — the
all-pairs loop's order, so each pc pair keeps that loop's first witness.
"""

from __future__ import annotations

import numpy as np

from ..omp.mutexset import MutexSetTable
from ..omp.recording import RecordingTool
from ..osl.concurrency import concurrent_intervals
from .report import RaceSet, make_report


def oracle_races(
    tool: RecordingTool, mutexsets: MutexSetTable
) -> RaceSet:
    """All racing pc pairs of the recorded execution (exhaustive).

    Same-interval pairs in intervals containing explicit tasks are judged
    by the task-ordering graph (tasking extension) — which also enables
    same-thread races (executor/creator code vs a deferred task).
    """
    from ..tasking.graph import decode_point

    accesses = tool.accesses()
    graph = tool.task_graph
    tasky = {(t.pid, t.bid) for t in graph.tasks()}
    races = RaceSet()
    low = np.array([e.access.low for e in accesses], dtype=np.int64)
    high = np.array([e.access.high for e in accesses], dtype=np.int64)
    write = np.array([e.access.is_write for e in accesses], dtype=bool)
    addr_sets: dict[int, frozenset[int]] = {}

    def bytes_of(k: int) -> frozenset[int]:
        if k not in addr_sets:
            addr_sets[k] = frozenset(accesses[k].access.addresses().tolist())
        return addr_sets[k]

    for i in range(len(accesses)):
        ei = accesses[i]
        ai = ei.access
        # Later accesses whose extent meets i's, one side writing.
        later = slice(i + 1, None)
        meets = (low[later] <= high[i]) & (high[later] >= low[i])
        if not ai.is_write:
            meets &= write[later]
        for j in (np.flatnonzero(meets) + i + 1).tolist():
            ej = accesses[j]
            aj = ej.access
            if ai.is_atomic and aj.is_atomic:
                continue
            if (ai.pc, aj.pc) in races or (aj.pc, ai.pc) in races:
                continue
            if not mutexsets.disjoint(ai.msid, aj.msid):
                continue
            same_interval = ei.region == ej.region and ei.bid == ej.bid
            if same_interval and (ei.region, ei.bid) in tasky:
                ent_i, seq_i = decode_point(ai.task_point)
                ent_j, seq_j = decode_point(aj.task_point)
                if not graph.concurrent(
                    ent_i, seq_i, ei.gid, ent_j, seq_j, ej.gid
                ):
                    continue
            else:
                if ei.gid == ej.gid:
                    continue
                if not concurrent_intervals(ei.chain, ej.chain):
                    continue
            common = bytes_of(i) & bytes_of(j)
            if not common:
                continue
            races.add(
                make_report(
                    pc_a=ai.pc,
                    pc_b=aj.pc,
                    address=min(common),
                    write_a=ai.is_write,
                    write_b=aj.is_write,
                    gid_a=ei.gid,
                    gid_b=ej.gid,
                    pid_a=ei.region,
                    pid_b=ej.region,
                    bid_a=ei.bid,
                    bid_b=ej.bid,
                )
            )
    return races
