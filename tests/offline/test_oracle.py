"""The byte-indexed oracle is the all-pairs loop, witness for witness.

``quadratic_oracle`` is the oracle as first written: every pair of tape
accesses, judged in (i, j) order.  ``oracle_races`` judges only the pairs
that share a byte with one side writing, in the same order, so both must
give the same ``RaceSet`` — pc pairs and the witness kept for each.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_program
from repro.common.sourceloc import pc_of
from repro.offline import oracle_races
from repro.offline.report import RaceSet, make_report
from repro.omp import RecordingTool
from repro.osl.concurrency import concurrent_intervals
from repro.workloads import REGISTRY


def quadratic_oracle(tool, mutexsets) -> RaceSet:
    """The reference: every access pair of the tape, in (i, j) order."""
    from repro.tasking.graph import decode_point

    accesses = tool.accesses()
    graph = tool.task_graph
    tasky = {(t.pid, t.bid) for t in graph.tasks()}
    races = RaceSet()
    addr_sets = [frozenset(int(x) for x in e.access.addresses()) for e in accesses]
    for i in range(len(accesses)):
        ei = accesses[i]
        ai = ei.access
        for j in range(i + 1, len(accesses)):
            ej = accesses[j]
            aj = ej.access
            if not (ai.is_write or aj.is_write):
                continue
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
            common = addr_sets[i] & addr_sets[j]
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


def both_oracles(program, *, nthreads, seed=0):
    rec = RecordingTool()
    rt = run_program(program, nthreads=nthreads, seed=seed, tool=rec)
    indexed = oracle_races(rec, rt.mutexsets)
    quadratic = quadratic_oracle(rec, rt.mutexsets)
    return indexed, quadratic, len(rec.accesses())


def as_json(races) -> str:
    return json.dumps(races.to_json(), sort_keys=True)


#: Small tapes covering tasks, nested regions, locks, atomics, sections
#: and strided bulk accesses.
SMALL = [
    "plusplus-orig-yes",
    "figure2-nested",
    "figure5-truedep",
    "task-reduce-racy",
    "task-pipeline",
    "critical-orig-no",
    "sections-orig-yes",
    "nowait-orig-yes",
    "antidep1-orig-yes",
    "staticlab_wshift",
]


@pytest.mark.parametrize("name", SMALL)
def test_indexed_oracle_equals_quadratic_on_workloads(name):
    workload = REGISTRY.get(name)
    indexed, quadratic, n = both_oracles(workload.run_program, nthreads=4)
    assert n > 0
    assert as_json(indexed) == as_json(quadratic)


#: One generated op: (kind, array, index, pc line).
OPS = st.tuples(
    st.sampled_from(["r", "w", "aw", "ar", "cw", "rs", "ws", "task"]),
    st.integers(0, 1),
    st.integers(0, 5),
    st.integers(1, 4),
)


def generated(phases):
    """Threads run their op lists phase by phase, a barrier between
    phases; two arrays of different element sizes."""

    def program(m):
        arrays = (
            m.alloc_array("f", 8),
            m.alloc_array("i", 12, dtype=np.int32),
        )

        def op(ctx, kind, which, index, line):
            arr, pc = arrays[which], pc_of("gen.c", line)
            if kind == "r":
                ctx.read(arr, index, pc=pc)
            elif kind == "w":
                ctx.write(arr, index, 1, pc=pc)
            elif kind == "aw":
                ctx.atomic_write(arr, index, 1, pc=pc)
            elif kind == "ar":
                ctx.atomic_read(arr, index, pc=pc)
            elif kind == "cw":
                with ctx.critical():
                    ctx.write(arr, index, 1, pc=pc)
            elif kind == "rs":
                ctx.read_slice(arr, index, index + 5, step=2, pc=pc)
            elif kind == "ws":
                ctx.write_slice(arr, index, index + 4, [1] * 2, step=2, pc=pc)
            else:
                ctx.task(lambda c: c.write(arr, index, 2, pc=pc))

        def body(ctx):
            for n, phase in enumerate(phases):
                if n:
                    ctx.barrier()
                for step in phase[ctx.tid]:
                    op(ctx, *step)

        m.parallel(body, nthreads=2)

    return program


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(
        st.lists(st.lists(OPS, max_size=5), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 3),
)
def test_indexed_oracle_equals_quadratic_on_generated_tapes(phases, seed):
    indexed, quadratic, _ = both_oracles(generated(phases), nthreads=2, seed=seed)
    assert as_json(indexed) == as_json(quadratic)
