"""End-to-end race detection with tasks: SWORD+extension vs oracle vs ARCHER."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archer import ArcherTool
from repro.common.config import ArcherConfig, RunConfig, SchedulerConfig
from repro.common.sourceloc import pc_of
from repro.offline import analyze_trace
from repro.omp import OpenMPRuntime
from repro.sword import TraceDir
from repro.tasking.graph import TaskGraph

from conftest import sword_and_oracle


def check(program, trace_dir, *, nthreads=4, seed=0):
    races, oracle, _rec, _rt = sword_and_oracle(
        program, trace_dir, nthreads=nthreads, seed=seed
    )
    assert races.pc_pairs() == oracle.pc_pairs(), (
        f"sword={sorted(races.pc_pairs())} oracle={sorted(oracle.pc_pairs())}"
    )
    return races


def test_sibling_tasks_race(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def t1(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 1))

        def t2(ctx):
            ctx.write(x, 0, 2.0, pc=pc_of("tr.c", 2))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(t1)
                ctx.task(t2)
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 1


def test_creation_point_orders_prior_code(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def reader(ctx):
            ctx.read(x, 0, pc=pc_of("tr.c", 11))

        def body(ctx):
            if ctx.tid == 0:
                ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 10))  # before creation
                ctx.task(reader)
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 0


def test_creator_code_after_creation_races(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def reader(ctx):
            ctx.read(x, 0, pc=pc_of("tr.c", 21))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(reader)
                ctx.write(x, 0, 2.0, pc=pc_of("tr.c", 22))  # after creation
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 1


def test_taskwait_restores_order(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def writer(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 31))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(writer)
                ctx.taskwait()
                ctx.read(x, 0, pc=pc_of("tr.c", 33))
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 0


def test_wait_separated_task_generations(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def gen1(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 41))

        def gen2(ctx):
            ctx.write(x, 0, 2.0, pc=pc_of("tr.c", 42))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(gen1)
                ctx.taskwait()
                ctx.task(gen2)
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 0


def test_tasks_bounded_by_barrier(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def writer(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 51))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(writer)
            ctx.barrier()
            ctx.read(x, 0, pc=pc_of("tr.c", 54))
        m.parallel(body, nthreads=3)

    assert len(check(program, trace_dir)) == 0


def test_task_races_with_other_threads(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def writer(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 61))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(writer)
            else:
                ctx.read(x, 0, pc=pc_of("tr.c", 64))
        m.parallel(body, nthreads=3)

    assert len(check(program, trace_dir)) == 1


def test_task_graph_scanned_once_per_region_instance(trace_dir, monkeypatch):
    """Whether a barrier interval holds tasks is answered from the graph's
    (pid, bid) index: neither the pair planner nor the engine scans the
    task list, once or per pair compared."""
    def program(m):
        x = m.alloc_array("x", 2)

        def body(ctx):
            for phase in range(2):
                if ctx.tid == 0:
                    ctx.task(lambda c: c.write(x, phase, 1.0, pc=pc_of("tr.c", 66)))
                else:
                    ctx.read(x, phase, pc=pc_of("tr.c", 67))
                ctx.barrier()
        m.parallel(body, nthreads=3)

    assert len(check(program, trace_dir)) == 1
    groups = {(t.pid, t.bid) for t in TraceDir(trace_dir).task_graph.tasks()}
    assert len(groups) == 2  # both phases hold a task
    scans = []
    tasks = TaskGraph.tasks
    monkeypatch.setattr(
        TaskGraph, "tasks", lambda self: scans.append(1) or tasks(self)
    )
    trace = TraceDir(trace_dir)
    result = analyze_trace(trace)
    assert len(result.races) == 1
    assert all(trace.task_graph.holds_tasks(*group) for group in groups)
    assert result.stats.concurrent_pairs > len(groups)
    assert scans == []


def test_locked_tasks_do_not_race(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def t1(ctx):
            with ctx.critical("x"):
                ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 71))

        def t2(ctx):
            with ctx.critical("x"):
                ctx.write(x, 0, 2.0, pc=pc_of("tr.c", 72))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(t1)
                ctx.task(t2)
        m.parallel(body, nthreads=2)

    assert len(check(program, trace_dir)) == 0


def test_nested_tasks_ordering(trace_dir):
    def program(m):
        x = m.alloc_scalar("x")

        def grandchild(ctx):
            ctx.read(x, 0, pc=pc_of("tr.c", 81))

        def child(ctx):
            ctx.write(x, 0, 1.0, pc=pc_of("tr.c", 82))  # before grandchild
            ctx.task(grandchild)

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(child)
        m.parallel(body, nthreads=2)

    # child's write precedes the grandchild's creation: ordered, no race.
    assert len(check(program, trace_dir)) == 0


def test_archer_with_task_edges_also_detects(trace_dir):
    """Both detectors see creator-vs-task races once tasks are first-class:
    our ARCHER models tasks as lightweight threads (TSan's approach), so
    the race is caught even when the creator executes its own task.  The
    §III-C contrast is about tools *without* task identity — covered by
    the runtime test showing the naive same-thread view would order the
    accesses."""

    def program(m):
        x = m.alloc_scalar("x")

        def reader(ctx):
            ctx.read(x, 0, pc=pc_of("tr.c", 91))

        def body(ctx):
            if ctx.tid == 0:
                ctx.task(reader)
                ctx.write(x, 0, 2.0, pc=pc_of("tr.c", 92))
        m.parallel(body, nthreads=2)

    races = check(program, trace_dir, seed=0)
    assert len(races) == 1

    for seed in range(4):
        archer = ArcherTool(ArcherConfig())
        rt = OpenMPRuntime(
            RunConfig(nthreads=2, scheduler=SchedulerConfig(seed=seed)),
            tool=archer,
        )
        rt.run(program)
        assert archer.race_count == 1


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["task_w", "task_r", "write", "read", "wait"]),
            st.integers(0, 3),  # target index
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2),
)
def test_property_task_programs_match_oracle(ops, seed):
    """Random task/wait/access sequences: analyzer == oracle, always."""
    import shutil
    import tempfile

    def program(m):
        arr = m.alloc_array("arr", 4)

        def t_writer(ctx, i, site):
            ctx.write(arr, i, 1.0, pc=pc_of("gen-task.c", site))

        def t_reader(ctx, i, site):
            ctx.read(arr, i, pc=pc_of("gen-task.c", site))

        def body(ctx):
            if ctx.tid != 0:
                return
            for site, (kind, idx) in enumerate(ops):
                if kind == "task_w":
                    ctx.task(t_writer, idx, 100 + site)
                elif kind == "task_r":
                    ctx.task(t_reader, idx, 200 + site)
                elif kind == "write":
                    ctx.write(arr, idx, 2.0, pc=pc_of("gen-task.c", 300 + site))
                elif kind == "read":
                    ctx.read(arr, idx, pc=pc_of("gen-task.c", 400 + site))
                else:
                    ctx.taskwait()
        m.parallel(body, nthreads=3)

    tmp = tempfile.mkdtemp(prefix="taskprop-")
    try:
        races, oracle, _rec, _rt = sword_and_oracle(
            program, tmp, nthreads=3, seed=seed
        )
        assert races.pc_pairs() == oracle.pc_pairs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
