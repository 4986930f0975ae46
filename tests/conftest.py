"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib
import sys

# Make this conftest importable (`from conftest import ...`) from tests in
# subdirectories, which are not packages.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import contextlib
import errno
import io
import shutil
import tempfile
from itertools import combinations
from unittest import mock

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.faults.fixtures import *  # noqa: F401,F403 (fault-injection fixtures)
from repro.offline import AnalysisEngine, analyze_trace, oracle_races
from repro.omp import OpenMPRuntime, RecordingTool, ToolMux
from repro.osl.concurrency import concurrent_intervals
from repro.sword import SwordTool, TraceDir


@pytest.fixture
def trace_dir():
    """A disposable trace directory."""
    path = tempfile.mkdtemp(prefix="sword-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_program(program, *, nthreads=4, seed=0, yield_every=0, tool=None):
    """Run a model program on a fresh runtime; returns the runtime."""
    rt = OpenMPRuntime(
        RunConfig(
            nthreads=nthreads,
            scheduler=SchedulerConfig(seed=seed, yield_every=yield_every),
        ),
        tool=tool,
    )
    rt.run(program)
    return rt


def sword_and_oracle(program, trace_path, *, nthreads=4, seed=0, yield_every=0):
    """Run once with recorder+sword attached; return (sword races, oracle races).

    The workhorse of the end-to-end tests: the streaming interval-tree
    analysis must agree exactly with the exhaustive oracle on the same
    execution.
    """
    rec = RecordingTool()
    sword = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=128))
    rt = OpenMPRuntime(
        RunConfig(
            nthreads=nthreads,
            scheduler=SchedulerConfig(seed=seed, yield_every=yield_every),
        ),
        tool=ToolMux([rec, sword]),
    )
    rt.run(program)
    analysis = analyze_trace(TraceDir(trace_path))
    oracle = oracle_races(rec, rt.mutexsets)
    return analysis.races, oracle, rec, rt


def interval_rows(trace):
    """Every interval of a trace, empty ones too: its (gid, pid, bid)
    mapped to its meta rows."""
    rows = {}
    for gid in trace.thread_gids:
        with trace.reader(gid) as reader:
            for row in reader.rows:
                rows.setdefault((gid, row.pid, row.bid), []).append(row)
    return rows


def pair_key(a, b):
    """Order-normalised identity of one interval pair."""
    return (a, b) if a <= b else (b, a)


def reference_pairs(trace, slots):
    """The planner's brute-force oracle: the label judgment over every
    two intervals of different threads, plus each interval of a barrier
    interval holding explicit tasks with itself (``slots`` maps each
    interval's (gid, pid, bid) to its slot)."""
    labels = {
        key: trace.interval_label(key[1], slot, key[2])
        for key, slot in slots.items()
    }
    tasky = {(t.pid, t.bid) for t in trace.task_graph.tasks()}
    expected = {(k, k) for k in labels if (k[1], k[2]) in tasky}
    for a, b in combinations(labels, 2):
        if a[0] != b[0] and concurrent_intervals(labels[a], labels[b]):
            expected.add(pair_key(a, b))
    return expected


@pytest.fixture
def compares(monkeypatch):
    """One entry per pair that reached build + compare."""
    seen = []
    original = AnalysisEngine.compare_trees

    def spy(self, *args, **kwargs):
        seen.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "compare_trees", spy)
    return seen


class Killed(BaseException):
    """A crash mid-analysis: not an ``Exception``, so neither the salvage
    rule nor any driver swallows it."""


def kill_after(monkeypatch, k):
    """Make the pair comparison after the first ``k`` ones die with
    :class:`Killed` (wrapping whatever ``compare_trees`` is patched in)."""
    compare = AnalysisEngine.compare_trees
    calls = [0]

    def killing(self, *args, **kwargs):
        if calls[0] == k:
            raise Killed
        calls[0] += 1
        return compare(self, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "compare_trees", killing)


@contextlib.contextmanager
def disk_full_midwrite():
    """Inside the block, every text file opened for writing takes half of
    the text it is given, then fails with ENOSPC.  ``Path.write_text``
    and ``os.fdopen`` both open files through ``io.open``."""
    real_open = io.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and "b" not in mode:
            write = fh.write

            def half_write(text):
                write(text[: len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = half_write
        return fh

    with mock.patch.object(io, "open", opener):
        yield
