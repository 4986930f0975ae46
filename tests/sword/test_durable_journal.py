"""Durable mode's run-wide tables: O(1) per region fork, salvageable.

A durable run keeps the regions, the mutex sets and the static verdicts
recoverable throughout.  Each fork appends one journal line per table it
grows and rewrites the in-progress manifest only when its small header
(the thread list) changes, so the bytes written per fork do not grow
with the number of regions.  A run killed before finalisation still
yields its synthesised witnesses: the reader folds the verdict journal.
"""

import json

import pytest

from repro import api
from repro.common.errors import TraceFormatError
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir
from repro.sword import logger as logger_module
from repro.omp import mutexset as mutexset_module
from repro.sword.traceformat import (
    MANIFEST_NAME,
    VERDICTS_JOURNAL_NAME,
    parse_journal,
)
from repro.static.table import STATIC_VERDICTS_KEY
from repro.workloads import REGISTRY


def _tool(trace_dir, **knobs):
    return SwordTool(
        SwordConfig(log_dir=str(trace_dir), durable=True, **knobs)
    )


def _run(tool, name, *, nthreads=4, **params):
    workload = REGISTRY.get(name)
    OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=0)),
        tool=tool,
    ).run(lambda m: workload.run_program(m, **params))


def test_bytes_per_fork_do_not_grow_with_region_count(tmp_path, monkeypatch):
    written = [0]
    real_atomic = logger_module.atomic_write_text
    real_journal_line = logger_module.journal_line

    def atomic_write_text(path, text):
        written[0] += len(text)
        real_atomic(path, text)

    def journal_line(record):
        line = real_journal_line(record)
        written[0] += len(line)
        return line

    monkeypatch.setattr(logger_module, "atomic_write_text", atomic_write_text)
    monkeypatch.setattr(mutexset_module, "atomic_write_text", atomic_write_text)
    monkeypatch.setattr(logger_module, "journal_line", journal_line)
    tool = _tool(tmp_path)
    at_fork: list[int] = []
    fork = tool.on_parallel_begin

    def counted_fork(region):
        at_fork.append(written[0])
        fork(region)

    monkeypatch.setattr(tool, "on_parallel_begin", counted_fork)
    _run(tool, "lulesh", steps=12)  # 96 regions
    # Bytes written from one fork to the next: the fork's journal lines,
    # the region's verdict line, and any snapshot rewrite.
    deltas = [b - a for a, b in zip(at_fork, at_fork[1:])]
    assert len(deltas) == 95
    # Past the first step (threads appear, the header settles) every fork
    # writes the same few journal lines: a pid gaining a digit is the
    # only growth, never the size of the tables written so far.
    early, late = deltas[8:16], deltas[-8:]
    assert max(late) <= max(early) + 8
    assert sum(late) <= sum(early) + 64


def test_finalized_manifest_carries_the_table(tmp_path):
    tool = _tool(tmp_path)
    _run(tool, "staticlab_wshift")
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert "in_progress" not in manifest
    assert STATIC_VERDICTS_KEY in manifest
    journal = parse_journal((tmp_path / VERDICTS_JOURNAL_NAME).read_text())
    assert [r["pid"] for r in journal] == sorted(tool._verdict_table.regions)


def test_killed_run_keeps_synthesised_witness(tmp_path):
    """No finalisation: no regions.json, no verdict table in the manifest,
    and the witnessing sites' events were elided; the verdict journal
    alone carries the race."""
    clean = tmp_path / "clean"
    _run(_tool(clean), "staticlab_wshift")
    reference = api.analyze(TraceDir(clean))
    assert len(reference.races) == 1

    killed = tmp_path / "killed"
    _kill_before_finalize(killed, "staticlab_wshift")
    manifest = json.loads((killed / MANIFEST_NAME).read_text())
    assert manifest["in_progress"] and STATIC_VERDICTS_KEY not in manifest

    trace = TraceDir(killed, integrity="salvage")
    assert trace.static_verdicts.regions == TraceDir(clean).static_verdicts.regions
    salvaged = api.analyze(killed, integrity="salvage")
    assert salvaged.races.to_json() == reference.races.to_json()


def test_lost_manifest_keeps_synthesised_witness(tmp_path):
    """A lost manifest takes its verdict table with it; salvage folds
    the verdict journal in its place."""
    _run(_tool(tmp_path), "staticlab_wshift")
    reference = api.analyze(TraceDir(tmp_path))
    assert len(reference.races) == 1
    (tmp_path / MANIFEST_NAME).unlink()
    salvaged = api.analyze(tmp_path, integrity="salvage")
    assert salvaged.races.to_json() == reference.races.to_json()
    assert salvaged.integrity.missing_files == [MANIFEST_NAME]


def _kill_before_finalize(trace_dir, name, **params):
    tool = _tool(trace_dir)
    tool.on_run_end = lambda runtime: None  # the run dies here
    _run(tool, name, **params)
    for log in tool._logs.values():
        log.file.close()
        log.meta_file.close()


def test_torn_verdict_journal_line_is_dropped_in_salvage(tmp_path):
    _kill_before_finalize(tmp_path, "lulesh", steps=2)
    path = tmp_path / VERDICTS_JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    trace = TraceDir(tmp_path, integrity="salvage")
    assert len(trace.static_verdicts.regions) == len(lines) - 1
    with pytest.raises(TraceFormatError, match="journal"):
        TraceDir(tmp_path)
