"""The kill-point sweep: SWORD's crash-tolerance property test.

The headline durability guarantee is *kill-anywhere*: truncate a trace at
any byte — a frame boundary, mid-header, mid-payload, before the commit
marker — or kill the run after its last flush but before it finalises,
and salvage analysis still completes, reporting a race set that
is a **subset** of what the undamaged trace yields (never a crash, never
an invented race), with the loss itemised in an
:class:`~repro.sword.integrity.IntegrityReport`.

This module enumerates those kill points from a clean trace's actual
frame layout, replays each one against a pristine copy, and checks the
property.  It backs both the ``tests/faults`` property test and the CI
``faults-smoke`` step (``python -m repro faults sweep``).
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from ..common.config import RunConfig, SchedulerConfig, SwordConfig
from ..common.errors import TraceFormatError
from ..obs import get_obs
from ..omp.runtime import OpenMPRuntime
from ..sword.logger import SwordTool
from ..sword.reader import ThreadTraceReader, TraceDir
from ..sword.traceformat import (
    MANIFEST_NAME, MUTEXSETS_NAME, REGIONS_NAME, TASKS_NAME,
)
from ..workloads import REGISTRY
from ..workloads.base import Workload


@dataclass(frozen=True, slots=True)
class KillPoint:
    """One simulated kill: truncate ``target`` at ``offset`` bytes, or
    (``pre-finalise``) leave the trace as an unfinalised run does."""

    target: str  # file name relative to the trace directory
    offset: int
    kind: str  # "clean-end" | "boundary" | "mid-header" | "mid-payload" | "pre-commit" | "pre-finalise"

    def describe(self) -> str:
        return f"{self.target}@{self.offset} ({self.kind})"


def _resolve(workload: Union[str, Workload]) -> Workload:
    if isinstance(workload, str):
        return REGISTRY.get(workload)
    return workload


def collect_trace(
    workload: Union[str, Workload],
    trace_dir: str | Path,
    *,
    nthreads: int = 2,
    seed: int = 0,
    buffer_events: int = 64,
    durable: bool = True,
    **params,
) -> None:
    """Run one workload under SWORD, leaving the trace in ``trace_dir``.

    A small ``buffer_events`` forces many flushes so the logs contain
    enough frames to make the kill-point sweep meaningful.  Durable mode
    is the default: the sweep models kills, and only durable traces keep
    their meta rows on disk at kill time.
    """
    w = _resolve(workload)
    tool = SwordTool(
        SwordConfig(
            log_dir=str(trace_dir), buffer_events=buffer_events, durable=durable
        )
    )
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)),
        tool=tool,
    )
    rt.run(lambda master: w.run_program(master, **params))


_LOG_NAME_RE = re.compile(r"^thread_(\d+)\.log$")


def frame_kill_points(trace_dir: str | Path) -> list[KillPoint]:
    """Enumerate kill points from the actual frame layout of each log.

    Per frame: the boundary after it, a mid-header cut, a mid-payload
    cut, and a cut just before the commit marker; plus the file end
    itself (``clean-end`` — the no-fault control point, which salvage
    must analyze byte-identically to strict).  Last, ``pre-finalise``:
    the run killed after its last flush, before it finalised.  The
    layout comes from the reader's own
    :meth:`~repro.sword.reader.ThreadTraceReader.frame_spans` index —
    the sweep cuts exactly where the reader says frames live, with no
    second frame parser to drift out of sync.
    """
    trace_dir = Path(trace_dir)
    points: list[KillPoint] = []
    for log_path in sorted(trace_dir.glob("thread_*.log")):
        name = log_path.name
        gid = int(_LOG_NAME_RE.match(name).group(1))
        size = log_path.stat().st_size
        try:
            with ThreadTraceReader(trace_dir, gid) as reader:
                spans = reader.frame_spans()
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"{exc} (sweep requires a clean trace)"
            ) from exc
        covered = spans[-1].end if spans else 0
        if covered != size:
            raise TraceFormatError(
                f"{log_path}: trailing bytes past frame {len(spans) - 1} at "
                f"byte {covered} (sweep requires a clean trace)"
            )
        for span in spans:
            points.append(
                KillPoint(name, span.start + span.header_bytes // 2, "mid-header")
            )
            points.append(
                KillPoint(
                    name,
                    span.start + span.header_bytes + span.payload_bytes // 2,
                    "mid-payload",
                )
            )
            points.append(KillPoint(name, span.end - 4, "pre-commit"))
            points.append(
                KillPoint(
                    name,
                    span.end,
                    "clean-end" if span.end == size else "boundary",
                )
            )
    return points + [KillPoint(MANIFEST_NAME, 0, "pre-finalise")]


@dataclass(slots=True)
class SweepPointResult:
    """Outcome of salvage analysis after one kill."""

    point: KillPoint
    completed: bool
    subset_ok: bool
    identical: bool  # race set byte-identical to the clean run's
    races: int = 0
    error: str = ""
    integrity: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        if self.point.kind == "clean-end":
            return self.completed and self.identical
        return self.completed and self.subset_ok

    def to_json(self) -> dict:
        return {
            "target": self.point.target,
            "offset": self.point.offset,
            "kind": self.point.kind,
            "completed": self.completed,
            "subset_ok": self.subset_ok,
            "identical": self.identical,
            "races": self.races,
            "ok": self.ok,
            "error": self.error,
            "integrity": self.integrity,
        }


@dataclass(slots=True)
class SweepResult:
    """All kill points of one workload, checked against the clean run."""

    workload: str
    seed: int
    nthreads: int
    clean_races: int
    points: list[SweepPointResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def failures(self) -> list[SweepPointResult]:
        return [p for p in self.points if not p.ok]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "nthreads": self.nthreads,
            "clean_races": self.clean_races,
            "kill_points": len(self.points),
            "ok": self.ok,
            "points": [p.to_json() for p in self.points],
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} point(s))"
        return (
            f"kill-sweep {self.workload}: {len(self.points)} kill point(s), "
            f"clean races={self.clean_races} -> {status}"
        )


def apply_kill_point(clean: Path, work: Path, point: KillPoint) -> None:
    """Make ``work`` the clean trace as ``point`` leaves it.  Before
    finalising, a run has not written its regions, mutex-set and task
    tables, and its manifest is the in-progress header."""
    if work.exists():
        shutil.rmtree(work)
    shutil.copytree(clean, work)
    target = work / point.target
    if point.kind != "pre-finalise":
        target.write_bytes(target.read_bytes()[: point.offset])
        return
    for name in (REGIONS_NAME, MUTEXSETS_NAME, TASKS_NAME):
        (work / name).unlink(missing_ok=True)
    manifest = json.loads(target.read_text())
    header = {"in_progress": True, **{
        key: manifest[key]
        for key in ("format_version", "codec", "buffer_events", "thread_gids")
    }}
    target.write_text(json.dumps(header, indent=2, sort_keys=True))


def kill_sweep(
    workload: Union[str, Workload],
    *,
    nthreads: int = 2,
    seed: int = 0,
    buffer_events: int = 64,
    max_points: int | None = None,
    keep_root: str | Path | None = None,
    **params,
) -> SweepResult:
    """Run the full kill-anywhere property check for one workload.

    Collects one clean durable trace, analyses it strictly (the
    reference race set), then for every enumerated kill point truncates
    a pristine copy and salvage-analyses it.  ``max_points`` subsamples
    evenly for smoke runs; ``keep_root`` keeps the working directory
    (for debugging) instead of a self-cleaning temp dir.
    """
    from .. import api  # deferred: api imports the harness driver stack

    w = _resolve(workload)
    root = Path(keep_root) if keep_root else Path(
        tempfile.mkdtemp(prefix="sword-faults-")
    )
    root.mkdir(parents=True, exist_ok=True)
    clean = root / "clean"
    try:
        collect_trace(
            w, clean, nthreads=nthreads, seed=seed,
            buffer_events=buffer_events, **params,
        )
        reference = api.analyze(TraceDir(clean))
        ref_pairs = reference.races.pc_pairs()
        ref_json = reference.races.to_json()
        points = frame_kill_points(clean)
        if max_points is not None and len(points) > max_points:
            step = len(points) / max_points
            points = [points[int(i * step)] for i in range(max_points)]
        result = SweepResult(
            workload=w.name,
            seed=seed,
            nthreads=nthreads,
            clean_races=len(ref_pairs),
        )
        work = root / "work"
        journal = get_obs().journal
        for point in points:
            apply_kill_point(clean, work, point)
            try:
                analysis = api.analyze(work, integrity="salvage")
            except Exception as exc:  # the property forbids ANY crash
                result.points.append(
                    SweepPointResult(
                        point=point,
                        completed=False,
                        subset_ok=False,
                        identical=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                journal.record(
                    "kill-point",
                    workload=w.name,
                    target=point.target,
                    offset=point.offset,
                    kill_kind=point.kind,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            pairs = analysis.races.pc_pairs()
            outcome = SweepPointResult(
                point=point,
                completed=True,
                subset_ok=pairs <= ref_pairs,
                identical=analysis.races.to_json() == ref_json,
                races=len(pairs),
                integrity=(
                    analysis.integrity.to_json()
                    if analysis.integrity is not None
                    else {}
                ),
            )
            result.points.append(outcome)
            journal.record(
                "kill-point",
                workload=w.name,
                target=point.target,
                offset=point.offset,
                kill_kind=point.kind,
                ok=outcome.ok,
                races=len(pairs),
            )
        return result
    finally:
        if keep_root is None:
            shutil.rmtree(root, ignore_errors=True)
