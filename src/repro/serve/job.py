"""Job records: one submitted trace directory through its lifecycle.

States move strictly forward::

    QUEUED -> PLANNING -> RUNNING -> DONE | DEGRADED | FAILED | CANCELLED

Admission attaches a :class:`TriageInfo` — a cheap, metadata-only
costing of the trace (bytes, threads, meta rows) read without inflating
a single frame, in the spirit of running admission control on compressed
traces: the queue can reject or prioritise without paying decompression.

``DEGRADED`` is the graceful-degradation terminal state: one or more
*poison* shards exhausted their full retry/crash budget and were
quarantined, but the surviving shards merged normally — the job carries
a valid race set over the covered pair fraction plus a structured
:class:`DegradationReport` saying exactly what is missing and why.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..offline.engine import AnalysisResult, AnalysisStats
from ..offline.report import RaceSet
from ..sword.integrity import IntegrityReport
from .tracing import TraceContext

QUEUED = "queued"
PLANNING = "planning"
RUNNING = "running"
DONE = "done"
DEGRADED = "degraded"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can still leave.
ACTIVE_STATES = (QUEUED, PLANNING, RUNNING)
#: States a job never leaves.
TERMINAL_STATES = (DONE, DEGRADED, FAILED, CANCELLED)
#: Terminal states whose merged result is valid (full or partial).
RESULT_STATES = (DONE, DEGRADED)


@dataclass(frozen=True, slots=True)
class TriageInfo:
    """Admission-time costing from trace metadata only (no frame decode)."""

    log_bytes: int
    threads: int
    meta_rows: int

    def to_json(self) -> dict:
        return {
            "log_bytes": self.log_bytes,
            "threads": self.threads,
            "meta_rows": self.meta_rows,
        }


def triage_trace(trace_dir: str | Path) -> TriageInfo:
    """Cost a trace directory from file sizes and meta-row counts.

    Never opens a log frame: sizes come from ``stat`` and the row count
    from the (tiny, line-oriented) meta files.  Tolerant of damage — a
    salvage submission must still be admittable — so unreadable pieces
    simply count as zero.
    """
    trace_dir = Path(trace_dir)
    log_bytes = 0
    threads = 0
    meta_rows = 0
    for log in sorted(trace_dir.glob("thread_*.log")):
        threads += 1
        try:
            log_bytes += log.stat().st_size
        except OSError:
            pass
        meta = log.with_suffix(".meta")
        try:
            with open(meta, "r", errors="replace") as fh:
                meta_rows += sum(1 for line in fh if line.strip())
        except OSError:
            pass
    return TriageInfo(log_bytes=log_bytes, threads=threads, meta_rows=meta_rows)


@dataclass(slots=True)
class QuarantinedShard:
    """One poison shard: exhausted its retry/crash budget, set aside."""

    index: int
    #: Concurrent pairs this shard was assigned (its coverage weight).
    pairs: int
    #: The cause chain, outermost first (``__cause__`` links flattened).
    causes: list[str] = field(default_factory=list)
    #: Process-worker crash/timeout count at quarantine time.
    crashes: int = 0

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "pairs": self.pairs,
            "causes": list(self.causes),
            "crashes": self.crashes,
        }


def cause_chain(error: BaseException) -> list[str]:
    """Flatten an exception's ``__cause__`` links, outermost first."""
    chain: list[str] = []
    seen: set[int] = set()
    current: Optional[BaseException] = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__
    return chain


@dataclass(slots=True)
class DegradationReport:
    """What a ``DEGRADED`` job is missing, and why.

    ``pair_coverage`` is the fraction of the job's planned concurrent
    pairs actually decided — pruned at plan time or analyzed by a shard
    that came home: races over the covered pairs are exact (the merged
    set is a strict subset of the full answer); pairs inside quarantined
    shards are simply *unchecked*, never misreported.
    """

    job_id: str
    shards_total: int
    pairs_total: int
    quarantined: list[QuarantinedShard] = field(default_factory=list)

    @property
    def pairs_missing(self) -> int:
        return sum(q.pairs for q in self.quarantined)

    @property
    def pair_coverage(self) -> float:
        if self.pairs_total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.pairs_missing / self.pairs_total)

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "shards_total": self.shards_total,
            "shards_quarantined": sorted(q.index for q in self.quarantined),
            "pairs_total": self.pairs_total,
            "pairs_missing": self.pairs_missing,
            "pair_coverage": self.pair_coverage,
            "quarantined": [q.to_json() for q in self.quarantined],
        }


@dataclass(slots=True)
class JobRecord:
    """One submission's full state, shared between queue/scheduler/pool.

    Mutable fields are guarded by ``lock`` (the scheduler's shard-merge
    callbacks run on pool worker threads).  ``done`` fires exactly once,
    on entry to a terminal state.
    """

    job_id: str
    tenant: str
    trace_path: Path
    integrity: str
    triage: TriageInfo
    submitted_at: float = field(default_factory=time.perf_counter)
    state: str = QUEUED
    error: str = ""
    cancelled: bool = False
    races: RaceSet = field(default_factory=RaceSet)
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    #: Salvage jobs: the plan's integrity report, into which settling
    #: folds the shards' ``integrity_parts`` (by shard index).
    integrity_report: Optional[IntegrityReport] = None
    integrity_parts: dict[int, IntegrityReport] = field(default_factory=dict)
    shards_total: int = 0
    shards_done: int = 0
    #: Seconds from submission to the first race merged at the
    #: coordinator (the service-level TTFR; None when the job is clean).
    ttfr_seconds: Optional[float] = None
    finished_at: Optional[float] = None
    #: Submission-to-terminal wall deadline (None: unbounded); enforced
    #: by the scheduler, which stops dispatching and fails the job.
    deadline_s: Optional[float] = None
    #: True when this record was rebuilt from the WAL by a restarted
    #: service rather than submitted in this process's lifetime.
    resumed: bool = False
    #: Pairs that survived the plan-time digest prune and went out in
    #: shards.
    pairs_shipped: int = 0
    #: Poison shards set aside after exhausting their retry/crash budget.
    quarantined: list = field(default_factory=list)
    #: Structured account of what a DEGRADED job is missing.
    degradation: Optional[DegradationReport] = None
    #: Distributed-trace identity, minted at submission (None when the
    #: job was created outside the service facade).
    trace: Optional[TraceContext] = None
    #: Wall-clock anchors: ``perf_counter`` fields above measure
    #: durations, these align coordinator and worker spans on one
    #: absolute timeline.
    submitted_wall: float = field(default_factory=time.time)
    dequeued_wall: Optional[float] = None
    #: Coordinator-side span dicts (queue-wait, triage, plan, merges,
    #: retries) — see :func:`repro.serve.tracing.coord_span`.
    trace_spans: list = field(default_factory=list)
    #: Per-worker shard spans: ``(worker_pid, [span dicts])`` tuples.
    worker_spans: list = field(default_factory=list)
    #: Merged per-shard registry deltas (a registry-snapshot dict).
    worker_metrics: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def elapsed_seconds(self) -> float:
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        return end - self.submitted_at

    def deadline_exceeded(self) -> bool:
        """True once the job has outlived its wall deadline."""
        return (
            self.deadline_s is not None
            and self.finished_at is None
            and time.perf_counter() - self.submitted_at > self.deadline_s
        )

    def result(self) -> AnalysisResult:
        """The merged analysis result (meaningful once the state is in
        :data:`RESULT_STATES` — for DEGRADED jobs it covers the pair
        fraction reported by :attr:`degradation`)."""
        return AnalysisResult(
            races=self.races, stats=self.stats, integrity=self.integrity_report
        )

    def status(self) -> dict:
        """Machine-readable snapshot (the ``Service.status`` payload)."""
        with self.lock:
            return {
                "job_id": self.job_id,
                "tenant": self.tenant,
                "trace_id": self.trace.trace_id if self.trace else "",
                "trace": str(self.trace_path),
                "integrity": self.integrity,
                "state": self.state,
                "error": self.error,
                "races": len(self.races),
                "shards_total": self.shards_total,
                "shards_done": self.shards_done,
                "pairs_planned": self.stats.concurrent_pairs,
                "pairs_pruned": self.stats.pairs_pruned,
                "pairs_shipped": self.pairs_shipped,
                "ttfr_seconds": self.ttfr_seconds,
                "elapsed_seconds": self.elapsed_seconds,
                "cache_hits": self.stats.pair_cache_hits,
                "deadline_s": self.deadline_s,
                "resumed": self.resumed,
                "shards_quarantined": len(self.quarantined),
                "degradation": (
                    self.degradation.to_json()
                    if self.degradation is not None
                    else None
                ),
                "triage": self.triage.to_json(),
            }
