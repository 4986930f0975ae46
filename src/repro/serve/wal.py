"""The job write-ahead log: durable service state as one JSONL journal.

PR 4 proved *kill-anywhere* for trace bytes: truncate a log at any byte
and salvage analysis still yields a clean subset.  The WAL extends that
contract to the service tier.  Every job lifecycle transition is
appended — before the transition is acknowledged — as one CRC-guarded
JSON line (the same append-atomic grammar as the durable trace format's
``regions.jsonl``), so a restarted :class:`~repro.serve.service.Service`
can replay the log and re-enqueue every unfinished job under its id.

Record grammar (all records carry ``v``, ``ts``, ``kind``, ``job``)::

    submitted  job tenant trace integrity trace_id deadline_s?
    planned    job shards pairs pruned?
    shard-done job shard races pairs
    merged     job races
    finalized  job state races quarantined?

``planned`` counts every concurrent pair in ``pairs`` and the ones the
plan-time digest test decided in ``pruned``; ``shards`` counts the
shards that shipped (``shards=0``: the plan decided the whole job).

The torn-tail property is inherited from the line grammar: a crash mid
``append`` leaves at most one partial line, which the salvage parse
drops — the corresponding transition was never acknowledged, so replay
simply redoes it.  Replay is idempotent by construction: a resumed job
re-plans the same shards, and its workers rerun them through the
state-dir result cache.  ``shard-done`` is appended after the shard
returned, so every pair of a logged shard has its verdict entry in that
cache and reruns as a replay, not a recompute.  Replay reads only the
fields it needs and ignores the rest, so older logs still replay.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..sword.traceformat import journal_line, parse_journal

__all__ = [
    "WAL_VERSION",
    "WAL_KINDS",
    "WAL_NAME",
    "JobWal",
    "NULL_WAL",
    "JobReplay",
    "WalReplay",
    "replay_wal",
]

#: Bump when the record grammar changes incompatibly.
WAL_VERSION = 1

#: Every kind the grammar defines, in lifecycle order.
WAL_KINDS = ("submitted", "planned", "shard-done", "merged", "finalized")

#: The journal file name under the service state directory.
WAL_NAME = "wal.jsonl"


class JobWal:
    """Append-only, CRC-guarded job journal (one writer per service).

    ``append`` is the durability point: the line is written and flushed
    (fsync'd when ``fsync=True``) *before* the caller proceeds, so every
    acknowledged transition is replayable.  Writes are serialized under
    a lock — scheduler and pool callbacks append concurrently.
    """

    enabled = True

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.appended = 0

    def append(self, kind: str, job: str, **fields) -> dict:
        """Durably append one record; returns the payload written."""
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        payload = {"v": WAL_VERSION, "ts": time.time(), "kind": kind, "job": job}
        payload.update((k, v) for k, v in fields.items() if v is not None)
        line = journal_line(payload)
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self.appended += 1
        return payload

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JobWal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullWal:
    """The disabled WAL: ``append`` is a no-op (service has no state dir)."""

    enabled = False
    appended = 0

    def append(self, kind: str, job: str, **fields) -> dict:
        return {}

    def close(self) -> None:
        pass


#: Shared disabled WAL, used when the service runs without a state dir.
NULL_WAL = _NullWal()


@dataclass(slots=True)
class JobReplay:
    """One job's state as reconstructed from the WAL."""

    job_id: str
    tenant: str = "default"
    trace_path: str = ""
    integrity: str = "strict"
    trace_id: str = ""
    deadline_s: Optional[float] = None
    #: From the ``planned`` record (None: killed before planning).
    shards_total: Optional[int] = None
    #: Shard indices with a ``shard-done`` record.
    shards_done: set[int] = field(default_factory=set)
    #: Terminal state from the ``finalized`` record (None: unfinished).
    final_state: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.final_state is not None


@dataclass(slots=True)
class WalReplay:
    """The whole log digested: every job keyed by id, in submit order."""

    jobs: dict[str, JobReplay] = field(default_factory=dict)
    records: int = 0
    #: Records whose job was never ``submitted`` in this log (a prefix
    #: truncated away) — counted, never fatal.
    orphaned: int = 0

    @property
    def unfinished(self) -> list[JobReplay]:
        """Jobs to resume, in original submission order."""
        return [j for j in self.jobs.values() if not j.finished]

    def max_seq(self) -> int:
        """Largest ``job-%06d`` sequence number seen (0 when none parse)."""
        best = 0
        for job_id in self.jobs:
            head, _, tail = job_id.rpartition("-")
            if head == "job" and tail.isdigit():
                best = max(best, int(tail))
        return best


def replay_wal(path: str | os.PathLike) -> WalReplay:
    """Digest one WAL file (salvage parse: a torn tail line is dropped).

    Records of an unknown future ``v`` are skipped — a downgraded
    service must not misread them — and records for jobs with no
    ``submitted`` line are counted as orphans.
    """
    replay = WalReplay()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return replay
    for record in parse_journal(text, salvage=True):
        if record.get("v", 0) > WAL_VERSION:
            continue
        kind = record.get("kind")
        job_id = record.get("job")
        if kind not in WAL_KINDS or not isinstance(job_id, str):
            continue
        replay.records += 1
        if kind == "submitted":
            replay.jobs[job_id] = JobReplay(
                job_id=job_id,
                tenant=record.get("tenant", "default"),
                trace_path=record.get("trace", ""),
                integrity=record.get("integrity", "strict"),
                trace_id=record.get("trace_id", ""),
                deadline_s=record.get("deadline_s"),
            )
            continue
        job = replay.jobs.get(job_id)
        if job is None:
            replay.orphaned += 1
            continue
        if kind == "planned":
            job.shards_total = record.get("shards")
        elif kind == "shard-done":
            shard = record.get("shard")
            if isinstance(shard, int):
                job.shards_done.add(shard)
        elif kind == "finalized":
            job.final_state = record.get("state")
    return replay
