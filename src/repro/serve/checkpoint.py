"""Shard checkpointing: completed :class:`ShardOutcome`\\ s made durable.

The PR 3 result cache memoizes *pair verdicts* (fine grain, engine
level); this store memoizes whole *shard outcomes* (coarse grain,
service level) so both worker-level retry and service-level resume
restart from the last completed shard instead of byte zero.  Entries are
content-hash-addressed exactly like the result cache: a shard token
digests the trace bytes the shard reads plus the shard's identity and
every analysis knob that affects its verdicts, so a token hit is a proof
the stored outcome is byte-identical to a recompute — across restarts,
jobs, and tenants.

Spans and per-shard metric deltas are deliberately *not* checkpointed:
they describe one execution, and a checkpoint hit is precisely the case
where no execution happened.  The entries live in a
:class:`~repro.common.store.ContentStore` at ``<state_dir>/checkpoints``
— atomic writes, and an unreadable entry, or one of another format, is a
miss.  The codec here decodes every field to its type, so a torn or
tampered entry is evicted and its shard recomputed instead of failing
the merge; evictions are counted on the store only, not exported as a
metric.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

from ..common.store import ContentStore, file_sha
from ..offline.engine import AnalysisStats
from ..sword.integrity import IntegrityReport
from ..sword.traceformat import MUTEXSETS_NAME, REGIONS_NAME, TASKS_NAME
from .workers import ShardOutcome

__all__ = [
    "CHECKPOINT_FORMAT",
    "ShardCheckpointStore",
    "trace_token",
    "shard_token",
]

#: Bump to invalidate every existing checkpoint (outcome schema changed).
CHECKPOINT_FORMAT = 1


def trace_token(trace_path: str | os.PathLike) -> str:
    """Content digest of everything a shard of this trace can read.

    Covers every per-thread log + meta file and the trace-wide tables;
    computed once per job at plan time and folded into each shard's
    token, so any byte changing under the trace invalidates exactly its
    checkpoints.
    """
    trace_path = Path(trace_path)
    parts = [f"checkpoint-format={CHECKPOINT_FORMAT}"]
    names = sorted(
        p.name
        for p in trace_path.glob("thread_*")
        if p.suffix in (".log", ".meta")
    )
    names += [MUTEXSETS_NAME, TASKS_NAME, REGIONS_NAME]
    for name in names:
        parts.append(f"{name}={file_sha(trace_path / name)}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def shard_token(trace_digest: str, *, integrity: str, pair_keys: tuple) -> str:
    """One shard's checkpoint address (job- and tenant-independent)."""
    payload = f"{trace_digest}|{integrity}|{pair_keys!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


#: ``race_rows`` field types: ``RaceReport``'s ints and its two
#: ``write_*`` flags.
_ROW_TYPES = (int, int, int, bool, bool, int, int, int, int, int, int)


def _outcome_to_json(outcome: ShardOutcome) -> dict:
    return {
        "rows": [list(row) for row in outcome.rows],
        "stats": outcome.stats.to_json(),
        "integrity": outcome.integrity and outcome.integrity.to_json(),
        "cache_hits": outcome.cache_hits,
    }


def _row(row) -> tuple:
    if (
        not isinstance(row, list)
        or len(row) != len(_ROW_TYPES)
        or any(type(v) is not t for v, t in zip(row, _ROW_TYPES))
    ):
        raise ValueError(f"malformed race row {row!r}")
    return tuple(row)


def _outcome_from_json(payload: dict, job_id: str, index: int) -> ShardOutcome:
    """Every field decoded to its type, or an error the store evicts on:
    a checkpoint is outside input, and a hit must be safe to merge."""
    integrity = payload.get("integrity")
    if integrity is not None:
        integrity = IntegrityReport.from_json(integrity)
    cache_hits = payload.get("cache_hits", 0)
    if type(cache_hits) is not int:
        raise TypeError(f"cache_hits {cache_hits!r} is not an int")
    return ShardOutcome(
        job_id=job_id,
        index=index,
        rows=[_row(row) for row in payload["rows"]],
        stats=AnalysisStats.from_json(payload["stats"]),
        integrity=integrity,
        cache_hits=cache_hits,
        from_checkpoint=True,
    )


class ShardCheckpointStore:
    """Completed shard outcomes in a :class:`ContentStore`, one entry
    per shard token."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.entries = ContentStore(root, CHECKPOINT_FORMAT)

    def load(
        self, token: str, *, job_id: str, index: int
    ) -> Optional[ShardOutcome]:
        """The stored outcome re-keyed to the asking job, or None."""
        return self.entries.load(
            token, lambda payload: _outcome_from_json(payload, job_id, index)
        )

    def store(self, token: str, outcome: ShardOutcome) -> None:
        self.entries.store(token, _outcome_to_json(outcome))
