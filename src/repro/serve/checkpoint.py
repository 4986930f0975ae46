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
where no execution happened.  Writes are atomic (tmp + rename) and read
failures degrade to a miss — the cache discipline of
:mod:`repro.offline.cache`, at shard grain.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from ..offline.cache import _file_sha
from ..offline.engine import AnalysisStats
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
        parts.append(f"{name}={_file_sha(trace_path / name)}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def shard_token(
    trace_digest: str,
    *,
    kind: str,
    pair_keys: tuple,
    chunk_events: int,
    use_ilp_crosscheck: bool,
) -> str:
    """One shard's checkpoint address (job- and tenant-independent)."""
    payload = (
        f"{trace_digest}|{kind}|{pair_keys!r}"
        f"|{chunk_events}|{use_ilp_crosscheck}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _outcome_to_json(outcome: ShardOutcome) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "rows": [list(row) for row in outcome.rows],
        "stats": outcome.stats.to_json(),
        "integrity": outcome.integrity,
        "cache_hits": outcome.cache_hits,
    }


def _outcome_from_json(payload: dict, job_id: str, index: int) -> ShardOutcome:
    return ShardOutcome(
        job_id=job_id,
        index=index,
        rows=[tuple(row) for row in payload["rows"]],
        stats=AnalysisStats.from_json(payload["stats"]),
        integrity=payload.get("integrity"),
        cache_hits=int(payload.get("cache_hits", 0)),
        from_checkpoint=True,
    )


class ShardCheckpointStore:
    """Content-addressed store of completed shard outcomes."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, token: str) -> Path:
        return self.root / f"{token}.json"

    def exists(self, token: str) -> bool:
        return bool(token) and self._path(token).exists()

    def load(
        self, token: str, *, job_id: str, index: int
    ) -> Optional[ShardOutcome]:
        """The stored outcome re-keyed to the asking job, or None.

        A corrupt or truncated entry (torn write at kill time) is
        evicted and costs one recompute — never a wrong answer.
        """
        if not token:
            return None
        path = self._path(token)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self._evict(path)
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT
        ):
            self._evict(path)
            self.misses += 1
            return None
        try:
            outcome = _outcome_from_json(payload, job_id, index)
        except (KeyError, TypeError, ValueError):
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def store(self, token: str, outcome: ShardOutcome) -> None:
        """Persist one completed outcome (atomic; failures swallowed)."""
        if not token:
            return
        path = self._path(token)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(_outcome_to_json(outcome), fh)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # full/read-only disk: stay a checkpoint, not a failure

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
