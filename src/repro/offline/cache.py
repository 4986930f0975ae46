"""Persistent content-hashed result cache for the offline analysis.

Watch-mode re-analysis, repeated ``analyze`` invocations and resumed
runs redo work the trace already paid for: each pair's verdict is a pure
function of the trace bytes.  This cache keys the verdicts by content
hashes so unchanged work is skipped and *any* change to the underlying
files invalidates exactly the entries it affects:

* **interval token** — sha256 over the owning thread's log + meta file
  digests plus the interval identity and its chunk list;
* **context token** — sha256 over the trace-wide tables that feed pair
  verdicts (mutex sets, task graph, regions) and the verdict format
  version;
* **pair token** — context token plus both interval tokens, oriented
  canonically (by interval identity, exactly like the engine's
  comparison) so either argument order finds the same entry.

A verdict stores the full report list the comparison generated (often
empty); replaying it through :meth:`RaceSet.add` is order-independent.
Interval trees are not stored: the compressed log is their one lasting
form, and a pair that misses rebuilds its trees from it.

The verdicts live in one :class:`~repro.common.store.ContentStore`,
``pairs/``, so writes are atomic and a read-only, corrupted or older
cache degrades to a miss, never to a wrong answer.  An entry that
fails to decode (torn write, bit rot, tampered fields) is evicted on
discovery — counted on ``offline.pair_cache_corrupt_evictions`` — so
one bad entry costs one recompute, not one failed read per run forever.  The cache is only
sound for *closed* traces — the engine never attaches one to a live
streaming source.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

from ..common.store import ContentStore, file_sha
from ..sword.traceformat import (
    MUTEXSETS_NAME,
    REGIONS_NAME,
    TASKS_NAME,
    log_name,
    meta_name,
)
from ..obs import get_obs
from .intervals import IntervalData
from .report import RaceReport

#: Bump to invalidate every existing cache (verdict semantics changed).
CACHE_FORMAT = 1


class ResultCache:
    """Content-addressed store of pair verdicts."""

    def __init__(
        self,
        trace_path: str | os.PathLike,
        cache_dir: str | os.PathLike | None = None,
        *,
        registry=None,
    ) -> None:
        self.trace_path = Path(trace_path)
        self.root = (
            Path(cache_dir) if cache_dir is not None
            else self.trace_path / ".sword-cache"
        )
        self._gid_tokens: dict[int, str] = {}
        self._context_token: Optional[str] = None
        # The owning engine passes its own registry: explicitly threaded
        # bundles (api.analyze(obs=...), thread-mode serve shards) are
        # never installed as ambient.
        if registry is None:
            registry = get_obs().registry
        evicted = registry.counter(
            "offline.pair_cache_corrupt_evictions",
            "corrupt/truncated cache entries deleted on discovery",
        ).inc
        self.pairs = ContentStore(
            self.root / "pairs", CACHE_FORMAT, on_evict=evicted
        )

    # -- tokens ------------------------------------------------------------------

    def _gid_token(self, gid: int) -> str:
        token = self._gid_tokens.get(gid)
        if token is None:
            token = hashlib.sha256(
                (
                    file_sha(self.trace_path / log_name(gid))
                    + "|"
                    + file_sha(self.trace_path / meta_name(gid))
                ).encode()
            ).hexdigest()
            self._gid_tokens[gid] = token
        return token

    def context_token(self) -> str:
        """Digest of everything trace-wide a pair verdict depends on."""
        if self._context_token is None:
            parts = [
                f"cache-format={CACHE_FORMAT}",
                file_sha(self.trace_path / MUTEXSETS_NAME),
                file_sha(self.trace_path / TASKS_NAME),
                file_sha(self.trace_path / REGIONS_NAME),
            ]
            self._context_token = hashlib.sha256(
                "|".join(parts).encode()
            ).hexdigest()
        return self._context_token

    def interval_token(self, interval: IntervalData) -> str:
        key = interval.key
        payload = (
            f"{self._gid_token(key.gid)}|{key.gid}|{key.pid}|{key.bid}"
            f"|{sorted(interval.chunks)!r}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def pair_token(self, ia: IntervalData, ib: IntervalData) -> str:
        # Same canonical orientation as the engine's comparison, so both
        # argument orders address one entry.
        ka = (ia.key.gid, ia.key.pid, ia.key.bid)
        kb = (ib.key.gid, ib.key.pid, ib.key.bid)
        if kb < ka:
            ia, ib = ib, ia
        payload = (
            f"{self.context_token()}|{self.interval_token(ia)}"
            f"|{self.interval_token(ib)}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- entries ---------------------------------------------------------------

    def load_pair(
        self, ia: IntervalData, ib: IntervalData
    ) -> Optional[list[RaceReport]]:
        """The reports one comparison generated, or None on a miss.

        An empty list is a *hit*: the pair was compared (or pruned) and
        produced nothing.
        """
        return self.pairs.load(
            self.pair_token(ia, ib),
            lambda payload: [
                RaceReport.from_json(r) for r in payload["reports"]
            ],
        )

    def store_pair(
        self, ia: IntervalData, ib: IntervalData, reports: list[RaceReport]
    ) -> None:
        self.pairs.store(
            self.pair_token(ia, ib),
            {"reports": [r.to_json() for r in reports]},
        )
