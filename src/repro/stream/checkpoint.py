"""Durable progress for the streaming analyzer.

A checkpoint is one JSON file with the analyzed-pair watermark (which
interval pairs have already been compared) plus the races found so far.
If the analyzer dies, a restart replays the trace, skips every
checkpointed pair, and — because :class:`~repro.offline.report.RaceSet`
merges witnesses canonically — converges on the exact race set an
uninterrupted run produces.

Saves go through :func:`repro.common.store.atomic_write_text`, so a
crash or a failed write mid-save leaves the previous checkpoint intact
and no temp file behind.  Unlike a store entry, an unreadable checkpoint
is not a miss: the file is the resume point the caller asked for, so any
wrong shape raises :class:`TraceFormatError`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..common.errors import TraceFormatError
from ..common.store import atomic_write_text
from ..offline.intervals import IntervalKey
from ..offline.report import RaceSet

CHECKPOINT_VERSION = 1

#: A pair watermark entry: two (gid, pid, bid) interval identities.
PairKey = tuple[tuple[int, int, int], tuple[int, int, int]]


def pair_key(key_a: IntervalKey, key_b: IntervalKey) -> PairKey:
    """Order-normalised identity of one interval-pair comparison."""
    a = (key_a.gid, key_a.pid, key_a.bid)
    b = (key_b.gid, key_b.pid, key_b.bid)
    return (a, b) if a <= b else (b, a)


class Checkpoint:
    """Analyzed-pair watermark + accumulated races, saved atomically."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.analyzed: set[PairKey] = set()
        self.races = RaceSet()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise TraceFormatError(
                f"{self.path}: unreadable checkpoint: {exc}"
            ) from exc
        try:
            version = payload.get("version")
            if version != CHECKPOINT_VERSION:
                raise TraceFormatError(
                    f"{self.path}: checkpoint version {version!r}, "
                    f"expected {CHECKPOINT_VERSION}"
                )
            self.analyzed = {
                (tuple(a), tuple(b)) for a, b in payload["analyzed"]
            }
            self.races = RaceSet.from_json(payload["races"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # A torn or hand-edited file: valid JSON of the wrong shape.
            raise TraceFormatError(
                f"{self.path}: malformed checkpoint: {exc!r}"
            ) from exc

    def record(self, key_a: IntervalKey, key_b: IntervalKey) -> None:
        self.analyzed.add(pair_key(key_a, key_b))

    def contains(self, key_a: IntervalKey, key_b: IntervalKey) -> bool:
        return pair_key(key_a, key_b) in self.analyzed

    def save(self) -> None:
        """Atomically persist the watermark and races."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "analyzed": sorted(
                [list(a), list(b)] for a, b in self.analyzed
            ),
            "races": self.races.to_json(),
        }
        atomic_write_text(
            self.path, json.dumps(payload, indent=0, sort_keys=True)
        )
