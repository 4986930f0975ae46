"""Interning of mutex sets.

Every access event carries the set of mutexes its thread held at the time —
SWORD's interval-tree nodes need it for the lockset part of the race check.
Sets are interned to small integers (``msid``) so that fixed-width trace
records can refer to them; the table is serialised alongside the logs.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from ..common.store import atomic_write_text

#: msid of the empty mutex set (never written to the table explicitly).
EMPTY_MSID = 0


class MutexSetTable:
    """Bidirectional intern table ``frozenset[int] <-> msid``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_set: dict[frozenset[int], int] = {frozenset(): EMPTY_MSID}
        self._by_id: dict[int, frozenset[int]] = {EMPTY_MSID: frozenset()}
        self._next = 1

    def intern(self, mutexes: frozenset[int]) -> int:
        """Return the msid for ``mutexes``, interning on first use."""
        with self._lock:
            existing = self._by_set.get(mutexes)
            if existing is not None:
                return existing
            msid = self._next
            self._next += 1
            self._by_set[mutexes] = msid
            self._by_id[msid] = mutexes
            return msid

    def get(self, msid: int) -> frozenset[int]:
        """Return the mutex set interned as ``msid``."""
        with self._lock:
            try:
                return self._by_id[msid]
            except KeyError:
                raise KeyError(f"unknown mutex-set id {msid}") from None

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def disjoint(self, msid_a: int, msid_b: int) -> bool:
        """True when the two interned sets share no mutex.

        This is the lockset half of SWORD's race condition: two concurrent
        conflicting accesses race only if their mutex sets are disjoint.
        """
        if msid_a == EMPTY_MSID or msid_b == EMPTY_MSID:
            return True
        if msid_a == msid_b:
            return False
        return self.get(msid_a).isdisjoint(self.get(msid_b))

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise the table as JSON (part of the trace directory),
        replacing any previous table in one rename."""
        with self._lock:
            payload = {str(k): sorted(v) for k, v in self._by_id.items()}
        atomic_write_text(path, json.dumps(payload, indent=0, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "MutexSetTable":
        """Rebuild a table saved by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        table = cls()
        with table._lock:
            for key, members in payload.items():
                msid = int(key)
                fs = frozenset(int(m) for m in members)
                table._by_id[msid] = fs
                table._by_set[fs] = msid
                table._next = max(table._next, msid + 1)
        return table
