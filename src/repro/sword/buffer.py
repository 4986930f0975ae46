"""The bounded per-thread event buffer.

SWORD's central memory-overhead claim: each thread collects accesses in a
fixed-capacity buffer (paper default: 25,000 events ≈ 2 MB, chosen to fit in
L3) and, when it fills, compresses and writes it out *independently of other
threads*.  The buffer is a preallocated NumPy structured array; a scalar
append is one packed 40-byte store (``struct.Struct.pack_into`` through a
byte view of that array — one C call per record, not one NumPy scalar
assignment per field), a batch append is one slice assignment per column,
and a flush hands the writer one contiguous block with no per-event
serialisation work.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from ..common.config import SWORD_BUFFER_EVENTS
from ..common.events import (
    EVENT_BYTES,
    EVENT_DTYPE,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
    Access,
    AccessBatch,
)

#: One :data:`EVENT_DTYPE` record as a ``struct`` layout: native byte order,
#: no padding, fields in dtype order.
_RECORD = struct.Struct("=BBHIQIiQQ")
_RECORD_FIELDS = (
    "kind", "flags", "size", "msid", "addr", "count", "stride", "pc", "aux"
)


def _check_record_layout() -> None:
    """Refuse to import if ``_RECORD`` and ``EVENT_DTYPE`` ever disagree.

    The packed store writes raw bytes under the array, so a drifted format
    would corrupt every record silently; an explicit raise (not ``assert``)
    keeps the guard under ``python -O``.
    """
    expected, offset = [], 0
    for name, code in zip(_RECORD_FIELDS, _RECORD.format[1:]):
        width = struct.calcsize("=" + code)
        expected.append((name, "i" if code.islower() else "u", width, offset))
        offset += width
    actual = []
    for name in EVENT_DTYPE.names:
        dtype, at = EVENT_DTYPE.fields[name][:2]
        actual.append((name, dtype.kind, dtype.itemsize, at))
    if (
        actual != expected
        or _RECORD.size != EVENT_BYTES
        or not EVENT_DTYPE.isnative
    ):
        raise ImportError(
            f"EventBuffer record layout {_RECORD.format!r} drifted from "
            f"EVENT_DTYPE: (name, kind, bytes, offset) {expected} != {actual}"
        )


_check_record_layout()
_pack_record = _RECORD.pack_into


class EventBuffer:
    """Fixed-capacity append buffer over :data:`EVENT_DTYPE` records.

    ``on_flush(records)`` is invoked with a *view* of the filled prefix when
    the buffer runs out of slots (and on explicit :meth:`flush`); the view is
    only valid for the duration of the callback.
    """

    def __init__(
        self,
        capacity: int = SWORD_BUFFER_EVENTS,
        on_flush: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.on_flush = on_flush or (lambda records: None)
        self._records = np.zeros(capacity, dtype=EVENT_DTYPE)
        #: Writable byte view of the same memory, for the packed store.
        self._bytes = memoryview(self._records.view(np.uint8))
        self._used = 0
        self.flushes = 0
        self.events_total = 0
        self.events_dropped = 0

    def __len__(self) -> int:
        return self._used

    def view(self) -> np.ndarray:
        """A read-only-by-convention view of the filled prefix.

        Valid only until the next append/flush/drop; the digest
        accumulator folds it at chunk boundaries without copying.
        """
        return self._records[: self._used]

    @property
    def nbytes(self) -> int:
        """Fixed allocation size (the bounded overhead)."""
        return self._records.nbytes

    def append_access(self, access: Access) -> None:
        """Append one access event (hot path: one packed store).

        The counters move only after the pack succeeded: an out-of-range
        field raises (``struct.error``) with nothing appended — whatever
        the failed pack left in the free slot is never read, and the next
        append overwrites all of it.
        """
        if self._used == self.capacity:
            self.flush()
        _pack_record(
            self._bytes,
            self._used * EVENT_BYTES,
            KIND_ACCESS,
            (FLAG_WRITE if access.is_write else 0)
            | (FLAG_ATOMIC if access.is_atomic else 0),
            access.size,
            access.msid,
            access.addr,
            access.count,
            access.stride,
            access.pc,
            access.task_point,
        )
        self._used += 1
        self.events_total += 1

    @staticmethod
    def _column(value, lo: int, hi: int):
        """Slice a batch column, passing scalars through (they broadcast)."""
        return value[lo:hi] if isinstance(value, np.ndarray) else value

    def append_access_batch(self, batch: AccessBatch) -> None:
        """Append a columnar batch with slice assignment (the fast path).

        Splits across flush boundaries exactly like repeated
        :meth:`append_access` calls would: a full buffer is flushed lazily
        *before* the next record lands, never right after the last one.
        """
        n = len(batch)
        offset = 0
        while offset < n:
            if self._used == self.capacity:
                self.flush()
            take = min(self.capacity - self._used, n - offset)
            dst = self._records[self._used : self._used + take]
            lo, hi = offset, offset + take
            dst["kind"] = KIND_ACCESS
            dst["flags"] = self._column(batch.flags, lo, hi)
            dst["size"] = self._column(batch.size, lo, hi)
            dst["msid"] = self._column(batch.msid, lo, hi)
            dst["addr"] = batch.addr[lo:hi]
            dst["count"] = self._column(batch.count, lo, hi)
            dst["stride"] = self._column(batch.stride, lo, hi)
            dst["pc"] = self._column(batch.pc, lo, hi)
            dst["aux"] = self._column(batch.task_point, lo, hi)
            self._used += take
            self.events_total += take
            offset += take

    def append_event(self, kind: int, *, addr: int = 0, aux: int = 0) -> None:
        """Append a structural runtime event (barrier, mutex, region)."""
        if self._used == self.capacity:
            self.flush()
        _pack_record(
            self._bytes, self._used * EVENT_BYTES, kind, 0, 0, 0, addr, 0, 0, 0, aux
        )
        self._used += 1
        self.events_total += 1

    def flush(self) -> None:
        """Hand the filled prefix to ``on_flush`` and reset.

        If ``on_flush`` raises, the buffered events are *retained* (the
        reset only happens after the callback returns) so the writer's
        retry policy can flush them again.  The ``flushes`` counter is
        likewise only bumped once the callback succeeds — a raising
        callback plus a retry is one flush, not two.
        """
        if self._used == 0:
            return
        view = self._records[: self._used]
        self.on_flush(view)
        self.flushes += 1
        self._used = 0

    def release(self) -> None:
        """Free the preallocated records; the buffer is unusable after.

        Called once the owner has flushed for the last time: a finished
        tool can stay reachable until the cyclic garbage collector runs
        (it and its runtime reference each other), and its buffers are
        the bulk of what it holds.
        """
        self._bytes.release()
        self._bytes = self._records = None

    def drop(self) -> int:
        """Discard the buffered events without flushing (degraded mode).

        Returns how many events were thrown away; the caller is expected
        to record the loss (see the logger's drop-oldest policy).
        """
        dropped = self._used
        self._used = 0
        self.events_dropped += dropped
        return dropped
