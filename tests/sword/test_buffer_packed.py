"""The packed record store: equivalence with field-by-field stores, and
what a store that raises leaves behind.

``EventBuffer.append_access`` / ``append_event`` write a record with one
``struct.Struct.pack_into`` over the buffer's bytes.  The reference here is
the form it replaced — a structured-scalar slot and nine field assignments —
kept test-local so NumPy's own casting rules stay the definition of what
each field holds.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import (
    EVENT_BYTES,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
    KIND_BARRIER,
    Access,
    AccessBatch,
)
from repro.sword.buffer import EventBuffer


class FieldStoreBuffer(EventBuffer):
    """Reference: same buffer, records written one field at a time."""

    def _slot(self):
        if self._used == self.capacity:
            self.flush()
        rec = self._records[self._used]
        self._used += 1
        self.events_total += 1
        return rec

    def append_access(self, access):
        rec = self._slot()
        rec["kind"] = KIND_ACCESS
        rec["flags"] = (FLAG_WRITE if access.is_write else 0) | (
            FLAG_ATOMIC if access.is_atomic else 0
        )
        rec["size"] = access.size
        rec["msid"] = access.msid
        rec["addr"] = access.addr
        rec["count"] = access.count
        rec["stride"] = access.stride
        rec["pc"] = access.pc
        rec["aux"] = access.task_point

    def append_event(self, kind, *, addr=0, aux=0):
        rec = self._slot()
        rec["kind"] = kind
        rec["flags"] = 0
        rec["size"] = 0
        rec["msid"] = 0
        rec["addr"] = addr
        rec["count"] = 0
        rec["stride"] = 0
        rec["pc"] = 0
        rec["aux"] = aux


def _recording(cls, capacity):
    flushed = []
    buf = cls(capacity=capacity, on_flush=lambda r: flushed.append(r.tobytes()))
    return buf, flushed


U16, U32, U64 = 2**16 - 1, 2**32 - 1, 2**64 - 1


@st.composite
def accesses(draw):
    count = draw(st.integers(1, U32))
    stride = draw(st.integers(-(2**31), 2**31 - 1))
    if count > 1 and stride == 0:
        stride = -8
    fields = dict(
        addr=draw(st.integers(0, U64)),
        size=draw(st.integers(1, U16)),
        count=count,
        stride=stride,
        pc=draw(st.integers(0, U64)),
        msid=draw(st.integers(0, U32)),
        task_point=draw(st.integers(0, U64)),
    )
    if draw(st.booleans()):  # workloads hand NumPy scalars straight through
        as_numpy = dict(
            addr=np.uint64, size=np.uint16, count=np.uint32, stride=np.int32,
            pc=np.uint64, msid=np.uint32, task_point=np.uint64,
        )
        fields = {name: as_numpy[name](value) for name, value in fields.items()}
    return (
        "access",
        Access(
            is_write=draw(st.booleans()), is_atomic=draw(st.booleans()), **fields
        ),
    )


events = st.tuples(
    st.just("event"),
    st.integers(0, 255),
    st.integers(0, U64),
    st.integers(0, U64),
)
batches = st.tuples(st.just("batch"), st.integers(0, 12), st.integers(0, 2**16))


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    return AccessBatch.make(
        rng.integers(0, 2**48, size=n, dtype=np.uint64),
        size=8,
        is_write=bool(seed % 2),
        pc=rng.integers(0, 2**32, size=n, dtype=np.uint64),
    )


def _apply(buf, op):
    if op[0] == "access":
        buf.append_access(op[1])
    elif op[0] == "event":
        buf.append_event(op[1], addr=op[2], aux=op[3])
    else:
        buf.append_access_batch(_batch(op[1], op[2]))


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 8),
    ops=st.lists(st.one_of(accesses(), events, batches), max_size=24),
)
def test_property_packed_store_equals_field_store(capacity, ops):
    """Any interleaving, across flush boundaries: the bytes handed to
    ``on_flush`` are identical, flush by flush."""
    packed, got = _recording(EventBuffer, capacity)
    fields, want = _recording(FieldStoreBuffer, capacity)
    for op in ops:
        _apply(packed, op)
        _apply(fields, op)
    assert len(packed) == len(fields)
    packed.flush()
    fields.flush()
    assert got == want
    assert packed.flushes == fields.flushes
    assert packed.events_total == fields.events_total


def _acc(i, **overrides):
    fields = dict(addr=i * 8, size=8, count=2, stride=8, is_write=True,
                  is_atomic=False, pc=i)
    fields.update(overrides)
    return Access(**fields)


@pytest.mark.parametrize(
    "bad",
    [
        lambda buf: buf.append_access(_acc(9, stride=2**31)),
        lambda buf: buf.append_access(_acc(9, count=2**32)),
        lambda buf: buf.append_access(_acc(9, size=2**16)),
        lambda buf: buf.append_event(KIND_BARRIER, addr=-1),
    ],
    ids=["stride", "count", "size", "event-addr"],
)
def test_failed_append_appends_nothing(bad):
    """An out-of-range field raises before the record counts: nothing a
    reader or a flush can see changes, and the next append takes the slot."""
    buf, flushed = _recording(EventBuffer, capacity=4)
    buf.append_access(_acc(1))
    before = (len(buf), buf.events_total, buf.view().tobytes())
    with pytest.raises((struct.error, OverflowError)):
        bad(buf)
    assert (len(buf), buf.events_total, buf.view().tobytes()) == before
    buf.append_access(_acc(2))
    assert len(buf) == 2 and buf.events_total == 2
    buf.flush()

    clean, expected = _recording(EventBuffer, capacity=4)
    clean.append_access(_acc(1))
    clean.append_access(_acc(2))
    clean.flush()
    assert flushed == expected
    assert len(flushed[0]) == 2 * EVENT_BYTES
