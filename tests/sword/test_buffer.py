"""Bounded event buffer: capacity, flush callbacks, fixed footprint."""

import numpy as np
import pytest

from repro.common.events import EVENT_BYTES, KIND_ACCESS, KIND_BARRIER, Access
from repro.sword.buffer import EventBuffer


def acc(i):
    return Access(addr=i * 8, size=8, count=1, stride=0, is_write=True,
                  is_atomic=False, pc=i)


def test_append_and_len():
    b = EventBuffer(capacity=10)
    for i in range(7):
        b.append_access(acc(i))
    assert len(b) == 7
    assert b.events_total == 7
    assert b.flushes == 0


def test_flush_on_capacity():
    flushed = []
    b = EventBuffer(capacity=5, on_flush=lambda r: flushed.append(r.copy()))
    for i in range(12):
        b.append_access(acc(i))
    assert b.flushes == 2
    assert [r.shape[0] for r in flushed] == [5, 5]
    assert len(b) == 2
    b.flush()
    assert [r.shape[0] for r in flushed] == [5, 5, 2]
    # Contents preserved in order.
    addrs = [int(rec["addr"]) for batch in flushed for rec in batch]
    assert addrs == [i * 8 for i in range(12)]


def test_flush_empty_is_noop():
    calls = []
    b = EventBuffer(capacity=4, on_flush=lambda r: calls.append(1))
    b.flush()
    assert calls == []


def test_mixed_event_kinds():
    b = EventBuffer(capacity=16)
    b.append_access(acc(1))
    b.append_event(KIND_BARRIER, addr=3, aux=2)
    records = None

    def grab(r):
        nonlocal records
        records = r.copy()

    b.on_flush = grab
    b.flush()
    assert records.shape[0] == 2
    assert int(records[0]["kind"]) == KIND_ACCESS
    assert int(records[1]["kind"]) == KIND_BARRIER
    assert int(records[1]["aux"]) == 2


def test_footprint_is_fixed():
    b = EventBuffer(capacity=25_000)
    assert b.nbytes == 25_000 * EVENT_BYTES  # ~1 MB of records
    before = b.nbytes
    for i in range(60_000):
        b.append_access(acc(i))
    assert b.nbytes == before  # bounded: appends never grow it


def test_invalid_capacity():
    with pytest.raises(ValueError):
        EventBuffer(capacity=0)


def test_fill_to_exact_capacity_defers_flush():
    """Exactly-full is a boundary: the flush happens on the *next* append."""
    flushed = []
    b = EventBuffer(capacity=4, on_flush=lambda r: flushed.append(r.copy()))
    for i in range(4):
        b.append_access(acc(i))
    assert len(b) == 4
    assert b.flushes == 0 and flushed == []
    b.append_access(acc(4))  # the overflowing append triggers the flush
    assert b.flushes == 1
    assert flushed[0].shape[0] == 4
    assert len(b) == 1
    b.flush()
    assert [int(r["addr"]) for r in flushed[1]] == [32]


def test_explicit_flush_at_exact_capacity():
    flushed = []
    b = EventBuffer(capacity=4, on_flush=lambda r: flushed.append(r.copy()))
    for i in range(4):
        b.append_access(acc(i))
    b.flush()
    assert b.flushes == 1 and flushed[0].shape[0] == 4
    assert len(b) == 0
    b.flush()  # now empty: a no-op, not a zero-length callback
    assert b.flushes == 1 and len(flushed) == 1


def test_on_flush_view_is_not_valid_after_reset():
    """The callback receives a view; retaining it observes slot reuse."""
    retained = []
    b = EventBuffer(capacity=2, on_flush=lambda r: retained.append(r))
    b.append_access(acc(1))
    b.append_access(acc(2))
    b.flush()
    view = retained[0]
    assert np.shares_memory(view, b._records)
    assert [int(r["addr"]) for r in view] == [8, 16]
    # New appends reuse the flushed slots: the stale view now shows them,
    # which is exactly why consumers must copy (or fully consume) inside
    # the callback.
    b.append_access(acc(9))
    assert int(view[0]["addr"]) == 72


def test_slot_reuse_after_flush_does_not_leak_old_fields():
    b = EventBuffer(capacity=2)
    b.append_access(Access(addr=1, size=8, count=9, stride=8, is_write=True,
                           is_atomic=True, pc=5, msid=7))
    b.append_access(acc(2))  # fills buffer
    b.append_access(acc(3))  # triggers flush, reuses slot 0
    captured = None

    def grab(r):
        nonlocal captured
        captured = r.copy()

    b.on_flush = grab
    b.flush()
    rec = captured[0]
    assert int(rec["aux"]) == 0
    assert int(rec["msid"]) == 0
    assert int(rec["count"]) == 1


def test_release_frees_the_records():
    b = EventBuffer(capacity=8)
    b.append_access(acc(0))
    b.flush()
    b.release()
    assert len(b) == 0
    b.flush()  # nothing buffered: still a no-op
    with pytest.raises(TypeError):
        b.append_access(acc(1))


def test_finished_tool_holds_no_buffer(trace_dir):
    from conftest import run_program
    from repro.common.config import SwordConfig
    from repro.sword import SwordTool

    def program(m):
        a = m.alloc_array("a", 8)
        m.parallel(lambda ctx: ctx.write(a, ctx.tid, 1.0))

    tool = SwordTool(SwordConfig(log_dir=trace_dir))
    run_program(program, nthreads=2, tool=tool)
    # The tool and its runtime reference each other, so the tool may
    # outlive the run until the cyclic collector runs; its N x B buffer
    # memory must not.
    assert all(log.buffer._records is None for log in tool._logs.values())
