"""Frame-resident digests: construction, folding, meta-row round trips.

The collection-time digest must (a) exactly equal a per-record reference
digest of the inflated frame — the segmented kernel and the fold over
flush-granularity parts lose nothing — and (b) survive the meta-row
token round trip under the durable CRC.  A row without a ``d1=`` token
is malformed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_program
from repro.common.errors import TraceFormatError
from repro.common.events import (
    EVENT_DTYPE,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
    KIND_BARRIER,
)
from repro.common.config import SwordConfig
from repro.sword import SwordTool, TraceDir
from repro.sword.digest import (
    FrameDigest,
    digests_may_race,
    fold_digests,
    segment_digests,
)


def reference_digest(records) -> tuple[int, ...]:
    """The digest of ``records``, one record at a time in plain Python.

    The oracle for :func:`segment_digests`: the definition of every
    field, with no vectorisation, no segmentation and no fold.
    """
    accesses = [r for r in records if int(r["kind"]) == KIND_ACCESS]
    if not accesses:
        return (len(records), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    lows, highs, gcd = [], [], 0
    for r in accesses:
        addr, count = int(r["addr"]), int(r["count"])
        stride, size = int(r["stride"]), int(r["size"])
        last = addr + (count - 1) * stride
        lows.append(min(addr, last))
        highs.append(max(addr, last) + size - 1)
        if count > 1:
            gcd = math.gcd(gcd, abs(stride))
    lo = min(lows)
    for low in lows:
        gcd = math.gcd(gcd, low - lo)
    writes = sum(1 for r in accesses if int(r["flags"]) & FLAG_WRITE)
    pcs = [int(r["pc"]) for r in accesses]
    return (
        len(records),
        len(accesses),
        writes,
        len(accesses) - writes,
        int(all(int(r["flags"]) & FLAG_ATOMIC for r in accesses)),
        lo,
        max(highs),
        gcd,
        max(int(r["size"]) for r in accesses),
        min(pcs),
        max(pcs),
    )
from repro.sword.traceformat import (
    MetaRow,
    crc32,
    format_meta_file,
    parse_meta_table,
)


def _access(addr, *, write=True, size=8, count=1, stride=0, pc=100):
    rec = np.zeros(1, dtype=EVENT_DTYPE)[0]
    rec["kind"] = KIND_ACCESS
    rec["flags"] = FLAG_WRITE if write else 0
    rec["size"] = size
    rec["addr"] = addr
    rec["count"] = count
    rec["stride"] = stride
    rec["pc"] = pc
    return rec


def _records(*recs):
    out = np.zeros(len(recs), dtype=EVENT_DTYPE)
    for i, rec in enumerate(recs):
        out[i] = rec
    return out


class TestFromRecords:
    def test_counts_and_box(self):
        records = _records(
            _access(1000, write=True, size=8),
            _access(2000, write=False, size=4),
        )
        d = FrameDigest.from_records(records)
        assert (d.events, d.nodes, d.writes, d.reads) == (2, 2, 1, 1)
        assert (d.lo, d.hi) == (1000, 2003)
        assert not d.all_atomic

    def test_bulk_stride_extends_box(self):
        # 10 elements of 8 bytes every 16 bytes from 0: last byte 151.
        d = FrameDigest.from_records(
            _records(_access(0, size=8, count=10, stride=16))
        )
        assert (d.lo, d.hi) == (0, 151)
        assert d.gcd == 16
        assert d.width == 8

    def test_structural_events_counted_but_not_summarised(self):
        rec = np.zeros(1, dtype=EVENT_DTYPE)
        rec["kind"] = 7  # non-access
        d = FrameDigest.from_records(rec)
        assert d.events == 1 and d.nodes == 0
        assert not digests_may_race(d, d)

    def test_fold_matches_whole_array_digest(self):
        records = _records(
            _access(0, size=8, count=4, stride=32),
            _access(16, size=8),
            _access(160, size=8, count=2, stride=32),
        )
        whole = FrameDigest.from_records(records)
        parts = fold_digests(
            FrameDigest.from_records(records[i : i + 1]) for i in range(3)
        )
        assert parts == whole

    def test_fold_empty_passthrough(self):
        d = FrameDigest.from_records(_records(_access(64)))
        assert d.fold(FrameDigest.empty(3)).nodes == d.nodes
        assert FrameDigest.empty(3).fold(d).events == d.events + 3

    def test_disjoint_residue_classes_cannot_race(self):
        # Thread 0 touches bytes ≡ 0 (mod 64), thread 1 bytes ≡ 32.
        a = FrameDigest.from_records(
            _records(_access(0, size=8, count=8, stride=64))
        )
        b = FrameDigest.from_records(
            _records(_access(32, size=8, count=8, stride=64))
        )
        assert not digests_may_race(a, b)
        # Same class → a shared byte is possible.
        assert digests_may_race(a, a)


_record = st.one_of(
    st.tuples(
        st.just(KIND_ACCESS),
        st.sampled_from([0, FLAG_WRITE, FLAG_ATOMIC, FLAG_WRITE | FLAG_ATOMIC]),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.integers(0, 1 << 32),  # addr
        st.integers(1, 9),  # count
        st.sampled_from([-64, -24, -8, 0, 4, 8, 12, 16, 40]),  # stride
        st.integers(0, (1 << 64) - 1),  # pc
    ),
    st.tuples(
        st.just(KIND_BARRIER), st.just(0), st.just(0), st.integers(0, 9),
        st.just(0), st.just(0), st.just(0),
    ),
)


def _record_array(rows):
    out = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (kind, flags, size, addr, count, stride, pc) in enumerate(rows):
        out[i] = (kind, flags, size, 0, addr, count, stride, pc, 0)
    return out


@st.composite
def _segmented(draw):
    records = _record_array(draw(st.lists(_record, max_size=24)))
    n = records.shape[0]
    bounds = st.integers(0, n)
    segments = draw(st.lists(st.tuples(bounds, bounds), max_size=8))
    return records, [(min(a, b), max(a, b)) for a, b in segments]


class TestSegmentKernel:
    @settings(max_examples=300, deadline=None)
    @given(_segmented())
    def test_kernel_matches_reference(self, case):
        """Empty, access-free, gapped and overlapping segments alike."""
        records, segments = case
        got = segment_digests(
            records, [a for a, _ in segments], [b for _, b in segments]
        )
        assert got == [reference_digest(records[a:b]) for a, b in segments]

    def test_edge_segments(self):
        records = _records(
            _access(64, count=3, stride=-24),
            _access(8, write=False, size=4),
        )
        barrier = np.zeros(1, dtype=EVENT_DTYPE)
        barrier["kind"] = KIND_BARRIER
        records = np.concatenate((barrier, records, barrier))
        segments = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (0, 4), (4, 4)]
        got = segment_digests(
            records, [a for a, _ in segments], [b for _, b in segments]
        )
        assert got == [reference_digest(records[a:b]) for a, b in segments]
        assert got[0] == FrameDigest.empty().ints()
        assert got[1] == FrameDigest.empty(1).ints()  # access-free

    def test_from_records_is_the_one_segment_call(self):
        records = _records(_access(0, count=4, stride=32), _access(16))
        assert FrameDigest.from_records(records).ints() == reference_digest(
            records
        )


class TestTokenRoundTrip:
    def test_encode_decode(self):
        d = FrameDigest.from_records(
            _records(_access(8, count=3, stride=24), _access(56, write=False))
        )
        table, _ = parse_meta_table(f"1 - 0 0 2 0 0 40 {d.encode()}\n")
        assert FrameDigest.from_ints(table[0, 8:].tolist()) == d

    @pytest.mark.parametrize("head", ["d0", "d-3", "d01", "d2", "d9", "d99"])
    def test_only_d1_tokens_decode(self, head):
        with pytest.raises(TraceFormatError, match="malformed meta row"):
            parse_meta_table(f"1 0 2 0 4 0 0 40 {head}=1,1,1,0,0,0,8,8,0,5,5")

    def test_malformed_tokens_raise(self):
        # Wrong field count, non-integer, not a digest token.
        for token in ("d1=1,2,3", "d1=a,b,c,d,e,f,g,h,i,j,k", "x1=1"):
            with pytest.raises(TraceFormatError, match="malformed meta row"):
                parse_meta_table(f"1 0 2 0 4 0 0 40 {token}")

    def test_meta_row_carries_digest_through_durable_crc(self):
        digest = FrameDigest.from_records(_records(_access(512, size=4)))
        row = MetaRow(
            pid=1, ppid=0, bid=2, offset=0, span=4,
            level=0, data_begin=0, size=40, digest=digest,
        )
        text = format_meta_file([row.ints()], durable=True)
        table, dropped = parse_meta_table(text)
        assert dropped == 0
        (parsed,) = map(MetaRow.from_ints, table.tolist())
        assert parsed == row and parsed.digest == digest

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    @pytest.mark.parametrize(
        "token", ["", "d0=1,1,1,0,0,0,8,8,0,5,5", "d9=anything"],
        ids=["missing", "d0", "d9"],
    )
    def test_non_d1_row_is_malformed(self, token, durable):
        line = f"1 0 2 0 4 0 0 40 {token}".rstrip()
        if durable:  # a valid CRC does not make the row well-formed
            line = f"{line} *{crc32(line.encode()):08x}"
        with pytest.raises(TraceFormatError, match="malformed meta row"):
            parse_meta_table(line + "\n")
        table, dropped = parse_meta_table(line + "\n", salvage=True)
        assert table.shape == (0, 19) and dropped == 1

    def test_malformed_digest_token_is_a_format_error(self):
        with pytest.raises(TraceFormatError, match="malformed meta row"):
            parse_meta_table("1 0 2 0 4 0 0 40 d1=1,2\n")


def _tiny_regions_program(m):
    """Many tiny regions and a nested one: at a 32-event buffer, chunk
    rows straddle flushes and several rows seal in one buffer."""
    a = m.alloc_array("a", 64)
    x = m.alloc_array("x", 8)

    def tiny(ctx):
        lo, hi = ctx.static_chunk(64)
        if ctx.tid % 2:
            ctx.read_slice(a, lo, hi, step=2)
        for i in range(lo, min(hi, lo + 3)):
            ctx.write(a, i, 1.0)
        ctx.barrier()
        ctx.atomic_add(x, 0, 1.0)

    def inner(ctx):
        ctx.write(x, 4 + ctx.tid, 1.0)

    def outer(ctx):
        ctx.write(x, ctx.tid, 1.0)
        if ctx.tid == 0:
            ctx.parallel(inner, nthreads=2)
        ctx.write(x, 2 + ctx.tid, 2.0)

    for step in range(12):
        m.parallel(tiny)
        if step == 5:
            m.parallel(outer, nthreads=2)


class TestCollectedDigests:
    def _collect(self, trace_dir, program, **config):
        tool = SwordTool(
            SwordConfig(log_dir=trace_dir, buffer_events=32, **config)
        )
        run_program(program, nthreads=2, tool=tool)
        return TraceDir(trace_dir)

    @staticmethod
    def _program(m):
        a = m.alloc_array("a", 64)

        def body(ctx):
            lo, hi = ctx.static_chunk(64)
            ctx.write_slice(a, lo, hi, np.arange(lo, hi, dtype=float))
            ctx.barrier()
            ctx.read_slice(a, lo, hi)

        m.parallel(body)

    @pytest.mark.parametrize("program", ["one_region", "tiny_regions"])
    @pytest.mark.parametrize("config", [{}, {"durable": True}])
    def test_logged_digest_matches_reinflated_frame(
        self, trace_dir, config, program
    ):
        body = self._program if program == "one_region" else _tiny_regions_program
        trace = self._collect(trace_dir, body, **config)
        rows_seen = straddling = 0
        for gid in trace.thread_gids:
            with trace.reader(gid) as reader:
                block = 32 * EVENT_DTYPE.itemsize
                for view in reader.frames():
                    assert view.digest is not None
                    assert not view.inflated  # digest never touches payload
                    assert view.digest.ints() == reference_digest(view.events())
                    rows_seen += 1
                    first = view.begin // block
                    last = (view.begin + view.size - 1) // block
                    straddling += first != last
        assert rows_seen > 0
        if program == "tiny_regions":
            assert straddling > 0  # rows whose bytes span two flushes

    def test_frame_at_without_row_has_no_digest(self, trace_dir):
        trace = self._collect(trace_dir, self._program)
        with trace.reader(trace.thread_gids[0]) as reader:
            row = reader.rows[0]
            assert reader.frame_at(row.data_begin, row.size).digest is not None
            # An ad-hoc sub-range matches no meta row.
            view = reader.frame_at(row.data_begin, 40)
            assert view.digest is None
            assert view.events().shape[0] == 1
