"""CRC block framing and Table-I metadata rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.sword.digest import FrameDigest
from repro.sword.traceformat import (
    COMMIT_TRAILER_BYTES,
    FRAME_CODEC_ID,
    FRAME_FILTER_ID,
    FRAME_HEADER_BYTES,
    FRAME_MAGIC,
    META_TABLE_COLUMNS,
    TRACE_FORMAT_VERSION,
    MetaRow,
    check_commit_trailer,
    crc32,
    format_meta_file,
    format_row,
    journal_line,
    pack_frame,
    parse_journal,
    parse_meta_table,
    unpack_frame_header,
)

#: A chunk digest: every row carries one (its ``d1=`` token).
DIGEST = FrameDigest.from_ints((5, 4, 1, 3, 0, 64, 127, 8, 8, 4096, 4160))


def parse_rows(text, **kwargs):
    """The meta table's rows as :class:`MetaRow` objects."""
    table, dropped = parse_meta_table(text, **kwargs)
    assert table.dtype == np.int64 and table.shape[1] == META_TABLE_COLUMNS
    assert dropped == 0 or kwargs.get("salvage")
    return [MetaRow.from_ints(row) for row in table.tolist()]


def parse_line(line):
    (row,) = parse_rows(line + "\n")
    return row


class TestMetaRows:
    def test_table1_column_roundtrip(self):
        row = MetaRow(pid=1, ppid=-1, bid=0, offset=0, span=24, level=1,
                      data_begin=0, size=50_000, digest=DIGEST)
        assert parse_line(format_row(row.ints())) == row

    def test_table1_example_rows(self):
        """The paper's Table-I example rows, each followed by its chunk
        digest, parse; without the digest they are malformed."""
        table1 = [
            "0 - 0 0 24 1 0 50000",
            "0 - 1 0 24 1 50000 75000",
            "1 - 0 0 24 1 75000 10000",
        ]
        text = "\n".join(
            ["# pid ppid bid offset span level data_begin size"]
            + [f"{row} {DIGEST.encode()}" for row in table1]
        )
        rows = parse_rows(text)
        assert len(rows) == 3
        assert all(r.digest == DIGEST for r in rows)
        with pytest.raises(TraceFormatError, match="malformed meta row"):
            parse_meta_table(table1[0])
        assert rows[0].span == 24
        assert rows[1].bid == 1
        assert rows[1].data_begin == 50_000
        assert rows[2].pid == 1
        assert all(r.ppid == -1 for r in rows)

    def test_nested_ppid_kept(self):
        row = MetaRow(pid=7, ppid=3, bid=2, offset=1, span=2, level=2,
                      data_begin=400, size=80, digest=DIGEST)
        assert parse_line(format_row(row.ints())).ppid == 3

    def test_malformed_rows_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_meta_table("1 2 3")
        with pytest.raises(TraceFormatError):
            parse_meta_table("a b c d e f g h")
        too_big = f"1 - 0 0 4 1 0 {2**63} {DIGEST.encode()}"
        with pytest.raises(TraceFormatError, match="malformed meta row"):
            parse_meta_table(too_big)

    def test_file_format_skips_comments_and_blanks(self):
        rows = [
            MetaRow(pid=i, ppid=-1, bid=0, offset=i, span=4, level=1,
                    data_begin=i * 40, size=40, digest=DIGEST)
            for i in range(3)
        ]
        text = format_meta_file([r.ints() for r in rows]) + "\n# trailing comment\n\n"
        assert parse_rows(text) == rows


#: One meta row's ints: ``ppid`` -1 (printed ``-``) or not negative,
#: ``all_atomic`` 0 or 1, the rest anything of at most 18 digits (a
#: wider field is malformed: the table is int64).
_INT = st.integers(-(10**18) + 1, 10**18 - 1)
_ROWS = st.lists(
    st.tuples(
        _INT,
        st.one_of(st.just(-1), st.integers(0, 10**18 - 1)),
        *[_INT] * 6,
        *[st.integers(0, 2**40)] * 4,
        st.integers(0, 1),
        *[st.integers(0, 2**40)] * 6,
    ),
    min_size=1,
    max_size=8,
)


class TestMetaTable:
    """The one meta parser: what the formatter writes comes back."""

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, durable=st.booleans(), bad=st.integers(0, 7))
    def test_round_trip_and_one_corrupted_line(self, rows, durable, bad):
        text = format_meta_file(rows, durable=durable)
        table, dropped = parse_meta_table(text)
        assert dropped == 0
        assert [tuple(row) for row in table.tolist()] == rows

        bad %= len(rows)
        lines = text.splitlines()
        line = lines[bad + 1].replace(" d1=", " d2=")
        lines[bad + 1] = line
        torn = "\n".join(lines) + "\n"
        problem = "meta row CRC mismatch" if durable else "malformed meta row"
        with pytest.raises(TraceFormatError) as info:
            parse_meta_table(torn)
        assert str(info.value) == f"{problem}: {line!r}"
        kept, dropped = parse_meta_table(torn, salvage=True)
        assert dropped == 1
        assert [tuple(row) for row in kept.tolist()] == rows[:bad] + rows[bad + 1 :]

    def test_empty_file(self):
        for text in ("", format_meta_file([]), format_meta_file([], durable=True)):
            table, dropped = parse_meta_table(text)
            assert table.shape == (0, META_TABLE_COLUMNS) and dropped == 0


class TestFrameV2:
    PAYLOAD = b"compressed-bytes-go-here"

    def test_format_version_bumped(self):
        assert TRACE_FORMAT_VERSION == 2

    def test_roundtrip(self):
        frame = pack_frame(777, self.PAYLOAD, 4096)
        assert len(frame) == (
            FRAME_HEADER_BYTES + len(self.PAYLOAD) + COMMIT_TRAILER_BYTES
        )
        header = unpack_frame_header(frame)
        assert header.uncompressed_offset == 777
        assert header.compressed_size == len(self.PAYLOAD)
        assert header.uncompressed_size == 4096
        assert header.payload_crc == crc32(self.PAYLOAD)
        # The one encoding's ids: zlib (4) over delta-filtered records (1).
        assert (frame[20], frame[21]) == (FRAME_CODEC_ID, FRAME_FILTER_ID) == (4, 1)

    def test_commit_trailer_seals_the_frame(self):
        frame = pack_frame(0, self.PAYLOAD, 100)
        trailer = frame[FRAME_HEADER_BYTES + len(self.PAYLOAD):]
        assert check_commit_trailer(trailer, crc32(self.PAYLOAD))
        assert not check_commit_trailer(trailer, crc32(b"other payload"))
        assert not check_commit_trailer(trailer[:-1], crc32(self.PAYLOAD))

    def test_header_crc_detects_any_header_flip(self):
        frame = bytearray(pack_frame(777, self.PAYLOAD, 4096))
        for byte in range(4, 28):  # every non-magic, CRC-covered byte
            poked = bytearray(frame)
            poked[byte] ^= 0x01
            with pytest.raises(TraceFormatError, match="header CRC"):
                unpack_frame_header(bytes(poked))

    def test_bad_magic_and_truncation(self):
        frame = bytearray(pack_frame(1, self.PAYLOAD, 10))
        frame[0] = ord("X")
        with pytest.raises(TraceFormatError, match="magic"):
            unpack_frame_header(bytes(frame))
        with pytest.raises(TraceFormatError, match="truncated"):
            unpack_frame_header(FRAME_MAGIC + b"\x00" * 8)


class TestDurableMetaRows:
    ROW = MetaRow(pid=1, ppid=-1, bid=3, offset=0, span=8, level=1,
                  data_begin=1024, size=2048, digest=DIGEST)

    def test_durable_row_roundtrip(self):
        line = format_row(self.ROW.ints(), durable=True)
        assert line.endswith(f"*{crc32(format_row(self.ROW.ints()).encode()):08x}")
        assert parse_line(line) == self.ROW

    def test_durable_row_crc_mismatch_rejected(self):
        line = format_row(self.ROW.ints(), durable=True)
        torn = line.replace(" 2048 ", " 2049 ", 1)  # flip a digit, keep the CRC
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            parse_meta_table(torn)

    def test_salvage_parse_drops_only_bad_rows(self):
        other = MetaRow(pid=2, ppid=-1, bid=0, offset=1, span=8, level=1,
                        data_begin=0, size=64, digest=DIGEST)
        good = [format_row(row.ints(), durable=True) for row in (self.ROW, other)]
        text = "\n".join([good[0], "1 - 0 0 8 1 torn", good[1]])
        table, dropped = parse_meta_table(text, salvage=True)
        assert dropped == 1
        assert table[:, 0].tolist() == [1, 2]

    def test_durable_file_format(self):
        text = format_meta_file([self.ROW.ints()], durable=True)
        assert "*" in text.splitlines()[1]
        assert parse_rows(text) == [self.ROW]


class TestJournal:
    def test_journal_line_roundtrip(self):
        line = journal_line({"pid": 4, "span": 8})
        assert line.endswith("\n")
        assert parse_journal(line) == [{"pid": 4, "span": 8}]

    def test_torn_line_strict_vs_salvage(self):
        good = journal_line({"pid": 1})
        torn = good[: len(good) // 2] + "\n"
        text = good + torn + journal_line({"pid": 2})
        with pytest.raises(TraceFormatError, match="journal"):
            parse_journal(text)
        assert parse_journal(text, salvage=True) == [{"pid": 1}, {"pid": 2}]

    def test_crc_covers_the_body(self):
        line = journal_line({"pid": 1})
        tampered = line.replace('"pid": 1', '"pid": 9')
        with pytest.raises(TraceFormatError):
            parse_journal(tampered)

    def test_non_object_payload_rejected(self):
        body = "[1, 2, 3]"
        line = f"{body} *{crc32(body.encode()):08x}\n"
        with pytest.raises(TraceFormatError):
            parse_journal(line)
        assert parse_journal(line, salvage=True) == []
