"""On-disk trace layout: block framing, Table-I metadata rows, manifest.

Per-thread files in a trace directory:

* ``thread_<gid>.log``  — concatenated compressed blocks of EVENT_DTYPE
  records.  Each block is framed with a 32-byte checksummed header and
  an 8-byte trailing commit marker (layout below), so a reader can skip
  blocks without decompressing, resynchronise offsets in *uncompressed
  stream coordinates* (what the metadata refers to), and — the
  durability property — prove that any byte-level truncation or
  corruption leaves a detectable, prefix-valid trace.  Anything else
  where a frame should start (including the unchecksummed 24-byte
  ``SWBL`` headers of format v1, which is no longer read) is a frame
  defect.
* ``thread_<gid>.meta`` — text rows, one per barrier-interval data chunk,
  with the paper's Table-I columns: ``pid ppid bid offset span level
  data_begin size`` (``data_begin``/``size`` in uncompressed bytes),
  then the chunk's access digest as a ``d1=`` token (a row without one
  is malformed).  An interval interrupted by a nested region contributes
  multiple chunks.  Durable mode appends a per-row CRC32 suffix
  (``*xxxxxxxx``) so a torn trailing row is detectable; rows without the
  suffix (non-durable traces) parse too.

Run-wide files:

* ``regions.json``   — per region: ppid, parent slot/bid, span, level (the
  fork positions the offline phase chains into offset-span labels);
* ``regions.jsonl``  — durable-mode journal: one checksummed JSON line per
  region, appended at fork time so a crash before finalisation still
  leaves the concurrency structure recoverable;
* ``verdicts.jsonl`` — durable-mode journal of the static verdicts, one
  checksummed line per screened region; the salvage reader folds it when
  the run died before the manifest was finalised;
* ``mutexsets.json`` — the interned mutex-set table;
* ``manifest.json``  — codec name, thread list, counters, format version.

Frame layout (little-endian)::

    offset  size  field
    0       4     magic "SWB2"
    4       8     uncompressed stream offset
    12      4     compressed payload size
    16      4     uncompressed size
    20      1     codec id (always 4: zlib)
    21      1     filter id (always 1: delta)
    22      2     padding (zero)
    24      4     CRC32 of the compressed payload
    28      4     CRC32 of header bytes [0, 28)
    32      *     compressed payload
    32+*    4     commit magic "SWCM"
    36+*    4     CRC32 of the compressed payload (echo)

A frame *commits* only once its trailer is on disk; a kill at any byte
boundary therefore leaves either complete committed frames or one
detectable torn frame at the tail.

Every payload has one encoding, owned here (:func:`encode_payload` /
:func:`decode_payload`): the per-column delta filter, then zlib level 1.
A committed frame whose header names any other codec or filter id is a
frame defect, like a bad magic.
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..common.errors import TraceFormatError
from .compression.filters import delta_decode, delta_encode
from .compression.zlibwrap import ZlibCodec
from .digest import DIGEST_FIELDS, DIGEST_TOKEN_FORMAT, FrameDigest

#: On-disk format version recorded in the manifest (v2: CRC-framed
#: chunks + commit markers).
TRACE_FORMAT_VERSION = 2

# -- CRC framing --------------------------------------------------------------

FRAME_MAGIC = b"SWB2"
#: ``magic, uncompressed stream offset, compressed size, uncompressed
#: size, codec id, filter id``, payload CRC32, and a CRC32 over the
#: header itself.
FRAME_HEADER = struct.Struct("<4sQIIBB2xII")
FRAME_HEADER_BYTES = FRAME_HEADER.size
assert FRAME_HEADER_BYTES == 32

COMMIT_MAGIC = b"SWCM"
#: ``commit magic, payload CRC32 echo`` — written after the payload; its
#: presence marks the frame as fully committed.
COMMIT_TRAILER = struct.Struct("<4sI")
COMMIT_TRAILER_BYTES = COMMIT_TRAILER.size
assert COMMIT_TRAILER_BYTES == 8

#: The header ids of the one payload encoding: zlib level 1 over
#: delta-filtered records.
FRAME_CODEC_ID = 4
FRAME_FILTER_ID = 1
_ZLIB = ZlibCodec(level=1)

META_COLUMNS = ("pid", "ppid", "bid", "offset", "span", "level", "data_begin", "size")
MANIFEST_NAME = "manifest.json"
REGIONS_NAME = "regions.json"
REGIONS_JOURNAL_NAME = "regions.jsonl"
VERDICTS_JOURNAL_NAME = "verdicts.jsonl"
MUTEXSETS_NAME = "mutexsets.json"
TASKS_NAME = "tasks.json"


def crc32(data: bytes) -> int:
    """The trace format's checksum (zlib CRC32, unsigned)."""
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """Parsed frame header."""

    uncompressed_offset: int
    compressed_size: int
    uncompressed_size: int
    #: CRC32 of the compressed payload.
    payload_crc: int


def encode_payload(raw: bytes) -> bytes:
    """Encode one block of raw event records: delta filter, then zlib."""
    return _ZLIB.compress(delta_encode(raw))


def decode_payload(payload: bytes, size: int) -> bytes:
    """Invert :func:`encode_payload`; ``size`` is the header's
    uncompressed size."""
    return delta_decode(_ZLIB.decompress(payload, size))


def pack_frame(
    uncompressed_offset: int, payload: bytes, uncompressed_size: int
) -> bytes:
    """Frame one encoded block: header + payload + commit."""
    payload_crc = crc32(payload)
    head = FRAME_HEADER.pack(
        FRAME_MAGIC,
        uncompressed_offset,
        len(payload),
        uncompressed_size,
        FRAME_CODEC_ID,
        FRAME_FILTER_ID,
        payload_crc,
        0,  # placeholder; the header CRC covers everything before itself
    )
    head = head[:-4] + struct.pack("<I", crc32(head[:-4]))
    return head + payload + COMMIT_TRAILER.pack(COMMIT_MAGIC, payload_crc)


def unpack_frame_header(data: bytes) -> BlockHeader:
    """Parse and validate one frame header (magic, header CRC, encoding)."""
    if len(data) < FRAME_HEADER_BYTES:
        raise TraceFormatError("truncated frame header")
    raw = data[:FRAME_HEADER_BYTES]
    magic, off, csize, usize, codec_id, filter_id, payload_crc, header_crc = (
        FRAME_HEADER.unpack(raw)
    )
    if magic != FRAME_MAGIC:
        raise TraceFormatError(f"bad frame magic {magic!r}")
    if crc32(raw[:-4]) != header_crc:
        raise TraceFormatError("frame header CRC mismatch")
    if (codec_id, filter_id) != (FRAME_CODEC_ID, FRAME_FILTER_ID):
        raise TraceFormatError(
            f"unknown frame encoding: codec id {codec_id}, filter id {filter_id}"
        )
    return BlockHeader(
        uncompressed_offset=off,
        compressed_size=csize,
        uncompressed_size=usize,
        payload_crc=payload_crc,
    )


def check_commit_trailer(data: bytes, payload_crc: int) -> bool:
    """True when ``data`` is this frame's valid commit trailer."""
    if len(data) < COMMIT_TRAILER_BYTES:
        return False
    magic, echo = COMMIT_TRAILER.unpack(data[:COMMIT_TRAILER_BYTES])
    return magic == COMMIT_MAGIC and echo == payload_crc


@dataclass(frozen=True, slots=True)
class MetaRow:
    """One Table-I row: a barrier-interval data chunk of one thread."""

    pid: int
    ppid: int            # -1 for top-level regions (printed as '-')
    bid: int
    offset: int          # thread slot within the team
    span: int            # team size
    level: int
    data_begin: int      # uncompressed byte offset into the thread's log
    size: int            # chunk length in uncompressed bytes
    #: Collection-time access summary of the chunk, serialised as a
    #: versioned ``d1=...`` token (durable rows CRC-cover it).
    digest: FrameDigest

    @classmethod
    def from_ints(cls, row) -> "MetaRow":
        """Rebuild a row from its 19 ints (see :func:`format_row`)."""
        head, digest = row[:COL_DIGEST], row[COL_DIGEST:]
        return cls(*head, digest=FrameDigest.from_ints(digest))

    def ints(self) -> tuple[int, ...]:
        """The row as ints: 8 Table-I columns, then 11 digest ints."""
        return (
            self.pid, self.ppid, self.bid, self.offset, self.span,
            self.level, self.data_begin, self.size,
        ) + self.digest.ints()


#: The 8 Table-I columns (``ppid`` as ``%s``: -1 prints as ``-``)
#: followed by the chunk digest's ``d1=`` token.
_ROW_FORMAT = f"%d %s %d %d %d %d %d %d {DIGEST_TOKEN_FORMAT}"


def format_row(row, *, durable: bool = False) -> str:
    """The one meta-row formatter, over the row's ints.

    ``row`` holds the 8 :data:`META_COLUMNS` ints followed by the chunk
    digest's 11 ints.  Durable rows end in a ``*crc32`` of the text
    before it.
    """
    if row[1] < 0:
        row = (row[0], "-", *row[2:])
    body = _ROW_FORMAT % tuple(row)
    if durable:
        return f"{body} *{crc32(body.encode()):08x}"
    return body


def format_meta_file(rows, *, durable: bool = False) -> str:
    """Render a meta file (header comment + rows given as ints)."""
    lines = ["# " + " ".join(META_COLUMNS)]
    lines.extend(format_row(row, durable=durable) for row in rows)
    return "\n".join(lines) + "\n"


#: One meta row as :func:`format_row` writes it, durable or not; ints of
#: at most 18 digits, so every field fits int64.
_INT = "-?[0-9]{1,18}"
_FIELDS = _ROW_FORMAT.replace("%d", _INT).replace("%s", f"(?:-|{_INT})")
_ROW = re.compile(rf"({_FIELDS})(?: \*([0-9a-f]{{8}}))?")
_CRC = re.compile(r"(.*) \*([0-9a-f]{8})")
#: Columns of a meta table: the Table-I columns, then the digest's ints.
META_TABLE_COLUMNS = len(META_COLUMNS) + len(DIGEST_FIELDS)
#: Meta-table column indices: the Table-I columns, the first digest int
#: and the digest's ``nodes``.
(COL_PID, COL_PPID, COL_BID, COL_OFFSET, COL_SPAN, COL_LEVEL, COL_BEGIN,
 COL_SIZE) = range(len(META_COLUMNS))
COL_DIGEST = len(META_COLUMNS)
COL_NODES = COL_DIGEST + DIGEST_FIELDS.index("nodes")


def parse_meta_table(
    text: str, *, salvage: bool = False
) -> tuple[np.ndarray, int]:
    """Parse a meta file into one int64 table of
    :data:`META_TABLE_COLUMNS` columns, a row per chunk: the
    :data:`META_COLUMNS` (a ``-`` ppid reads -1), then the chunk
    digest's ints.  Comments and blank lines are skipped.

    Every row is validated: its fields, the ``d1=`` token and a durable
    row's ``*crc32``.  Strict mode raises on the first bad row;
    ``salvage`` drops each bad row alone (the durable format checksums
    per line, so a torn record only loses itself).  Returns ``(table,
    dropped)``.
    """
    kept: list[str] = []
    dropped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = _ROW.fullmatch(line)
        if row and (not row[2] or crc32(row[1].encode()) == int(row[2], 16)):
            kept.append(row[1])
            continue
        if not salvage:
            crc = _CRC.fullmatch(line)
            torn = crc and crc32(crc[1].encode()) != int(crc[2], 16)
            problem = "meta row CRC mismatch" if torn else "malformed meta row"
            raise TraceFormatError(f"{problem}: {line!r}")
        dropped += 1
    ints = " ".join(kept).replace(" d1=", " ").replace(",", " ")
    table = np.fromstring(ints.replace(" - ", " -1 "), dtype=np.int64, sep=" ")
    return table.reshape(-1, META_TABLE_COLUMNS), dropped


# -- checksummed JSON journal lines (regions.jsonl, verdicts.jsonl) ------------


def journal_line(payload: dict) -> str:
    """One append-atomic journal record: JSON body + ``*crc32`` suffix."""
    body = json.dumps(payload, sort_keys=True)
    return f"{body} *{crc32(body.encode()):08x}\n"


def parse_journal(text: str, *, salvage: bool = False) -> list[dict]:
    """Parse a journal file; torn/invalid lines raise (strict) or drop."""
    records: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            star = line.rindex("*")
            body = line[:star].rstrip()
            if crc32(body.encode()) != int(line[star + 1 :], 16):
                raise ValueError("journal line CRC mismatch")
            payload = json.loads(body)
            if not isinstance(payload, dict):
                raise ValueError("journal line is not an object")
        except ValueError as exc:
            if salvage:
                continue
            raise TraceFormatError(f"malformed journal line: {line!r}") from exc
        records.append(payload)
    return records


def log_name(gid: int) -> str:
    return f"thread_{gid}.log"


def meta_name(gid: int) -> str:
    return f"thread_{gid}.meta"
