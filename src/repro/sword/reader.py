"""Streaming readers for SWORD trace directories.

The offline phase must handle log files much larger than memory (the paper:
"the size of a single log file can be dozens of gigabytes ... we employ a
streaming algorithm that reads access information from log files in small
chunks").  The reader therefore:

* builds a block index by scanning the frame headers (seeking over
  payloads — no decompression);
* serves byte ranges in *uncompressed stream coordinates* (what Table-I
  ``data_begin``/``size`` reference) by decompressing only the overlapping
  blocks, one at a time, yielding record batches.

Integrity modes (the production-hardening story):

* ``strict`` (default) — any torn frame, checksum mismatch, or malformed
  meta row fails fast with a :class:`TraceFormatError` naming the thread,
  block, and byte offset;
* ``salvage`` — each thread log is verified frame-by-frame (header CRC,
  payload CRC, commit marker) and truncated at the first torn frame; meta
  rows are validated independently and reconciled against the recovered
  bytes.  Everything dropped is accounted in a
  :class:`~repro.sword.integrity.ThreadIntegrity` ledger, and the
  surviving prefix is served normally — analysis completes on whatever
  data a crashed run left behind.

Every block must be a CRC frame in the one payload encoding (delta +
zlib): anything else where a frame should start — an unchecksummed
24-byte ``SWBL`` header of the retired format v1, or a header naming
another codec or filter id — is a frame defect like a torn one.
"""

from __future__ import annotations

import bisect
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..common.errors import TraceFormatError
from ..common.events import EVENT_BYTES, EVENT_DTYPE
from ..obs import get_obs
from ..omp.mutexset import MutexSetTable
from ..osl.concurrency import IntervalLabel, IntervalPair
from .digest import FrameDigest
from ..static.table import STATIC_VERDICTS_KEY
from ..tasking.graph import IMPLICIT, TaskGraph
from .integrity import IntegrityReport, ThreadIntegrity
from .traceformat import (
    COMMIT_TRAILER_BYTES,
    FRAME_HEADER_BYTES,
    FRAME_MAGIC,
    MANIFEST_NAME,
    MUTEXSETS_NAME,
    REGIONS_JOURNAL_NAME,
    REGIONS_NAME,
    TASKS_NAME,
    VERDICTS_JOURNAL_NAME,
    MetaRow,
    check_commit_trailer,
    crc32,
    decode_payload,
    log_name,
    meta_name,
    parse_journal,
    parse_meta_file,
    parse_meta_file_salvage,
    unpack_frame_header,
)

INTEGRITY_MODES = ("strict", "salvage")


def _check_integrity_mode(integrity: str) -> None:
    if integrity not in INTEGRITY_MODES:
        raise ValueError(
            f"unknown integrity mode {integrity!r}; expected one of "
            f"{INTEGRITY_MODES}"
        )


@dataclass(frozen=True, slots=True)
class _BlockRef:
    """Index entry: where one compressed block lives."""

    uncompressed_offset: int
    file_offset: int  # of the payload (past the header)
    compressed_size: int
    uncompressed_size: int
    payload_crc: int


@dataclass(frozen=True, slots=True)
class FrameSpan:
    """Physical layout of one committed frame inside a log file.

    The fault-injection harness derives its kill points from these spans
    instead of re-parsing raw frame bytes itself.
    """

    start: int  # file offset of the frame header
    header_bytes: int
    payload_bytes: int  # compressed payload size
    trailer_bytes: int  # commit trailer

    @property
    def end(self) -> int:
        """File offset just past the frame (its boundary kill point)."""
        return self.start + self.header_bytes + self.payload_bytes + self.trailer_bytes


class FrameView:
    """Lazy handle on one data chunk of a thread's log.

    The redesigned reader surface: a view exposes the chunk's
    collection-time :attr:`digest` without touching the compressed
    payload, and inflates the events only when :meth:`events` /
    :meth:`iter_events` is called.  ``events()`` memoizes the inflated
    array for repeated access; ``iter_events()`` streams block-by-block
    with bounded memory (and reuses the memoized array when present).

    Integrity semantics are the owning reader's: a strict reader raises
    on CRC mismatch at inflation time, a salvage reader only ever serves
    chunks its reconciliation pass admitted.
    """

    __slots__ = ("reader", "begin", "size", "row", "_events")

    def __init__(
        self,
        reader: "ThreadTraceReader",
        begin: int,
        size: int,
        row: MetaRow | None = None,
    ) -> None:
        self.reader = reader
        self.begin = begin
        self.size = size
        self.row = row
        self._events: np.ndarray | None = None

    @property
    def gid(self) -> int:
        return self.reader.gid

    @property
    def nbytes(self) -> int:
        """Uncompressed extent of the chunk (what inflating would cost)."""
        return self.size

    @property
    def digest(self) -> FrameDigest | None:
        """The frame-resident access summary; None for an ad-hoc
        sub-range, which has no meta row."""
        return self.row.digest if self.row is not None else None

    @property
    def inflated(self) -> bool:
        return self._events is not None

    def events(self) -> np.ndarray:
        """Inflate (once) and return the chunk's records."""
        if self._events is None:
            self._events = self.reader._read_range(self.begin, self.size)
        return self._events

    def iter_events(self):
        """Stream the chunk's records block-by-block (bounded memory)."""
        if self._events is not None:
            if self._events.shape[0]:
                yield self._events
            return
        yield from self.reader._iter_range(self.begin, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameView(gid={self.reader.gid}, begin={self.begin}, "
            f"size={self.size}, digest={'yes' if self.digest else 'no'})"
        )


class ThreadTraceReader:
    """Random/streaming access to one thread's log + meta files.

    In ``live`` mode the log is still being appended to by the online
    logger: the meta file may not exist yet (chunk rows arrive over the
    flush-event bus instead), an incomplete trailing block is tolerated,
    and :meth:`refresh` re-scans the tail to index newly flushed blocks.

    In ``salvage`` mode defects truncate instead of raising, and the
    reader's :attr:`integrity` ledger records everything dropped.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        gid: int,
        *,
        live: bool = False,
        integrity: str = "strict",
        report: ThreadIntegrity | None = None,
    ) -> None:
        _check_integrity_mode(integrity)
        directory = Path(directory)
        self.gid = gid
        self.live = live
        self.integrity_mode = integrity
        self.integrity = report if report is not None else ThreadIntegrity(gid=gid)
        if integrity == "salvage":
            # Rescanning unchanged files reaches identical verdicts, so a
            # second reader refills the shared ledger instead of
            # double-counting.
            self.integrity.reset()
        self.log_path = directory / log_name(gid)
        self.meta_path = directory / meta_name(gid)
        self._blocks: list[_BlockRef] = []
        self._offsets: list[int] = []
        self._scan_pos = 0
        self._truncated = False
        self._index()
        self.rows: list[MetaRow] = self._load_rows()
        self._file = open(self.log_path, "rb")
        # One-block decompression cache (ranges are read in ascending order).
        self._cached_block: int = -1
        self._cached_data: bytes = b""
        #: Uncompressed bytes this reader actually decompressed — the
        #: lazy-inflation accounting the engine folds into its stats.
        self.bytes_inflated = 0
        self._row_index: dict[tuple[int, int], MetaRow] | None = None

    @property
    def salvage(self) -> bool:
        return self.integrity_mode == "salvage"

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "ThreadTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- block index ----------------------------------------------------------

    def _defect(self, pos: int, message: str) -> bool:
        """Handle one torn/corrupt frame at file offset ``pos``.

        Salvage truncates (returns True = stop scanning); strict raises a
        precise error naming thread, block, and offset.
        """
        detail = (
            f"{self.log_path}: thread {self.gid}, "
            f"block {len(self._blocks)} at byte {pos}: {message}"
        )
        if self.salvage:
            self._truncated = True
            self.integrity.chunks_dropped += 1
            self.integrity.errors.append(detail)
            get_obs().registry.counter(
                "sword.chunks_corrupt",
                "frames rejected by the salvage reader",
            ).inc()
            return True
        raise TraceFormatError(detail)

    def _index(self) -> None:
        """Scan frames from the last indexed position to the file end."""
        pos = self._scan_pos
        try:
            size = self.log_path.stat().st_size
        except FileNotFoundError:
            raise TraceFormatError(f"{self.log_path}: missing") from None
        with open(self.log_path, "rb") as fh:
            while pos < size and not self._truncated:
                fh.seek(pos)
                magic = fh.read(4)
                if magic == FRAME_MAGIC:
                    advance = self._index_frame(fh, pos, size)
                elif len(magic) < 4 or pos + FRAME_HEADER_BYTES > size:
                    if not self.live:  # live: header still being written
                        self._defect(pos, "truncated frame header")
                    break
                else:
                    self._defect(pos, f"bad frame magic {magic!r}")
                    break
                if advance is None:
                    break  # live tail, or salvage truncation recorded
                pos = advance
        self._scan_pos = pos
        if self.salvage:
            self.integrity.chunks_recovered = len(self._blocks)
            self.integrity.bytes_recovered = self.uncompressed_bytes
            self.integrity.bytes_dropped = max(0, size - pos)

    def _index_frame(self, fh, pos: int, size: int) -> int | None:
        """Index one CRC-framed chunk; returns the next scan position."""
        if pos + FRAME_HEADER_BYTES > size:
            if self.live:
                return None
            self._defect(pos, "truncated frame header")
            return None
        fh.seek(pos)
        try:
            header = unpack_frame_header(fh.read(FRAME_HEADER_BYTES))
        except TraceFormatError as exc:
            if self.live:
                return None  # header bytes still in flight
            self._defect(pos, str(exc))
            return None
        end = (
            pos + FRAME_HEADER_BYTES + header.compressed_size
            + COMMIT_TRAILER_BYTES
        )
        if end > size:
            if self.live:
                return None  # payload/commit not fully written yet
            self._defect(pos, "torn frame (payload or commit marker missing)")
            return None
        fh.seek(pos + FRAME_HEADER_BYTES + header.compressed_size)
        trailer = fh.read(COMMIT_TRAILER_BYTES)
        if not check_commit_trailer(trailer, header.payload_crc):
            if self.live:
                return None
            self._defect(pos, "uncommitted frame (bad commit marker)")
            return None
        if self.salvage:
            # Salvage pays one full read per block up front: a payload
            # whose CRC fails truncates the log here, before any meta
            # row referencing it is admitted.
            fh.seek(pos + FRAME_HEADER_BYTES)
            payload = fh.read(header.compressed_size)
            if crc32(payload) != header.payload_crc:
                self._defect(pos, "payload CRC mismatch")
                return None
        self._admit(header, pos + FRAME_HEADER_BYTES)
        return end

    def _admit(self, header, payload_offset: int) -> None:
        ref = _BlockRef(
            uncompressed_offset=header.uncompressed_offset,
            file_offset=payload_offset,
            compressed_size=header.compressed_size,
            uncompressed_size=header.uncompressed_size,
            payload_crc=header.payload_crc,
        )
        self._blocks.append(ref)
        self._offsets.append(ref.uncompressed_offset)

    def refresh(self) -> None:
        """Index blocks appended since construction (live mode)."""
        self._index()

    # -- meta rows ------------------------------------------------------------

    def _load_rows(self) -> list[MetaRow]:
        if not self.meta_path.exists():
            if self.live:
                return []
            if self.salvage:
                self.integrity.errors.append(f"{self.meta_path}: missing")
                return []
            raise TraceFormatError(f"{self.meta_path}: missing meta file")
        text = self.meta_path.read_text()
        if not self.salvage:
            return parse_meta_file(text)
        rows, dropped = parse_meta_file_salvage(text)
        reconciled = self._reconcile(rows)
        self.integrity.rows_dropped += dropped
        if dropped:
            self.integrity.errors.append(
                f"{self.meta_path}: {dropped} malformed/torn row(s) dropped"
            )
        self.integrity.rows_recovered = len(reconciled)
        return reconciled

    def _reconcile(self, rows: list[MetaRow]) -> list[MetaRow]:
        """Keep only meta rows fully covered by the recovered bytes.

        Rows pointing past the truncation point, misaligned rows, and
        exact duplicates (the duplicate-record fault) are dropped and
        accounted; what remains is guaranteed readable.
        """
        extent = self.uncompressed_bytes
        kept: list[MetaRow] = []
        seen: set[MetaRow] = set()
        for row in rows:
            if row in seen:
                self.integrity.rows_dropped += 1
                self.integrity.errors.append(
                    f"{self.meta_path}: duplicate row dropped: {row.format()}"
                )
                continue
            if (
                row.data_begin % EVENT_BYTES
                or row.size % EVENT_BYTES
                or row.size < 0
                or row.data_begin + row.size > extent
            ):
                self.integrity.rows_dropped += 1
                self.integrity.errors.append(
                    f"{self.meta_path}: row beyond recovered data "
                    f"(or misaligned) dropped: {row.format()}"
                )
                continue
            seen.add(row)
            kept.append(row)
        return kept

    # -- byte ranges ----------------------------------------------------------

    @property
    def uncompressed_bytes(self) -> int:
        if not self._blocks:
            return 0
        last = self._blocks[-1]
        return last.uncompressed_offset + last.uncompressed_size

    def _block_bytes(self, i: int) -> bytes:
        if i == self._cached_block:
            return self._cached_data
        ref = self._blocks[i]
        self._file.seek(ref.file_offset)
        payload = self._file.read(ref.compressed_size)
        if crc32(payload) != ref.payload_crc:
            raise TraceFormatError(
                f"{self.log_path}: thread {self.gid}, block {i} at byte "
                f"{ref.file_offset}: payload CRC mismatch"
            )
        data = decode_payload(payload, ref.uncompressed_size)
        self.bytes_inflated += ref.uncompressed_size
        self._cached_block = i
        self._cached_data = data
        return data

    def _read_range(self, begin: int, size: int) -> np.ndarray:
        """Materialise one chunk ``[begin, begin+size)`` as a record array."""
        parts = list(self._iter_range(begin, size))
        if not parts:
            return np.empty(0, dtype=EVENT_DTYPE)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _iter_range(self, begin: int, size: int) -> Iterator[np.ndarray]:
        """Stream one chunk block-by-block (bounded memory)."""
        if size == 0:
            return
        if begin % EVENT_BYTES or size % EVENT_BYTES:
            raise TraceFormatError("chunk not record-aligned")
        end = begin + size
        if self.live and end > self.uncompressed_bytes:
            self.refresh()  # the logger may have flushed more blocks
        if end > self.uncompressed_bytes:
            raise TraceFormatError(
                f"chunk [{begin}, {end}) beyond log end {self.uncompressed_bytes}"
            )
        i = bisect.bisect_right(self._offsets, begin) - 1
        pos = begin
        while pos < end:
            ref = self._blocks[i]
            data = self._block_bytes(i)
            lo = pos - ref.uncompressed_offset
            hi = min(end - ref.uncompressed_offset, ref.uncompressed_size)
            chunk = data[lo:hi]
            yield np.frombuffer(chunk, dtype=EVENT_DTYPE)
            pos = ref.uncompressed_offset + hi
            i += 1

    # -- frame views ----------------------------------------------------------

    def frame_at(self, begin: int, size: int) -> FrameView:
        """The lazy view of chunk ``[begin, begin+size)``.

        When a meta row for that exact extent exists its collection-time
        digest rides along; extents with no matching row (e.g. ad-hoc
        sub-ranges) get a digest-less view that always inflates.
        """
        if self._row_index is None:
            self._row_index = {
                (row.data_begin, row.size): row for row in self.rows
            }
        row = self._row_index.get((begin, size))
        return FrameView(self, begin, size, row)

    def frames(self) -> list[FrameView]:
        """Lazy views of every chunk the meta file describes, in order."""
        return [FrameView(self, row.data_begin, row.size, row) for row in self.rows]

    def frame_spans(self) -> list[FrameSpan]:
        """Physical frame layout of the log file (headers, payloads,
        trailers) for tooling that reasons about on-disk byte offsets."""
        return [
            FrameSpan(
                start=ref.file_offset - FRAME_HEADER_BYTES,
                header_bytes=FRAME_HEADER_BYTES,
                payload_bytes=ref.compressed_size,
                trailer_bytes=COMMIT_TRAILER_BYTES,
            )
            for ref in self._blocks
        ]


def build_interval_label(
    regions: dict, pid: int, slot: int, bid: int
) -> IntervalLabel:
    """Reconstruct a barrier-interval label from a regions table.

    ``regions`` maps region pid to its fork-position record (``ppid``,
    ``parent_slot``, ``parent_bid``, ``span``) — either the parsed
    ``regions.json`` of a closed trace or the online logger's live table.
    """

    def span_of(p: int) -> int:
        return int(regions[p]["span"])

    pairs = [IntervalPair(region=pid, slot=slot, bid=bid, span=span_of(pid))]
    info = regions[pid]
    # Region ids start at 1; ppid <= 0 marks a top-level region.
    while info["ppid"] > 0:
        ppid = int(info["ppid"])
        pairs.append(
            IntervalPair(
                region=ppid,
                slot=int(info["parent_slot"]),
                bid=int(info["parent_bid"]),
                span=span_of(ppid),
            )
        )
        info = regions[ppid]
    return tuple(reversed(pairs))


class _TolerantMutexSetTable(MutexSetTable):
    """Mutex-set table that treats unknown ids conservatively.

    A kill between the last table snapshot and the end of the run can
    leave logged events referencing msids the recovered table does not
    know.  Answering "not disjoint" for those suppresses the race (an
    under-report), which preserves the salvage subset guarantee; the
    alternative — guessing "disjoint" — could invent races a clean run
    never finds.
    """

    def disjoint(self, msid_a: int, msid_b: int) -> bool:
        try:
            return super().disjoint(msid_a, msid_b)
        except KeyError:
            return False


_LOG_RE = re.compile(r"^thread_(\d+)\.log$")


class _LostTaskGraph(TaskGraph):
    """The task graph salvage substitutes for a lost ``tasks.json``.

    Without the graph no explicit-task point can be ordered, and the
    barrier rule alone would call such points concurrent (false races).
    So every interval may hold tasks — its pairs, self-pairs included,
    take the task-gated comparison — and judging an explicit-task point
    raises: salvage abandons and counts that pair
    (:meth:`~repro.offline.engine.AnalysisEngine.analyze_pair`).
    Implicit-task points are ordered as under any graph.
    """

    def holds_tasks(self, pid: int, bid: int) -> bool:
        return True

    def concurrent(self, entity_a, seq_a, gid_a, entity_b, seq_b, gid_b) -> bool:
        if entity_a != IMPLICIT or entity_b != IMPLICIT:
            raise TraceFormatError(
                f"{TASKS_NAME} lost: explicit-task points cannot be ordered"
            )
        return super().concurrent(entity_a, seq_a, gid_a, entity_b, seq_b, gid_b)


@dataclass(frozen=True, slots=True)
class _RunFile:
    """One row of the loader table: a run-wide file of a trace."""

    name: str
    #: ``(path, salvage)`` -> the loaded table; raises on a corrupt file.
    parse: Callable[[Path, bool], object]
    #: The durable journal whose intact records ``substitute`` gets.
    journal: str | None
    #: What salvage uses in place of the lost file.
    substitute: Callable[[list[dict]], object]
    #: What the substitute costs the analysis (the loss note).
    cost: str


def _manifest(path: Path, salvage: bool) -> dict:
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not an object")
    return manifest


#: The manifest: first, since the static verdicts and the thread list
#: are read from it.
_MANIFEST = _RunFile(
    MANIFEST_NAME, _manifest, None, lambda records: {"reconstructed": True},
    f"threads taken from the logs on disk, verdicts from "
    f"{VERDICTS_JOURNAL_NAME}",
)
#: The tables a run writes when it finalises, in load order.  In
#: salvage a mutex-set snapshot may predate the kill: stale ids are
#: tolerated.
_TABLES = (
    _RunFile(
        REGIONS_NAME,
        lambda path, salvage: {
            int(k): v for k, v in json.loads(path.read_text()).items()
        },
        REGIONS_JOURNAL_NAME,
        # A region is journalled at fork time, before any chunk
        # referencing it could have been flushed.
        lambda records: {int(r.pop("pid")): r for r in records},
        f"rebuilt from {REGIONS_JOURNAL_NAME}; intervals of regions it "
        f"lacks are skipped",
    ),
    _RunFile(
        MUTEXSETS_NAME,
        lambda path, salvage: (
            _TolerantMutexSetTable if salvage else MutexSetTable
        ).load(path),
        None, lambda records: _TolerantMutexSetTable(),
        "unknown mutex sets are treated as overlapping (may under-report "
        "races)",
    ),
    _RunFile(
        TASKS_NAME,
        lambda path, salvage: TaskGraph.from_json(json.loads(path.read_text())),
        None, lambda records: _LostTaskGraph(),
        "pairs that reach an explicit-task point are abandoned",
    ),
)


class TraceDir:
    """A complete SWORD trace directory (one program run).

    Every run-wide file loads through one row of the loader table
    (:data:`_MANIFEST`, :data:`_TABLES`) under one loss rule
    (:meth:`_lose`): strict raises naming a missing or corrupt file;
    ``integrity="salvage"`` lists it in ``missing_files``, notes what
    its substitute costs, and goes on with the substitute.
    """

    def __init__(
        self, path: str | os.PathLike, *, integrity: str = "strict"
    ) -> None:
        _check_integrity_mode(integrity)
        self.path = Path(path)
        self.integrity_mode = integrity
        self.integrity = IntegrityReport(mode=integrity)
        self.manifest = self._load(_MANIFEST)
        if self.manifest.get("in_progress"):
            self.integrity.note(
                f"{MANIFEST_NAME}: in-progress (run was killed before "
                f"finalisation)"
            )
        self.static_verdicts = self._static_verdicts()
        self.regions, self.mutexsets, self.task_graph = map(self._load, _TABLES)
        self.thread_gids: list[int] = self._load_thread_gids()

    # -- the loader table ------------------------------------------------------

    def _load(self, row: _RunFile):
        """One row under the loss rule: its file, else its substitute."""
        try:
            return row.parse(self.path / row.name, self.integrity_mode == "salvage")
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            self._lose(
                row.name,
                "missing" if isinstance(exc, FileNotFoundError)
                else f"corrupt ({exc})",
                row.cost,
            )
        journal = self.path / row.journal if row.journal else None
        if journal is None or not journal.exists():
            return row.substitute([])
        return row.substitute(parse_journal(journal.read_text(), salvage=True))

    def _lose(self, name: str, problem: str, cost: str) -> None:
        """The loss rule: strict raises naming the file; salvage lists it
        in ``missing_files`` and notes what its substitute costs."""
        if self.integrity_mode == "strict":
            raise TraceFormatError(f"{self.path / name}: {problem}")
        self.integrity.missing_files.append(name)
        self.integrity.note(f"{name}: {problem}; {cost}")

    def _static_verdicts(self):
        """The manifest's static verdict table; a manifest that is not
        finalised (a killed run's header, or a lost one) has none, and
        the durable verdict journal is folded into one instead.

        A table that fails its schema, version, or CRC check is corrupt:
        strict mode raises, salvage mode falls back to UNKNOWN-everything
        (full-instrumentation semantics — the analysis skips no pair and
        injects no synthesised report) and counts the loss.
        """
        payload = self.manifest.get(STATIC_VERDICTS_KEY)
        journal = self.path / VERDICTS_JOURNAL_NAME
        if payload is None and not (
            (self.manifest.get("in_progress") or self.manifest.get("reconstructed"))
            and journal.exists()
        ):
            return None
        from ..static.table import StaticVerdictTable  # deferred: cycle

        salvage = self.integrity_mode == "salvage"
        source = MANIFEST_NAME if payload is not None else VERDICTS_JOURNAL_NAME
        try:
            if payload is not None:
                return StaticVerdictTable.from_payload(payload)
            table = StaticVerdictTable.from_journal(
                parse_journal(journal.read_text(), salvage=salvage)
            )
        except TraceFormatError as exc:
            if not salvage:
                raise TraceFormatError(f"{self.path / source}: {exc}") from exc
            self.integrity.verdicts_dropped += 1
            self.integrity.note(
                f"{source}: static verdict table corrupt "
                f"({exc}); treating every site as UNKNOWN — elided "
                f"DEFINITE_RACE witnesses may be lost"
            )
            return None
        self.integrity.note(
            f"{VERDICTS_JOURNAL_NAME}: folded {len(table.regions)} region "
            f"verdict(s) in place of the manifest's table"
        )
        return table if table.regions else None

    def _load_thread_gids(self) -> list[int]:
        listed = self.manifest.get("thread_gids")
        if listed is not None and self.integrity_mode == "strict":
            return list(listed)
        # Salvage: the logs on disk, which pick up any the (possibly
        # stale in-progress) manifest missed.
        names = set(os.listdir(self.path))
        on_disk = sorted(
            int(match.group(1)) for match in map(_LOG_RE.match, names) if match
        )
        lost = [log_name(gid) for gid in sorted(set(listed or ()) - set(on_disk))]
        lost += [meta_name(gid) for gid in on_disk if meta_name(gid) not in names]
        for name in lost:
            self._lose(name, "missing", "that thread's intervals are not analysed")
        return on_disk

    # -- readers ---------------------------------------------------------------

    def reader(self, gid: int) -> ThreadTraceReader:
        """Open one thread's log/meta pair (inherits the integrity mode)."""
        report = (
            self.integrity.thread(gid)
            if self.integrity_mode == "salvage"
            else None
        )
        return ThreadTraceReader(
            self.path, gid, integrity=self.integrity_mode, report=report
        )

    def interval_label(self, pid: int, slot: int, bid: int) -> IntervalLabel:
        """Reconstruct the barrier-interval label from the regions table.

        This is the offline recovery of the concurrency structure: the chain
        of fork positions (ppid / parent slot / parent bid) up to a top-level
        region, terminated by the interval's own leaf pair.
        """
        return build_interval_label(self.regions, pid, slot, bid)
