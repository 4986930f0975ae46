"""The SWORD online tool: bounded-buffer trace collection.

Implements the paper's dynamic phase (§III-A) against the simulator's OMPT
seam:

* every thread owns one :class:`~repro.sword.buffer.EventBuffer`; full
  buffers are compressed and appended to the thread's log file with no
  coordination between threads;
* a per-thread meta-data file records one Table-I row per barrier-interval
  data chunk (``data_begin``/``size`` index into the *uncompressed* log
  stream);
* per-region cost is paid per buffer: closing a chunk records only the
  row's ints, and each flush digests all of the buffer's rows in one
  :func:`~repro.sword.digest.segment_digests` pass; static pre-screening
  runs once per region shape (spec + team gids), not per instance;
* the bounded overhead — buffer + auxiliary TLS, ~3.3 MB/thread — is charged
  to the node-memory accountant per participating thread, which is the whole
  story of Figures 7/8: the charge never grows with the application.

Nested parallelism: when a thread enters a nested region, its outer
interval's chunk is closed and a fresh tracker is pushed; the outer interval
resumes (as another chunk row with the same pid/bid) after the nested region
ends.

Durability (production hardening): every chunk is written as a CRC-framed
v2 block with a trailing commit marker, writes go through a bounded
retry/backoff policy with an optional drop-oldest degradation path, and
``SwordConfig.durable`` keeps meta rows and the run-wide tables on disk
throughout the run (append-only journals, O(1) bytes per region fork) —
so a kill at any byte boundary leaves a prefix-valid trace the salvage
reader (:mod:`repro.sword.reader`) can still analyze.

Flush-event bus: observers registered with :meth:`SwordTool.subscribe`
receive live notifications as the trace is produced — region registration,
every Table-I chunk row the moment it is written (with the underlying data
already flushed and durable, so a live reader can consume it), and
barrier-interval completion.  This is the seam the streaming analysis
subsystem (:mod:`repro.stream`) attaches to; with no observers subscribed
the logger's behaviour and block layout are unchanged.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..common.config import SwordConfig
from ..common.errors import FlushError
from ..common.events import (
    EVENT_BYTES,
    KIND_BARRIER,
    KIND_MUTEX_ACQUIRED,
    KIND_MUTEX_RELEASED,
    KIND_PARALLEL_BEGIN,
    KIND_PARALLEL_END,
)
from ..common.store import atomic_write_text
from ..memory.accounting import NodeMemory
from ..obs import (
    RATIO_BUCKETS,
    SECONDS_BUCKETS,
    Instrumentation,
    MemoryBoundGauge,
    get_obs,
)
from ..omp.ompt import OmptTool
from ..static.analyzer import RegionVerdicts, analyze_region
from ..static.table import STATIC_VERDICTS_KEY, StaticVerdictTable
from .buffer import EventBuffer
from .digest import FrameDigest, segment_digests
from .traceformat import (
    MANIFEST_NAME,
    MUTEXSETS_NAME,
    REGIONS_JOURNAL_NAME,
    REGIONS_NAME,
    TASKS_NAME,
    TRACE_FORMAT_VERSION,
    META_COLUMNS,
    VERDICTS_JOURNAL_NAME,
    MetaRow,
    encode_payload,
    format_meta_file,
    format_row,
    journal_line,
    log_name,
    meta_name,
    pack_frame,
)


@dataclass(slots=True)
class _IntervalTracker:
    """Open barrier interval of one thread (stacked for nesting)."""

    pid: int
    ppid: int
    slot: int
    span: int
    level: int
    bid: int
    chunk_start: int


@dataclass(slots=True)
class _ThreadLog:
    """Per-thread collection state.

    A chunk's Table-I row is *pending* from its close until the buffer
    holding its bytes is flushed: the close records only the row's 8
    column ints and its record range in the buffer, and the flush digests
    every pending row in one :func:`~repro.sword.digest.segment_digests`
    pass once the write outcome is known (a row whose bytes were dropped
    goes to ``lost_rows`` instead).  Durable mode and observers need the
    row the moment it exists and seal it at close through the same path.
    """

    gid: int
    buffer: EventBuffer
    file: object
    flushed: int = 0  # uncompressed bytes already written out
    #: Sealed rows as ints: 8 Table-I columns + the 11 digest ints.
    rows: list[tuple[int, ...]] = field(default_factory=list)
    #: Closed, unsealed rows: ``(columns, first record, end record,
    #: carried digest)`` with record indices into the live buffer.
    pending: list[tuple] = field(default_factory=list)
    #: Digest of the open chunk's records already flushed (the buffer
    #: tail at each flush, folded); None until the chunk outlives one.
    carry: FrameDigest | None = None
    stack: list[_IntervalTracker] = field(default_factory=list)
    #: Durable mode only: open append handle on the meta file.
    meta_file: object | None = None
    #: Durable mode only: a dropped buffer retracted rows already on
    #: disk, so finalisation rewrites the meta file without them.
    meta_stale: bool = False
    #: Logical byte ranges lost to the drop-oldest degradation path.
    dropped_ranges: list[tuple[int, int]] = field(default_factory=list)

    def logical_pos(self) -> int:
        """Current position in uncompressed stream coordinates."""
        return self.flushed + len(self.buffer) * EVENT_BYTES

    def overlaps_dropped(self, begin: int, end: int) -> bool:
        return any(begin < hi and lo < end for lo, hi in self.dropped_ranges)


class SwordTool(OmptTool):
    """The online (dynamic-analysis) half of SWORD."""

    def __init__(
        self,
        config: SwordConfig,
        accountant: NodeMemory | None = None,
        obs: Instrumentation | None = None,
        *,
        sink_factory=None,
    ) -> None:
        config.validate()
        self.config = config
        self.accountant = accountant
        self.obs = obs or get_obs()
        self.dir = Path(config.log_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        from ..tasking.graph import TaskGraph

        self._logs: dict[int, _ThreadLog] = {}
        self._regions: dict[int, dict] = {}
        self._task_graph = TaskGraph()
        self._runtime = None
        self._observers: list = []
        self._finalized = False
        #: Open one log sink; the fault-injection harness swaps this to
        #: wrap files with transient/permanent IO errors.
        self._sink_factory = sink_factory or (lambda path: open(path, "wb"))
        #: Backoff sleep; tests replace it to avoid real waiting.
        self._sleep = time.sleep
        #: Chunks lost to the drop-oldest degradation path (manifest's
        #: ``dropped_chunks`` — the record of exactly what was lost).
        self.dropped_chunks: list[dict] = []
        #: Meta rows suppressed because their bytes fell in a dropped range.
        self.lost_rows: list[dict] = []
        # Statistics surfaced in the manifest and by the harness.
        self.stats = {
            "events": 0,
            "batched_events": 0,
            "flushes": 0,
            "bytes_uncompressed": 0,
            "bytes_compressed": 0,
            "io_seconds": 0.0,
            "threads": 0,
            "flush_retries": 0,
            "chunks_dropped": 0,
            "events_dropped": 0,
            "events_elided": 0,
            "sites_proven_free": 0,
            "sites_definite_race": 0,
        }
        #: Verdicts of the static pre-screening pass, persisted into the
        #: manifest at finalisation (and journalled in durable mode).
        self._verdict_table = StaticVerdictTable()
        #: Screening results per region shape, ``(spec, gids)``.
        self._shapes: dict[tuple, RegionVerdicts] = {}
        #: Durable mode: mutex-set and thread counts at the last snapshot
        #: (a snapshot rewrites only what changed).
        self._snapshot_mutexsets = -1
        self._snapshot_threads = -1
        # Registry instruments (cached: one attribute lookup + call per
        # update, a shared no-op under the null backend).  The hot
        # per-event counter is mirrored at flush grain, not per event.
        registry = self.obs.registry
        self._m_events = registry.counter(
            "sword.events", "events logged (mirrored per flush)"
        )
        self._m_batched = registry.counter(
            "sword.batched_events", "events delivered via the columnar batch path"
        )
        self._m_flushes = registry.counter("sword.flushes", "buffers flushed")
        self._m_bytes_raw = registry.counter(
            "sword.bytes_uncompressed", "raw event bytes flushed"
        )
        self._m_bytes_comp = registry.counter(
            "sword.bytes_compressed", "compressed bytes written"
        )
        self._m_threads = registry.gauge(
            "sword.threads", "threads with an open trace log"
        )
        self._m_flush_seconds = registry.histogram(
            "sword.flush_seconds", "compress+write latency per flush",
            buckets=SECONDS_BUCKETS,
        )
        self._m_ratio = registry.histogram(
            "sword.compression_ratio", "compressed/raw bytes per flush",
            buckets=RATIO_BUCKETS,
        )
        self._m_retries = registry.counter(
            "sword.flush_retries", "flush write attempts that were retried"
        )
        self._m_dropped = registry.counter(
            "sword.chunks_dropped", "chunks lost to the drop-oldest policy"
        )
        self._m_events_dropped = registry.counter(
            "sword.events_dropped", "events lost to the drop-oldest policy"
        )
        self._m_events_elided = registry.counter(
            "sword.events_elided",
            "accesses suppressed at statically classified sites",
        )
        # Live N x (B + C) verification: the gauge rides the accountant's
        # charge feed and re-checks the bound on every tool-memory move.
        self.membound: MemoryBoundGauge | None = None
        if accountant is not None:
            self.membound = MemoryBoundGauge(
                registry, config.per_thread_bytes, category=NodeMemory.TOOL
            ).attach(accountant)

    # -- flush-event bus --------------------------------------------------------

    def subscribe(self, observer) -> None:
        """Register a trace observer (see :class:`repro.stream.bus.TraceObserver`).

        Observers make chunk flushes *eager*: whenever a meta row is
        emitted, the thread's buffer is flushed and the log file synced
        first, so the notified chunk is immediately readable on disk.
        """
        self._observers.append(observer)

    @property
    def task_graph(self) -> "TaskGraph":
        """The live (growing) task graph of the current run."""
        return self._task_graph

    @property
    def runtime(self):
        """The runtime this tool is attached to (set at run begin)."""
        return self._runtime

    # -- per-thread state -------------------------------------------------------

    def _log_for(self, gid: int) -> _ThreadLog:
        log = self._logs.get(gid)
        if log is None:
            if self.membound is not None:
                # Grow the budget before the charge lands so the gauge
                # never sees a spuriously over-budget intermediate state.
                self.membound.add_thread()
            if self.accountant is not None:
                self.accountant.charge(
                    NodeMemory.TOOL, self.config.per_thread_bytes
                )
            fh = self._sink_factory(self.dir / log_name(gid))
            log = _ThreadLog(
                gid=gid,
                buffer=EventBuffer(self.config.buffer_events),
                file=fh,
            )
            if self.config.durable:
                meta_fh = open(self.dir / meta_name(gid), "a")
                meta_fh.write("# " + " ".join(META_COLUMNS) + "\n")
                meta_fh.flush()
                log.meta_file = meta_fh
            log.buffer.on_flush = lambda records, _log=log: self._flush(
                _log, records
            )
            self._logs[gid] = log
            self.stats["threads"] += 1
            self._m_threads.set(self.stats["threads"])
        return log

    def _flush(self, log: _ThreadLog, records: np.ndarray) -> None:
        """Compress one filled buffer and append it as a CRC-framed chunk.

        The frame (header + payload + commit marker) is written with a
        bounded retry/backoff policy; a partial write is rolled back
        (seek + truncate) before each retry so a successful retry never
        leaves a torn frame mid-file.  When retries are exhausted, the
        ``flush_degraded`` policy either raises :class:`FlushError` or
        drops the chunk — advancing the logical stream position so later
        chunks keep their coordinates, and recording exactly which bytes
        and events were lost.  The buffer's pending rows are sealed after
        the write outcome is known.
        """
        raw = np.ascontiguousarray(records).tobytes()
        begin = log.flushed
        t0 = time.perf_counter()
        with self.obs.tracer.span("flush", category="online", gid=log.gid):
            payload = encode_payload(raw)
            frame = pack_frame(begin, payload, len(raw))
            written = self._write_frame(log, frame)
        elapsed = time.perf_counter() - t0
        self.stats["io_seconds"] += elapsed
        log.flushed = end = begin + len(raw)
        if written:
            self.stats["flushes"] += 1
            self.stats["bytes_uncompressed"] += len(raw)
            self.stats["bytes_compressed"] += len(payload)
            self._m_events.inc(int(records.shape[0]))
            self._m_flushes.inc()
            self._m_bytes_raw.inc(len(raw))
            self._m_bytes_comp.inc(len(payload))
            self._m_flush_seconds.observe(elapsed)
            if raw:
                self._m_ratio.observe(len(payload) / len(raw))
        else:
            # Drop-oldest degradation: the logical range is recorded as a
            # hole (later chunks keep their coordinates); rows touching it
            # are sealed into ``lost_rows`` below, or retracted if durable
            # mode already wrote them.
            log.dropped_ranges.append((begin, end))
            events = int(records.shape[0])
            self.dropped_chunks.append(
                {
                    "gid": log.gid,
                    "data_begin": begin,
                    "size": len(raw),
                    "events": events,
                }
            )
            self.stats["chunks_dropped"] += 1
            self.stats["events_dropped"] += events
            self._m_dropped.inc()
            self._m_events_dropped.inc(events)
            if log.meta_file is not None:
                self._retract(log, begin)
        self._seal(log, records, begin)

    def _write_frame(self, log: _ThreadLog, frame: bytes) -> bool:
        """Write one frame with bounded retry + exponential backoff.

        Returns True on success; False when retries are exhausted and the
        degradation policy is drop-oldest.  Raises :class:`FlushError`
        when the policy is ``"raise"``.
        """
        attempts = self.config.flush_retries + 1
        last: BaseException | None = None
        for attempt in range(attempts):
            if attempt:
                self.stats["flush_retries"] += 1
                self._m_retries.inc()
                backoff = self.config.flush_backoff_seconds * (2 ** (attempt - 1))
                if backoff > 0:
                    self._sleep(backoff)
            start = None
            try:
                start = log.file.tell()
                log.file.write(frame)
                log.file.flush()
                if self.config.fsync_on_flush:
                    os.fsync(log.file.fileno())
                return True
            except OSError as exc:
                last = exc
                if start is not None:
                    try:  # roll back a partial write before retrying
                        log.file.seek(start)
                        log.file.truncate()
                    except OSError:
                        pass
        if self.config.flush_degraded == "drop-oldest":
            return False
        raise FlushError(log.gid, attempts, last)

    def _close_chunk(self, log: _ThreadLog) -> None:
        """Close the current tracker's open chunk as a pending row.

        Only the row's 8 Table-I ints and its record range are recorded
        here; the digest is computed when the row is sealed.
        """
        tr = log.stack[-1]
        pos = log.logical_pos()
        start = tr.chunk_start
        tr.chunk_start = pos
        if pos <= start:
            log.carry = None
            return
        log.pending.append(
            (
                (tr.pid, tr.ppid, tr.bid, tr.slot, tr.span, tr.level,
                 start, pos - start),
                max(0, (start - log.flushed) // EVENT_BYTES),
                len(log.buffer),
                log.carry if start < log.flushed else None,
            )
        )
        log.carry = None
        if self._observers:
            # Make the chunk durable before announcing it: the flush
            # writes the buffered events as a framed block, then seals
            # (and announces) the row.
            log.buffer.flush()
        if log.pending and (log.meta_file is not None or self._observers):
            self._seal(log, log.buffer.view(), log.flushed)

    def _seal(self, log: _ThreadLog, records: np.ndarray, base: int) -> None:
        """Digest every pending row in one kernel pass and emit the rows.

        ``records`` is the buffer being flushed (or the live buffer when a
        durable or observed row seals at close), ``base`` the stream
        position of ``records[0]``.  The open chunk's records in it are
        the last segment: their digest is carried and folded in when that
        chunk closes, so a row's digest covers exactly its bytes.
        """
        pending = log.pending
        starts = [entry[1] for entry in pending]
        ends = [entry[2] for entry in pending]
        n = records.shape[0]
        tail = False
        if log.stack:
            first = max(0, (log.stack[-1].chunk_start - base) // EVENT_BYTES)
            if first < n:
                starts.append(first)
                ends.append(n)
                tail = True
        if not starts:
            return
        digests = segment_digests(records, starts, ends)
        rows = [entry[0] + digest for entry, digest in zip(pending, digests)]
        # Only the first pending row can have started before this buffer.
        carry = pending[0][3] if pending else None
        if carry is not None:
            folded = carry.fold(FrameDigest.from_ints(digests[0]))
            rows[0] = pending[0][0] + folded.ints()
        pending.clear()
        if tail:
            part = FrameDigest.from_ints(digests[-1])
            log.carry = part if log.carry is None else log.carry.fold(part)
        if rows:
            self._emit(log, rows)

    def _emit(self, log: _ThreadLog, rows: list[tuple[int, ...]]) -> None:
        """Write sealed rows, recording lost any whose bytes were."""
        if log.dropped_ranges:
            # Part of a chunk's bytes were lost to the drop-oldest
            # policy; a row pointing at a hole would make the reader
            # serve wrong data, so the whole row is suppressed and the
            # loss recorded for the integrity report.
            kept = []
            for row in rows:
                if log.overlaps_dropped(row[6], row[6] + row[7]):
                    self._lose(log, row)
                else:
                    kept.append(row)
            rows = kept
        log.rows.extend(rows)
        if log.meta_file is not None and rows:
            # Durable mode: a row is on disk (with its own CRC) the
            # moment it exists, so a kill right after this point still
            # leaves a salvageable prefix.
            log.meta_file.write(
                "".join(format_row(row, durable=True) + "\n" for row in rows)
            )
            log.meta_file.flush()
            if self.config.fsync_on_flush:
                os.fsync(log.meta_file.fileno())
        if self._observers:
            for row in rows:
                meta = MetaRow.from_ints(row)
                for obs in self._observers:
                    obs.on_chunk(log.gid, meta)

    def _lose(self, log: _ThreadLog, row: tuple[int, ...]) -> None:
        self.lost_rows.append(
            {
                "gid": log.gid,
                "pid": row[0],
                "bid": row[2],
                "data_begin": row[6],
                "size": row[7],
            }
        )

    def _retract(self, log: _ThreadLog, begin: int) -> None:
        """Durable mode: rows already on disk whose bytes were just
        dropped (everything ending past ``begin``) become lost rows, and
        the meta file is rewritten without them at finalisation."""
        rows = log.rows
        keep = len(rows)
        while keep and rows[keep - 1][6] + rows[keep - 1][7] > begin:
            keep -= 1
        if keep < len(rows):
            for row in rows[keep:]:
                self._lose(log, row)
            del rows[keep:]
            log.meta_stale = True

    def _notify_interval_end(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> None:
        for obs in self._observers:
            obs.on_interval_end(gid, pid, bid, slot, span)

    # -- OMPT callbacks -------------------------------------------------------------

    def on_run_begin(self, runtime) -> None:  # noqa: D102
        self._runtime = runtime
        for obs in self._observers:
            obs.on_trace_begin(self)

    def on_parallel_begin(self, region) -> None:  # noqa: D102
        info = {
            "ppid": region.ppid,
            "parent_slot": region.parent_slot,
            "parent_bid": region.parent_bid,
            "span": region.span,
            "level": region.level,
        }
        self._regions[region.pid] = info
        if self.config.durable:
            self._journal(REGIONS_JOURNAL_NAME, {"pid": region.pid, **info})
            self._snapshot_tables()
        for obs in self._observers:
            obs.on_region(region.pid, info)

    # -- static pre-screening --------------------------------------------------

    def on_static_region(self, region, team, spec):  # noqa: D102
        if not self.config.static_prescreen:
            return None
        # Screened once per region shape: the classification depends on
        # the spec and the team's gids only, and each instance gets the
        # shared result stamped with its pid.
        key = (spec, tuple(m.gid for m in team.members))
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = analyze_region(spec, gids=key[1])
        verdicts = shape.for_region(region.pid)
        self._verdict_table.add_region(verdicts)
        self.stats["sites_proven_free"] += verdicts.sites_proven_free
        self.stats["sites_definite_race"] += verdicts.sites_definite_race
        if self.config.durable:
            self._journal(
                VERDICTS_JOURNAL_NAME,
                self._verdict_table.journal_record(region.pid),
            )
        return verdicts

    def on_access_elided(self, thread, count) -> None:  # noqa: D102
        self.stats["events_elided"] += count
        self._verdict_table.events_elided += count
        self._m_events_elided.inc(count)

    @property
    def static_verdicts(self) -> StaticVerdictTable | None:
        """The live verdict table (None until a region is screened).

        Offline analyzers consume this through the same attribute name
        trace readers expose, so the streaming path injects
        DEFINITE_RACE reports identically to a post-mortem analysis of
        the persisted manifest.
        """
        return self._verdict_table if self._verdict_table.regions else None

    # -- durable-mode journalling ---------------------------------------------

    def _journal(self, name: str, record: dict) -> None:
        """Append one checksummed record to a durable journal file."""
        with open(self.dir / name, "a") as fh:
            fh.write(journal_line(record))
            fh.flush()
            if self.config.fsync_on_flush:
                os.fsync(fh.fileno())

    def _snapshot_tables(self) -> None:
        """Keep the small run-wide tables recoverable mid-run.

        Checked at every region fork, in O(1): the mutex-set table is
        rewritten only when it grew, and the in-progress manifest only
        when its header (the thread list) changed — each through
        :func:`~repro.common.store.atomic_write_text`, so a kill or a
        failed write leaves the previous snapshot.  Static verdicts are
        journalled per region instead (``verdicts.jsonl``); the salvage
        reader folds that journal into an in-progress manifest.
        """
        if self._runtime is not None:
            mutexsets = self._runtime.mutexsets
            if len(mutexsets) != self._snapshot_mutexsets:
                mutexsets.save(self.dir / MUTEXSETS_NAME)
                self._snapshot_mutexsets = len(mutexsets)
        if len(self._logs) != self._snapshot_threads:
            header = {
                "in_progress": True,
                "format_version": TRACE_FORMAT_VERSION,
                "codec": self.config.codec,
                "buffer_events": self.config.buffer_events,
                "thread_gids": sorted(self._logs),
            }
            atomic_write_text(
                self.dir / MANIFEST_NAME,
                json.dumps(header, indent=2, sort_keys=True),
            )
            self._snapshot_threads = len(self._logs)

    def on_implicit_task_begin(self, thread, region, slot) -> None:  # noqa: D102
        log = self._log_for(thread.gid)
        if log.stack:
            self._close_chunk(log)  # pause the outer interval
        log.stack.append(
            _IntervalTracker(
                pid=region.pid,
                ppid=region.ppid,
                slot=slot,
                span=region.span,
                level=region.level,
                bid=0,
                chunk_start=log.logical_pos(),
            )
        )
        log.buffer.append_event(KIND_PARALLEL_BEGIN, addr=region.pid)
        self.stats["events"] += 1

    def on_implicit_task_end(self, thread, region, slot) -> None:  # noqa: D102
        log = self._logs[thread.gid]
        log.buffer.append_event(KIND_PARALLEL_END, addr=region.pid)
        self.stats["events"] += 1
        self._close_chunk(log)
        tr = log.stack.pop()
        # The thread's final interval of this region (the post-barrier one
        # holding the region-end marker) is complete.
        self._notify_interval_end(
            thread.gid, region.pid, tr.bid, tr.slot, tr.span
        )
        if log.stack:
            # Resume the outer interval as a fresh chunk.
            log.stack[-1].chunk_start = log.logical_pos()
            log.carry = None

    def on_barrier_arrive(self, thread, region, bid) -> None:  # noqa: D102
        log = self._logs[thread.gid]
        log.buffer.append_event(KIND_BARRIER, addr=region.pid, aux=bid)
        self.stats["events"] += 1
        self._close_chunk(log)
        tr = log.stack[-1]
        self._notify_interval_end(thread.gid, region.pid, bid, tr.slot, tr.span)

    def on_barrier_depart(self, thread, region, new_bid) -> None:  # noqa: D102
        log = self._logs[thread.gid]
        tr = log.stack[-1]
        tr.bid = new_bid
        tr.chunk_start = log.logical_pos()
        log.carry = None

    def on_mutex_acquired(self, thread, mutex_id) -> None:  # noqa: D102
        log = self._log_for(thread.gid)
        if log.stack:
            log.buffer.append_event(KIND_MUTEX_ACQUIRED, addr=mutex_id)
            self.stats["events"] += 1

    def on_mutex_released(self, thread, mutex_id) -> None:  # noqa: D102
        log = self._log_for(thread.gid)
        if log.stack:
            log.buffer.append_event(KIND_MUTEX_RELEASED, addr=mutex_id)
            self.stats["events"] += 1

    def on_access(self, thread, access) -> None:  # noqa: D102
        log = self._log_for(thread.gid)
        log.buffer.append_access(access)
        self.stats["events"] += 1

    def on_access_batch(self, thread, batch) -> None:  # noqa: D102
        log = self._log_for(thread.gid)
        log.buffer.append_access_batch(batch)
        n = len(batch)
        self.stats["events"] += n
        self.stats["batched_events"] += n
        self._m_batched.inc(n)

    # -- tasking extension -----------------------------------------------------

    def on_task_create(self, thread, task) -> None:  # noqa: D102
        from ..tasking.graph import TaskInfo

        self._task_graph.add(
            TaskInfo(
                task_id=task.task_id,
                creator=task.creator_entity,
                creator_gid=task.creator_gid,
                pid=task.pid,
                bid=task.bid,
                create_seq=task.create_seq,
            )
        )

    def on_taskwait(self, thread, waited, new_seq) -> None:  # noqa: D102
        for task in waited:
            self._task_graph.set_wait(task.task_id, new_seq)

    def on_run_end(self, runtime) -> None:  # noqa: D102
        self.finalize()

    # -- finalisation --------------------------------------------------------------------

    def finalize(self) -> None:
        """Flush buffers, write meta files and run-wide tables (once:
        the buffers are released on the way, so a second call is a no-op)."""
        if self._finalized:
            return
        self._finalized = True
        with self.obs.tracer.span("finalize", category="online"):
            self._finalize()

    def _finalize(self) -> None:
        for log in self._logs.values():
            log.buffer.flush()  # seals the last pending rows
            log.buffer.release()
            log.file.close()
            if log.meta_file is not None:
                # Durable mode appended every row as it was emitted; the
                # meta file is complete on disk unless a dropped buffer
                # retracted some of its rows.
                log.meta_file.close()
                if log.meta_stale:
                    atomic_write_text(
                        self.dir / meta_name(log.gid),
                        format_meta_file(log.rows, durable=True),
                    )
            else:
                atomic_write_text(
                    self.dir / meta_name(log.gid), format_meta_file(log.rows)
                )
        atomic_write_text(
            self.dir / REGIONS_NAME,
            json.dumps(self._regions, indent=0, sort_keys=True),
        )
        atomic_write_text(
            self.dir / TASKS_NAME,
            json.dumps(self._task_graph.to_json(), indent=0, sort_keys=True),
        )
        if self._runtime is not None:
            self._runtime.mutexsets.save(self.dir / MUTEXSETS_NAME)
        manifest = dict(self.stats)
        manifest["format_version"] = TRACE_FORMAT_VERSION
        manifest["codec"] = self.config.codec
        manifest["buffer_events"] = self.config.buffer_events
        manifest["thread_gids"] = sorted(self._logs)
        if self._verdict_table.regions:
            manifest[STATIC_VERDICTS_KEY] = self._verdict_table.to_payload()
        if self.dropped_chunks:
            manifest["dropped_chunks"] = self.dropped_chunks
            manifest["lost_rows"] = self.lost_rows
        atomic_write_text(
            self.dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True),
        )
        for obs in self._observers:
            obs.on_trace_end(self)

    @property
    def per_thread_bytes(self) -> int:
        """The paper's ``B + C`` (~3.3 MB)."""
        return self.config.per_thread_bytes
