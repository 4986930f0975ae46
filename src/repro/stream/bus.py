"""The flush-event bus protocol between the online logger and observers.

The online tool (:class:`~repro.sword.logger.SwordTool`) publishes the
trace *as it is produced*: region registrations, every Table-I chunk row
the moment it is durable on disk, and barrier-interval completions.  A
:class:`TraceObserver` receives those notifications; the streaming
analyzer subclasses it to race the application to the finish line.

:func:`replay_trace` re-emits the same notification sequence from a
*closed* trace directory, so every consumer (and its tests) can run
identically post-mortem.
"""

from __future__ import annotations

from ..sword.reader import TraceDir
from ..sword.traceformat import MetaRow


class TraceObserver:
    """Base class for flush-event subscribers; every hook is a no-op.

    Hook order guarantees (live and replayed):

    * ``on_trace_begin`` precedes everything else;
    * ``on_region(pid, ...)`` precedes every chunk/interval notification
      mentioning ``pid`` (and the regions of all its descendants);
    * ``on_chunk(gid, row)`` rows of one ``gid`` arrive in log order, and
      the chunk's data is already readable on disk when notified;
    * ``on_interval_end(gid, pid, bid, ...)`` follows the last chunk of
      that interval;
    * ``on_trace_end`` follows everything, after the trace is finalised.
    """

    def on_trace_begin(self, producer) -> None:
        """The run (or replay) starts; ``producer`` exposes the trace state.

        Live, ``producer`` is the :class:`~repro.sword.logger.SwordTool`
        (``.runtime.mutexsets`` / ``.task_graph`` are its live tables);
        replayed, it is the :class:`~repro.sword.reader.TraceDir`.
        """

    def on_region(self, pid: int, info: dict) -> None:
        """A parallel region was forked (``info`` is its regions-table row)."""

    def on_chunk(self, gid: int, row: MetaRow) -> None:
        """Thread ``gid`` closed one Table-I chunk; its bytes are on disk."""

    def on_interval_end(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> None:
        """Thread ``gid`` completed barrier interval ``(pid, bid)``."""

    def on_trace_end(self, producer) -> None:
        """The run (or replay) is over and the trace directory is complete."""


def replay_trace(trace: TraceDir, observer: TraceObserver) -> None:
    """Re-emit a closed trace's notification sequence to ``observer``.

    Regions are announced first (parents before children — region ids are
    assigned in fork order), then each thread's meta rows in log order
    with an ``on_interval_end`` after the last row of every interval.
    The interleaving *across* threads is not the original one (threads
    are replayed whole), but no observer contract depends on it.
    """
    observer.on_trace_begin(trace)
    for pid in sorted(trace.regions):
        observer.on_region(pid, trace.regions[pid])
    for gid in trace.thread_gids:
        reader = trace.reader(gid)
        try:
            rows = reader.rows
        finally:
            reader.close()
        last_index: dict[tuple[int, int], int] = {
            (row.pid, row.bid): i for i, row in enumerate(rows)
        }
        for i, row in enumerate(rows):
            observer.on_chunk(gid, row)
            if last_index[(row.pid, row.bid)] == i:
                observer.on_interval_end(
                    gid, row.pid, row.bid, row.offset, row.span
                )
    observer.on_trace_end(trace)
