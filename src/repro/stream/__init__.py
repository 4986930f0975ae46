"""SWORD streaming subsystem: race analysis that races the application.

The post-mortem pipeline waits for the run to finish before any offline
work starts.  This package closes that gap: the online logger publishes
flush events as the trace is produced (:mod:`repro.stream.bus`), and a
streaming analyzer grows the offline phase's interval inventory
(:class:`~repro.offline.intervals.IntervalInventory`) row by row, takes
each comparison the moment it is sound, and drives the shared analysis
engine over it, reporting races while the application is still running
(:mod:`repro.stream.analyzer`); :mod:`repro.stream.watch` is the
one-call watch mode.
"""

from .analyzer import LiveTraceSource, StreamAnalyzer, replay_analyze
from .bus import TraceObserver, replay_trace
from .watch import WatchResult, watch

__all__ = [
    "LiveTraceSource",
    "StreamAnalyzer",
    "TraceObserver",
    "WatchResult",
    "replay_analyze",
    "replay_trace",
    "watch",
]
