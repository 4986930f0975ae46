"""SWORD streaming subsystem: race analysis that races the application.

The post-mortem pipeline waits for the run to finish before any offline
work starts.  This package closes that gap: the online logger publishes
flush events as the trace is produced (:mod:`repro.stream.bus`), and a
streaming analyzer grows the offline phase's interval inventory
(:class:`~repro.offline.intervals.IntervalInventory`) row by row, takes
each comparison the moment it is sound, and drives the shared analysis
engine over it, reporting races while the application is still running
(:mod:`repro.stream.analyzer`), with resumable checkpoints
(:mod:`repro.stream.checkpoint`) and a one-call watch mode
(:mod:`repro.stream.watch`).
"""

from .analyzer import (
    LiveTraceSource,
    StreamAnalyzer,
    StreamingInterrupted,
    replay_analyze,
)
from .bus import TraceObserver, replay_trace
from .checkpoint import Checkpoint, pair_key
from .watch import WatchResult, watch

__all__ = [
    "Checkpoint",
    "LiveTraceSource",
    "StreamAnalyzer",
    "StreamingInterrupted",
    "TraceObserver",
    "WatchResult",
    "pair_key",
    "replay_analyze",
    "replay_trace",
    "watch",
]
