"""The offline race-detection driver (paper §III-B).

Pipeline per trace directory:

1. parse metadata, reconstruct the concurrency structure, plan the
   concurrent interval pairs (:mod:`repro.offline.intervals`);
2. per interval, stream its log chunks and coalesce them into a summarised
   interval tree (:mod:`repro.itree.builder`) — a sorted array of strided
   intervals, built once; trees are cached with a bounded LRU so the pass
   stays memory-bounded on large traces;
3. per concurrent pair, probe one tree with every interval of the other for
   byte-extent overlaps (two bisections a probe, or one blocked join over
   the trees' column views), refining every candidate with the exact
   Diophantine/ILP check, the mutex-set disjointness test, and the
   write/atomic conditions;
4. deduplicate into :class:`~repro.offline.report.RaceSet` by pc pair.

Steps 2-3 live in the shared :class:`~repro.offline.engine.AnalysisEngine`,
which also applies the salvage rule to every pair; this module is the
post-mortem driver around it, :func:`analyze_trace` (the distributed and
streaming drivers are the analysis service's shard pool,
:mod:`repro.serve`, and :mod:`repro.stream.analyzer`).  Step 1's pairs come
from the inventory's one emitter, exactly as streaming gets them.

The supported entry point is :func:`repro.api.analyze`.
"""

from __future__ import annotations

import os
import time

from ..obs import Instrumentation, get_obs
from ..sword.reader import TraceDir
from .engine import (
    AnalysisEngine,
    AnalysisResult,
    AnalysisStats,
    check_node_pair,
)
from .intervals import IntervalInventory
from .options import AnalysisOptions
from .report import RaceSet

__all__ = [
    "AnalysisResult",
    "AnalysisStats",
    "analyze_trace",
    "check_node_pair",
    "reference_analyze",
]


def analyze_trace(
    path: str | os.PathLike | TraceDir,
    *,
    options: AnalysisOptions | None = None,
    obs: Instrumentation | None = None,
) -> AnalysisResult:
    """Open a trace directory (unless given an open one) and analyze it
    serially: inventory, static verdicts, then every concurrent pair."""
    return _drive(AnalysisEngine, path, options, obs)


def _drive(engine_type, trace, options, obs) -> AnalysisResult:
    options = options or AnalysisOptions()
    if not isinstance(trace, TraceDir):
        trace = TraceDir(trace, integrity=options.integrity)
    elif trace.integrity_mode != options.integrity:
        # An already-open TraceDir wins: align the options so the
        # engine and the trace agree on the mode.
        options = options.copy(integrity=trace.integrity_mode)
    obs = obs or options.obs or get_obs()
    engine = engine_type(trace, options=options, obs=obs)
    stats = engine.stats
    with obs.tracer.span("offline", category="offline"):
        t0 = time.perf_counter()
        with obs.tracer.span("metadata-scan", category="offline"):
            inventory = IntervalInventory(trace)
            pairs = inventory.concurrent_pairs()
        stats.intervals = len(inventory)
        stats.concurrent_pairs = len(pairs)
        stats.plan_seconds = time.perf_counter() - t0
        obs.registry.gauge("offline.intervals").set(len(inventory))
        obs.registry.gauge("offline.concurrent_pairs").set(len(pairs))
        races = RaceSet()
        # Verdict-table contribution first: synthesised DEFINITE_RACE
        # witnesses exist *instead of* events, so they are part of the
        # race set, not an optimisation.
        engine.apply_static_verdicts(races)
        try:
            for ia, ib in pairs:
                engine.analyze_pair(ia, ib, races)
        finally:
            engine.close()
    stats.races_found = len(races)
    report = None
    if engine.abandoned is not None:
        report = trace.integrity
        report.merge(engine.abandoned)
    return AnalysisResult(races=races, stats=stats, integrity=report)


class _ReferenceEngine(AnalysisEngine):
    """The engine without its cascade (see :func:`reference_analyze`)."""

    def _cascade(self, ia, ib, races, on_race) -> None:
        tree_a, tree_b = self.build_tree(ia), self.build_tree(ib)
        tree_a, tree_b, ia, ib, use_tasks = self._orient(tree_a, tree_b, ia, ib)
        t0 = time.perf_counter()
        try:
            self._compare_scalar(
                tree_a, tree_b, ia, ib, races, on_race, sink=None,
                use_tasks=use_tasks, memo=None,
            )
        finally:
            self.stats.compare_seconds += time.perf_counter() - t0


def reference_analyze(
    trace: TraceDir | str | os.PathLike, *, integrity: str = "strict"
) -> AnalysisResult:
    """The analysis without its cascade: the parity suites' reference.

    :func:`analyze_trace`'s driver, salvage rule, static verdict
    injection and witness rule (:meth:`AnalysisEngine._orient`), but
    every concurrent pair's trees are built and compared node by node
    with the un-memoized solver: no digest prune, no result cache, no
    columnar join.  No production caller.
    """
    return _drive(
        _ReferenceEngine, trace, AnalysisOptions(integrity=integrity), None
    )
