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

Steps 2-3 live in the shared :class:`~repro.offline.engine.AnalysisEngine`;
this module is the post-mortem driver around it (the distributed and
streaming paths are the analysis service's shard pool, :mod:`repro.serve`,
and :mod:`repro.stream.analyzer`).

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
    "SerialOfflineAnalyzer",
    "analyze_trace",
    "check_node_pair",
    "reference_analyze",
]


class SerialOfflineAnalyzer:
    """Single-node post-mortem analysis driver."""

    def __init__(
        self,
        trace: TraceDir | str | os.PathLike,
        *,
        options: AnalysisOptions | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        self.options = options or AnalysisOptions()
        if not isinstance(trace, TraceDir):
            trace = TraceDir(trace, integrity=self.options.integrity)
        elif trace.integrity_mode != self.options.integrity:
            # An already-open TraceDir wins: align the options so the
            # engine and the trace agree on the mode.
            self.options = self.options.copy(integrity=trace.integrity_mode)
        self.trace = trace
        self.salvage = self.options.integrity == "salvage"
        self.obs = obs or self.options.obs or get_obs()
        self.engine = AnalysisEngine(trace, options=self.options, obs=self.obs)

    @property
    def stats(self) -> AnalysisStats:
        return self.engine.stats

    def __enter__(self) -> "SerialOfflineAnalyzer":
        return self

    def __exit__(self, *exc) -> None:
        self.engine.close()

    # -- driver ----------------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        """Run the complete offline analysis for this trace."""
        registry = self.obs.registry
        with self.obs.tracer.span("offline", category="offline"):
            t0 = time.perf_counter()
            with self.obs.tracer.span("metadata-scan", category="offline"):
                inventory = IntervalInventory(self.trace)
                pairs = list(inventory.concurrent_pairs())
            self.stats.intervals = len(inventory)
            self.stats.concurrent_pairs = len(pairs)
            self.stats.plan_seconds = time.perf_counter() - t0
            registry.gauge("offline.intervals").set(len(inventory))
            registry.gauge("offline.concurrent_pairs").set(len(pairs))

            races = RaceSet()
            report = self.trace.integrity if self.salvage else None
            # Verdict-table contribution first: synthesised DEFINITE_RACE
            # witnesses exist *instead of* events, so they are part of
            # the race set, not an optimisation.
            self.engine.apply_static_verdicts(races)
            try:
                for ia, ib in pairs:
                    if not self.salvage:
                        self.engine.analyze_pair(ia, ib, races)
                        continue
                    try:
                        self.engine.analyze_pair(ia, ib, races)
                    except Exception as exc:  # salvage must always complete
                        report.pairs_skipped += 1
                        report.note(
                            f"pair ({ia.key.gid},{ia.key.pid},{ia.key.bid}) x "
                            f"({ib.key.gid},{ib.key.pid},{ib.key.bid}) "
                            f"abandoned: {exc}"
                        )
                        registry.counter("offline.pairs_skipped").inc()
            finally:
                self.engine.close()
            if self.salvage:
                salvaged = self.stats.concurrent_pairs - report.pairs_skipped
                registry.counter("offline.intervals_salvaged").inc(
                    len(inventory)
                )
                registry.gauge("offline.pairs_salvaged").set(salvaged)
        self.stats.races_found = len(races)
        return AnalysisResult(races=races, stats=self.stats, integrity=report)


def analyze_trace(
    path: str | os.PathLike | TraceDir,
    *,
    options: AnalysisOptions | None = None,
    obs: Instrumentation | None = None,
) -> AnalysisResult:
    """Convenience: open a trace directory and analyze it."""
    return SerialOfflineAnalyzer(path, options=options, obs=obs).analyze()


class _ReferenceEngine(AnalysisEngine):
    """The engine without its cascade (see :func:`reference_analyze`)."""

    def analyze_pair(self, ia, ib, races, on_race=None) -> None:
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

    The serial driver, salvage handling, static verdict injection and
    witness rule (:meth:`AnalysisEngine._orient`) of :func:`analyze_trace`,
    but every concurrent pair's trees are built and compared node by node
    with the un-memoized solver: no digest prune, no result cache, no
    columnar join.  No production caller.
    """
    analyzer = SerialOfflineAnalyzer(
        trace, options=AnalysisOptions(integrity=integrity)
    )
    analyzer.engine = _ReferenceEngine(
        analyzer.trace, options=analyzer.options, obs=analyzer.obs
    )
    return analyzer.analyze()
