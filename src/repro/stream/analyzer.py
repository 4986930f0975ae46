"""The streaming race analyzer: analysis racing the application.

A :class:`StreamAnalyzer` subscribes to the online tool's flush-event
bus, grows an :class:`~repro.offline.intervals.IntervalInventory` (the
batch modes' planner) row by row, and drives the shared
:class:`~repro.offline.engine.AnalysisEngine` over each pair the inventory
declares ready — while the traced program is still running.
Races are reported the moment they are confirmed (the live feed), and by
program end most of the offline work is already done.

The final race set is byte-identical to the post-mortem analyzers': the
engine deduplicates per comparison only and the
:class:`~repro.offline.report.RaceSet` keeps the canonical witness, so
pair order (the only thing streaming changes) cannot show through.

A replayed salvage trace is read with salvage readers into its own
:class:`~repro.sword.integrity.IntegrityReport`, into which trace end
folds the pairs the engine abandoned.

An interrupted analysis resumes by rerunning it with
``fastpath.result_cache`` on: decided pairs replay from the pair store.
"""

from __future__ import annotations

import time
from pathlib import Path
from time import perf_counter

from ..obs import Instrumentation, get_obs
from ..offline.engine import AnalysisEngine, AnalysisResult, AnalysisStats
from ..offline.intervals import IntervalInventory, Pair
from ..offline.options import AnalysisOptions
from ..offline.report import RaceSet
from ..sword.reader import ThreadTraceReader, TraceDir
from .bus import TraceObserver, replay_trace


class LiveTraceSource:
    """Engine trace source over a directory still being written.

    ``mutexsets`` and ``task_graph`` are bound at trace begin — to the
    runtime's live tables when observing a run, or to the closed trace's
    loaded tables (and its integrity mode and report) when replaying.
    ``regions`` grows as regions fork.
    """

    def __init__(self, directory: str | Path, *, live: bool = True) -> None:
        self.directory = Path(directory)
        self.live = live
        self.regions: dict[int, dict] = {}
        self.mutexsets = None
        self.task_graph = None
        self.integrity_mode = "strict"
        self.integrity = None

    def reader(self, gid: int) -> ThreadTraceReader:
        salvage = self.integrity_mode == "salvage"
        return ThreadTraceReader(
            self.directory, gid, live=self.live,
            integrity=self.integrity_mode,
            report=self.integrity.thread(gid) if salvage else None,
        )


class StreamAnalyzer(TraceObserver):
    """Incremental analysis over the flush-event bus.

    Args:
        directory: the trace directory being produced (or replayed).
        options: unified :class:`AnalysisOptions`.
        on_race: live feed — called with each :class:`RaceReport` the
            first time its pc pair is confirmed.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        options: AnalysisOptions | None = None,
        on_race=None,
        obs: Instrumentation | None = None,
    ) -> None:
        self.directory = Path(directory)
        options = (
            options.copy() if options is not None else AnalysisOptions()
        )
        options.validate()
        self.options = options
        self.obs = obs or options.obs or get_obs()
        self.on_race = on_race
        registry = self.obs.registry
        self._m_pairs = registry.counter(
            "stream.pairs_analyzed", "interval pairs analyzed live"
        )
        self._m_races = registry.gauge(
            "stream.races", "confirmed races so far"
        )
        self._m_first_race = registry.gauge(
            "stream.first_race_seconds", "time to first confirmed race"
        )
        self.races = RaceSet()
        self.source = LiveTraceSource(self.directory)
        self.inventory = IntervalInventory(self.source, load=False)
        self.pairs_planned = 0
        #: The serial driver's ``plan_seconds``: the inventory's time,
        #: paid call by call.
        self.plan_seconds = 0.0
        self.engine: AnalysisEngine | None = None
        self.pairs_analyzed = 0
        self.first_race_seconds: float | None = None
        self.finished = False
        self._t0: float | None = None
        #: The trace producer (live SwordTool or replayed TraceDir) —
        #: its static verdict table is read lazily at result time, when
        #: a live run's table is complete.
        self._producer = None

    # -- wiring -----------------------------------------------------------------

    def _race_seen(self, report) -> None:
        if self.first_race_seconds is None and self._t0 is not None:
            self.first_race_seconds = time.perf_counter() - self._t0
            self._m_first_race.set(self.first_race_seconds)
        self._m_races.set(len(self.races))
        if self.on_race is not None:
            self.on_race(report)

    # -- TraceObserver hooks ------------------------------------------------------

    def on_trace_begin(self, producer) -> None:
        self._t0 = time.perf_counter()
        self._producer = producer
        runtime = getattr(producer, "runtime", None)
        if runtime is not None:
            # Live run: bind the runtime's growing tables.  Mutex-set ids
            # are interned before any event referencing them is logged,
            # and task-graph verdicts for a (pid, bid) group are final
            # once the group seals, so reading the live tables is sound.
            self.source.mutexsets = runtime.mutexsets
            self.source.task_graph = producer.task_graph
            self.source.live = True
            # A log still being written is read strict.
            self.options = self.options.copy(integrity="strict")
        else:
            # Replay of a closed TraceDir: its integrity mode wins, and
            # its report is the one salvage fills.
            self.source.mutexsets = producer.mutexsets
            self.source.task_graph = producer.task_graph
            self.source.live = False
            self.source.integrity_mode = producer.integrity_mode
            self.source.integrity = producer.integrity
            self.options = self.options.copy(integrity=producer.integrity_mode)
        self.engine = AnalysisEngine(
            self.source,
            options=self.options,
            obs=self.obs,
        )

    def on_region(self, pid: int, info: dict) -> None:
        self.inventory.add_region(pid, info)

    def on_chunk(self, gid: int, row) -> None:
        t0 = perf_counter()
        self.inventory.add_row(gid, row)
        self.plan_seconds += perf_counter() - t0

    def on_interval_end(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> None:
        t0 = perf_counter()
        pairs = self.inventory.complete(gid, pid, bid, slot, span)
        self.plan_seconds += perf_counter() - t0
        self._process(pairs)

    def on_trace_end(self, producer) -> None:
        t0 = perf_counter()
        pairs = self.inventory.finish()
        self.plan_seconds += perf_counter() - t0
        self._process(pairs)
        self.finished = True
        if self.engine is not None:
            self.engine.close()
            if self.engine.abandoned is not None:
                self.source.integrity.merge(self.engine.abandoned)

    # -- pair processing -----------------------------------------------------------

    def _process(self, pairs: list[Pair]) -> None:
        assert self.engine is not None, "on_trace_begin not delivered"
        self.pairs_planned += len(pairs)
        for ia, ib in pairs:
            self.engine.analyze_pair(
                ia, ib, self.races, on_race=self._race_seen
            )
            self.pairs_analyzed += 1
            self._m_pairs.inc()

    # -- results ------------------------------------------------------------------

    def result(self) -> AnalysisResult:
        """Races and stats accumulated so far (final after trace end)."""
        stats = self.engine.stats if self.engine is not None else AnalysisStats()
        if self.engine is not None:
            # Fold in the producer's verdict table (read lazily: a live
            # tool's table only completes as regions register).  The
            # injection is idempotent under RaceSet's canonical merge.
            self.engine.apply_static_verdicts(
                self.races,
                on_race=self._race_seen,
                table=getattr(self._producer, "static_verdicts", None),
            )
        stats.intervals = len(self.inventory)
        stats.concurrent_pairs = self.pairs_planned
        stats.plan_seconds = self.plan_seconds
        stats.races_found = len(self.races)
        salvage = self.options.integrity == "salvage"
        integrity = self.source.integrity if salvage else None
        return AnalysisResult(races=self.races, stats=stats, integrity=integrity)


def replay_analyze(
    trace: TraceDir | str | Path,
    *,
    options: AnalysisOptions | None = None,
    on_race=None,
    obs: Instrumentation | None = None,
) -> AnalysisResult:
    """Run the streaming analyzer over a closed trace."""
    if not isinstance(trace, TraceDir):
        trace = TraceDir(
            trace, integrity=options.integrity if options else "strict"
        )
    analyzer = StreamAnalyzer(
        trace.path,
        options=options,
        on_race=on_race,
        obs=obs,
    )
    replay_trace(trace, analyzer)
    return analyzer.result()
