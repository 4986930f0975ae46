"""Run a workload with the streaming analyzer attached ("watch" mode).

This is the production deployment story of the streaming subsystem: the
application runs under the SWORD online tool, the analyzer rides the
flush-event bus, and confirmed races stream out while the program is
still going — no separate post-mortem pass.  The wall-clock comparison
(time to first race vs. run-then-analyze total) is what the streaming
benchmark measures.

With a live instrumentation bundle the watcher can also emit a periodic
one-line stats ticker (events, flushes, pairs, races, memory-bound
utilisation) while the run is in flight — the ``--stats-every`` flag of
``repro watch``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..common.config import (
    NodeConfig,
    RunConfig,
    SchedulerConfig,
    SwordConfig,
)
from ..common.errors import SimulatedOOMError
from ..memory.accounting import NodeMemory
from ..obs import Instrumentation, get_obs, run_stats, stats_line
from ..offline.options import AnalysisOptions
from ..offline.report import RaceSet
from ..omp.runtime import OpenMPRuntime
from ..sword.logger import SwordTool
from ..workloads.base import Workload
from .analyzer import StreamAnalyzer
from .bus import TraceObserver


@dataclass
class WatchResult:
    """Outcome of one watched run."""

    workload: str
    nthreads: int
    oom: bool = False
    races: Optional[RaceSet] = None
    #: Wall time of the whole watched run (application + inline analysis).
    elapsed_seconds: float = 0.0
    #: Seconds from run begin to the first confirmed race (None: no race).
    time_to_first_race: Optional[float] = None
    pairs_analyzed: int = 0
    stats: dict = field(default_factory=dict)
    #: Metrics-registry snapshot (empty under the null backend).
    metrics: dict = field(default_factory=dict)

    @property
    def race_count(self) -> int:
        return len(self.races) if self.races is not None else 0

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "nthreads": self.nthreads,
            "oom": self.oom,
            "races": self.races.to_json() if self.races is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "time_to_first_race": self.time_to_first_race,
            "pairs_analyzed": self.pairs_analyzed,
            "stats": self.stats,
            "metrics": self.metrics,
        }


class ResilientObserver(TraceObserver):
    """Shield the watched application from analyzer I/O failures.

    In production the trace directory can vanish mid-watch (log rotation,
    scratch-space cleanup, an NFS blip): an open reader then fails inside
    a bus notification, and without protection that exception unwinds
    *into the application's flush path* and kills the run — the exact
    outcome watch mode exists to avoid.

    This wrapper delivers each notification under the service-wide
    :class:`~repro.serve.retry.RetryPolicy` (bounded retry, exponential
    backoff), closing the inner analyzer's readers between attempts so
    stale handles on vanished files are reopened.  Every retry round
    counts on the ``watch.reconnects`` metric; if retries exhaust, the
    notification is dropped (the analysis under-reports, the
    application lives).
    """

    def __init__(
        self,
        inner: TraceObserver,
        obs: Optional[Instrumentation] = None,
        *,
        retries: int = 3,
        backoff_seconds: float = 0.01,
    ) -> None:
        self.inner = inner
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.reconnects = 0
        self.dropped_notifications = 0
        self._sleep = time.sleep  # test seam
        obs = obs or get_obs()
        self._m_reconnects = obs.registry.counter(
            "watch.reconnects",
            "watch-mode analyzer retries after trace I/O failures",
        )
        self._journal = obs.journal

    def _reset_readers(self) -> None:
        engine = getattr(self.inner, "engine", None)
        if engine is not None:
            try:
                engine.close()
            except Exception:
                pass

    def _count_reconnect(self) -> None:
        self.reconnects += 1
        self._m_reconnects.inc()
        self._journal.record("watch-reconnect", total=self.reconnects)

    def _deliver(self, method: str, *args) -> None:
        from ..serve.retry import TRANSIENT_ERRORS, RetryPolicy

        # Built per delivery so the knobs (and the `_sleep` test seam)
        # are read at call time, like the inlined loop this replaced.
        policy = RetryPolicy(
            retries=self.retries,
            backoff_seconds=self.backoff_seconds,
            sleep=self._sleep,
        )
        call = getattr(self.inner, method)
        try:
            policy.run(
                lambda: call(*args),
                on_retry=self._count_reconnect,
                reset=self._reset_readers,
            )
        except TRANSIENT_ERRORS:
            self.dropped_notifications += 1
            self._journal.record(
                "watch-drop", method=method, total=self.dropped_notifications
            )

    def on_trace_begin(self, producer) -> None:
        self._deliver("on_trace_begin", producer)

    def on_region(self, pid: int, info: dict) -> None:
        self._deliver("on_region", pid, info)

    def on_chunk(self, gid: int, row) -> None:
        self._deliver("on_chunk", gid, row)

    def on_interval_end(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> None:
        self._deliver("on_interval_end", gid, pid, bid, slot, span)

    def on_trace_end(self, producer) -> None:
        self._deliver("on_trace_end", producer)


class StatsTicker(TraceObserver):
    """Prints a compact registry stats line at most every ``interval`` s.

    Rides the same flush-event bus as the analyzer, so ticks land at
    chunk boundaries — the moments the registry was just updated.
    """

    def __init__(
        self, obs: Instrumentation, interval: float, emit=print
    ) -> None:
        self.obs = obs
        self.interval = max(0.0, interval)
        self.emit = emit
        self.lines = 0
        self._last = time.perf_counter()

    def on_chunk(self, gid: int, row) -> None:
        now = time.perf_counter()
        if now - self._last >= self.interval:
            self._last = now
            self.emit(stats_line(self.obs.registry.snapshot()))
            self.lines += 1


def watch(
    workload: Workload,
    *,
    nthreads: int = 8,
    seed: int = 0,
    node: Optional[NodeConfig] = None,
    yield_every: int = 0,
    sword_config: Optional[SwordConfig] = None,
    options: Optional[AnalysisOptions] = None,
    trace_dir: Optional[str] = None,
    keep_trace: bool = False,
    on_race=None,
    obs: Optional[Instrumentation] = None,
    stats_every: Optional[float] = None,
    on_stats=print,
    **params: Any,
) -> WatchResult:
    """Run ``workload`` with a live streaming analyzer subscribed.

    ``on_race(report)`` fires as each race is confirmed, while the
    application is still executing.  ``stats_every`` (seconds) turns on
    the periodic stats ticker, delivered through ``on_stats(line)``.
    """
    node = node or NodeConfig()
    obs = obs or get_obs()
    owns_dir = trace_dir is None
    trace_path = Path(trace_dir or tempfile.mkdtemp(prefix="sword-watch-"))
    result = WatchResult(workload=workload.name, nthreads=nthreads)
    try:
        config = sword_config or SwordConfig()
        config.log_dir = str(trace_path)
        accountant = NodeMemory(node.memory_limit)
        tool = SwordTool(config, accountant, obs=obs)
        analyzer = StreamAnalyzer(
            trace_path,
            options=options,
            on_race=on_race,
            obs=obs,
        )
        tool.subscribe(ResilientObserver(analyzer, obs=obs))
        if stats_every is not None:
            tool.subscribe(StatsTicker(obs, stats_every, emit=on_stats))
        rt = OpenMPRuntime(
            RunConfig(
                nthreads=nthreads,
                scheduler=SchedulerConfig(seed=seed, yield_every=yield_every),
                node=node,
            ),
            tool=tool,
            accountant=accountant,
        )
        t0 = time.perf_counter()
        with obs.tracer.span(
            "watch", category="run", workload=workload.name
        ):
            try:
                rt.run(lambda master: workload.run_program(master, **params))
            except SimulatedOOMError:
                result.oom = True
        result.elapsed_seconds = time.perf_counter() - t0
        result.time_to_first_race = analyzer.first_race_seconds
        result.pairs_analyzed = analyzer.pairs_analyzed
        analyses = {}
        if not result.oom:
            analysis = analyzer.result()
            result.races = analysis.races
            analyses["streaming"] = analysis.stats
        result.stats = run_stats(tool, analyses=analyses)
        result.metrics = obs.registry.snapshot()
        return result
    finally:
        if owns_dir and not keep_trace:
            shutil.rmtree(trace_path, ignore_errors=True)
