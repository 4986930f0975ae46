"""The supported public API: detect, analyze, watch, and Session.

One facade over the whole pipeline.  Every flow the CLI exposes routes
through here; what runs each mode (``analyze_trace``, the one-job
:class:`Service` behind ``mode="parallel"``, ``StreamAnalyzer``) is
implementation detail.

Quick tour::

    import repro.api as sword

    # Run a registered workload under a tool and get races + overheads.
    result = sword.detect("c_md", tool="sword", nthreads=8)

    # Post-mortem analysis of an existing trace directory.
    analysis = sword.analyze("/tmp/trace", mode="parallel",
                             options=sword.AnalysisOptions(workers=4))

    # Watch mode: races stream out while the program runs.
    watched = sword.watch(my_workload, nthreads=8,
                          on_race=lambda r: print(r.describe()))

    # Incremental session over a trace you produce yourself.
    with sword.Session(trace_dir) as session:
        tool = SwordTool(SwordConfig(log_dir=str(trace_dir)))
        session.attach(tool)
        ...  # run the program under `tool`
        print(session.result().races.describe_all())

All three analysis modes produce byte-identical race sets, each running
the one pair-decision cascade (frame-digest prune → pair cache → build
+ compare) — one :class:`~repro.offline.options.AnalysisOptions`
carrying one :class:`~repro.offline.options.FastPathOptions` configures
all of it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from .common.config import NodeConfig, SwordConfig
from .harness.tools import RunResult, driver
from .obs import Instrumentation
from .offline.analyzer import analyze_trace
from .offline.engine import AnalysisResult
from .offline.options import AnalysisOptions, FastPathOptions
from .offline.report import RaceSet
from .serve import (
    DegradationReport,
    JobWal,
    QuarantinedShard,
    ServeConfig,
    Service,
    TenantQuota,
    analyze_once,
    replay_wal,
)
from .stream.analyzer import StreamAnalyzer, replay_analyze
from .stream.bus import replay_trace
from .stream.watch import WatchResult
from .stream.watch import watch as _watch
from .sword.reader import TraceDir
from .workloads import REGISTRY
from .workloads.base import Workload

__all__ = [
    "JSON_SCHEMA_VERSION",
    "AnalysisOptions",
    "AnalysisResult",
    "DegradationReport",
    "FastPathOptions",
    "JobWal",
    "QuarantinedShard",
    "RunResult",
    "ServeConfig",
    "Service",
    "Session",
    "TenantQuota",
    "WatchResult",
    "analyze",
    "detect",
    "replay_wal",
    "watch",
]

#: Version of every ``--json`` payload the CLI emits (check/analyze/
#: watch).  Bumped on any breaking change to the payload layout; the
#: schema itself is documented in DESIGN.md.
JSON_SCHEMA_VERSION = 2

ANALYSIS_MODES = ("auto", "serial", "parallel", "streaming")


def default_workers() -> int:
    """Worker count mirroring "one core per thread tree" (capped sanely)."""
    return max(2, min(8, os.cpu_count() or 2))


def _resolve_workload(workload: Union[str, Workload]) -> Workload:
    if isinstance(workload, str):
        return REGISTRY.get(workload)
    return workload


def detect(
    workload: Union[str, Workload],
    *,
    tool: str = "sword",
    nthreads: int = 8,
    seed: int = 0,
    node: Optional[NodeConfig] = None,
    options: Optional[AnalysisOptions] = None,
    sword_config: Optional[SwordConfig] = None,
    obs: Optional[Instrumentation] = None,
    **params,
) -> RunResult:
    """Run one workload under one tool and return races + overheads.

    ``workload`` is a registry name (see ``repro.workloads.REGISTRY``) or
    a :class:`Workload` instance.  ``options`` tunes SWORD's offline
    phase (ignored by the other tools, which have no offline phase), and
    ``sword_config`` its online phase — e.g.
    ``SwordConfig(static_prescreen=False)`` for the ``--no-static``
    escape hatch.  Extra keyword arguments are forwarded to the
    workload's program.
    """
    w = _resolve_workload(workload)
    kwargs = dict(
        nthreads=nthreads,
        seed=seed,
        node=node or NodeConfig(),
        obs=obs,
        **params,
    )
    if tool == "sword":
        kwargs["analysis_options"] = options
        if sword_config is not None:
            kwargs["sword_config"] = sword_config
        if options is not None and options.workers > 1:
            kwargs["mt_workers"] = options.workers
    return driver(tool).run(w, **kwargs)


def analyze(
    trace: Union[str, os.PathLike, TraceDir],
    *,
    mode: str = "auto",
    integrity: str = "strict",
    options: Optional[AnalysisOptions] = None,
    obs: Optional[Instrumentation] = None,
) -> AnalysisResult:
    """Offline-analyze an existing SWORD trace directory.

    Modes: ``serial`` (one process), ``parallel`` (one job on a
    short-lived :class:`Service` with ``options.workers`` process
    workers; a failed shard raises ``JobFailedError``), ``streaming``
    (replay the trace through the incremental analyzer), or ``auto``
    (parallel when ``options.workers > 1``, serial otherwise).  All
    modes return byte-identical race sets.  With
    ``options.fastpath.result_cache`` on, any mode resumes an
    interrupted analysis: decided pairs replay from the pair store.

    ``integrity="salvage"`` analyses a damaged trace (crashed run,
    corrupted files): every defect truncates or skips instead of
    raising, the result carries an
    :class:`~repro.sword.integrity.IntegrityReport`, and the returned
    race set is a subset of what the undamaged trace would yield.
    Salvage runs in every mode, with the same result: the engine
    abandons a pair that raises, whichever driver handed it over.
    """
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r}; expected one of {ANALYSIS_MODES}"
        )
    options = options or AnalysisOptions()
    if integrity != "strict":
        options = options.copy(integrity=integrity)
    if mode == "auto":
        mode = "parallel" if options.workers > 1 else "serial"
    if mode == "parallel":
        if options.workers <= 1:
            options = options.copy(workers=default_workers())
        # The service's planner opens the trace itself.
        path = trace.path if isinstance(trace, TraceDir) else trace
        return analyze_once(path, options=options, obs=obs)
    if mode == "serial":
        return analyze_trace(trace, options=options, obs=obs)
    return replay_analyze(trace, options=options, obs=obs)


def watch(
    workload: Union[str, Workload],
    *,
    nthreads: int = 8,
    seed: int = 0,
    options: Optional[AnalysisOptions] = None,
    on_race=None,
    obs: Optional[Instrumentation] = None,
    stats_every: Optional[float] = None,
    on_stats=print,
    **params,
) -> WatchResult:
    """Run a workload with the streaming analyzer attached (watch mode).

    ``on_race(report)`` fires the moment each race is confirmed, while
    the program is still executing.  See :func:`repro.stream.watch.watch`
    for the full keyword surface; this facade forwards ``**params``.
    """
    return _watch(
        _resolve_workload(workload),
        nthreads=nthreads,
        seed=seed,
        options=options,
        on_race=on_race,
        obs=obs,
        stats_every=stats_every,
        on_stats=on_stats,
        **params,
    )


class Session:
    """Watch-style incremental analysis over one trace directory.

    Two ways to use it:

    * **live** — create the session, :meth:`attach` it to a
      :class:`~repro.sword.logger.SwordTool` before running the program,
      and read :meth:`result` when done; races stream through
      ``on_race`` as they are confirmed;
    * **replay** — point it at a closed trace directory and call
      :meth:`analyze`; with ``options.fastpath.result_cache`` on, a
      session rerun over an interrupted analysis's trace resumes
      instead of starting over: unchanged intervals and pairs are
      served from the persistent cache.
    """

    def __init__(
        self,
        trace_dir: Union[str, os.PathLike],
        *,
        options: Optional[AnalysisOptions] = None,
        on_race=None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.trace_dir = Path(trace_dir)
        self.options = options or AnalysisOptions()
        self._analyzer = StreamAnalyzer(
            self.trace_dir,
            options=self.options,
            on_race=on_race,
            obs=obs,
        )

    # -- live use -----------------------------------------------------------------

    def attach(self, tool) -> "Session":
        """Subscribe this session's analyzer to an online tool's bus."""
        tool.subscribe(self._analyzer)
        return self

    @property
    def races(self) -> RaceSet:
        """Races confirmed so far (live view)."""
        return self._analyzer.races

    @property
    def pairs_analyzed(self) -> int:
        return self._analyzer.pairs_analyzed

    def result(self) -> AnalysisResult:
        """Races plus stats accumulated so far (final after the run)."""
        return self._analyzer.result()

    # -- replay use ---------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        """Replay the (closed) trace through this session's analyzer."""
        replay_trace(
            TraceDir(self.trace_dir, integrity=self.options.integrity),
            self._analyzer,
        )
        return self._analyzer.result()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._analyzer.engine is not None:
            self._analyzer.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
