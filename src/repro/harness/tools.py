"""Tool drivers: run one workload under baseline / archer / archer-low / sword.

Mirrors the paper's four experimental configurations (§IV):

* ``baseline``   — the workload with race checking disabled;
* ``archer``     — the happens-before tool, default configuration;
* ``archer-low`` — ARCHER with the shadow-flush option ("flush shadow");
* ``sword``      — online collection, then the offline analysis (whose
  serial OA and distributed MT costs are reported separately, as in
  Tables III/V).

Every run gets a fresh runtime, address space, and node-memory accountant,
and returns a uniform :class:`RunResult` the experiment modules aggregate.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..archer.tool import ArcherTool
from ..common.config import (
    ArcherConfig,
    NodeConfig,
    RunConfig,
    SchedulerConfig,
    SwordConfig,
)
from ..common.errors import SimulatedOOMError
from ..memory.accounting import NodeMemory
from ..obs import Instrumentation, get_obs, run_stats
from ..offline.analyzer import analyze_trace
from ..offline.options import AnalysisOptions
from ..offline.report import RaceSet
from ..omp.runtime import OpenMPRuntime
from ..serve.service import analyze_once
from ..sword.logger import SwordTool
from ..sword.reader import TraceDir
from ..workloads.base import Workload

TOOL_NAMES = ("baseline", "archer", "archer-low", "sword")


@dataclass
class RunResult:
    """Uniform outcome of one (workload, tool, config) execution."""

    workload: str
    tool: str
    nthreads: int
    oom: bool = False
    races: Optional[RaceSet] = None
    dynamic_seconds: float = 0.0
    offline_seconds: float = 0.0       # SWORD serial offline analysis (OA)
    offline_mt_seconds: float = 0.0    # SWORD distributed offline (MT)
    app_bytes: int = 0                 # peak application footprint
    tool_bytes: int = 0                # peak tool + shadow footprint
    total_bytes: int = 0               # peak node usage
    trace_bytes: int = 0               # compressed log volume (sword)
    stats: dict = field(default_factory=dict)
    #: Metrics-registry snapshot (empty under the null backend).
    metrics: dict = field(default_factory=dict)
    #: Salvage-mode ledger (None for strict runs) — see
    #: :class:`repro.sword.integrity.IntegrityReport`.
    integrity: Optional[object] = None

    @property
    def race_count(self) -> int:
        return len(self.races) if self.races is not None else 0

    @property
    def race_pairs(self) -> set:
        return self.races.pc_pairs() if self.races is not None else set()

    @property
    def memory_overhead(self) -> float:
        """Tool bytes over application bytes (the Figures' metric)."""
        return self.tool_bytes / self.app_bytes if self.app_bytes else 0.0

    @property
    def total_seconds(self) -> float:
        """Dynamic plus (serial) offline time."""
        return self.dynamic_seconds + self.offline_seconds


def _execute(
    workload: Workload,
    tool,
    *,
    nthreads: int,
    seed: int,
    node: NodeConfig,
    yield_every: int,
    params: dict,
) -> tuple[OpenMPRuntime, NodeMemory, float, bool]:
    """Run the model program once; returns (runtime, accountant, secs, oom)."""
    accountant = NodeMemory(node.memory_limit)
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
    oom = False
    try:
        rt.run(lambda master: workload.run_program(master, **params))
    except SimulatedOOMError:
        oom = True
    elapsed = time.perf_counter() - t0
    return rt, accountant, elapsed, oom


def _fill_memory(result: RunResult, accountant: NodeMemory) -> None:
    snap = accountant.snapshot()
    result.app_bytes = snap.by_category_peak.get(NodeMemory.APP, 0)
    result.tool_bytes = snap.by_category_peak.get(
        NodeMemory.TOOL, 0
    ) + snap.by_category_peak.get(NodeMemory.SHADOW, 0)
    result.total_bytes = snap.peak_total


class BaselineDriver:
    """Race checking disabled — the denominator of every overhead figure."""

    name = "baseline"

    def run(
        self,
        workload: Workload,
        *,
        nthreads: int = 8,
        seed: int = 0,
        node: Optional[NodeConfig] = None,
        yield_every: int = 0,
        obs: Optional[Instrumentation] = None,
        **params: Any,
    ) -> RunResult:
        node = node or NodeConfig()
        obs = obs or get_obs()
        result = RunResult(workload=workload.name, tool=self.name, nthreads=nthreads)
        with obs.tracer.span(
            "run", category="run", workload=workload.name, tool=self.name
        ):
            _rt, accountant, secs, oom = _execute(
                workload, None, nthreads=nthreads, seed=seed, node=node,
                yield_every=yield_every, params=params,
            )
        result.dynamic_seconds = secs
        result.oom = oom
        _fill_memory(result, accountant)
        result.metrics = obs.registry.snapshot()
        return result


class ArcherDriver:
    """The happens-before baseline tool, default or low-memory flavour."""

    def __init__(self, flush_shadow: bool = False) -> None:
        self.flush_shadow = flush_shadow
        self.name = "archer-low" if flush_shadow else "archer"

    def run(
        self,
        workload: Workload,
        *,
        nthreads: int = 8,
        seed: int = 0,
        node: Optional[NodeConfig] = None,
        yield_every: int = 0,
        archer_config: Optional[ArcherConfig] = None,
        obs: Optional[Instrumentation] = None,
        **params: Any,
    ) -> RunResult:
        node = node or NodeConfig()
        obs = obs or get_obs()
        config = archer_config or ArcherConfig()
        config.flush_shadow = self.flush_shadow
        result = RunResult(workload=workload.name, tool=self.name, nthreads=nthreads)
        accountant = NodeMemory(node.memory_limit)
        tool = ArcherTool(config, accountant, obs=obs)
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
            "online", category="run", workload=workload.name, tool=self.name
        ):
            try:
                rt.run(lambda master: workload.run_program(master, **params))
            except SimulatedOOMError:
                result.oom = True
        result.dynamic_seconds = time.perf_counter() - t0
        if not result.oom:
            result.races = tool.races
        result.stats = run_stats(tool, extra={"evictions": tool.evictions})
        _fill_memory(result, accountant)
        result.metrics = obs.registry.snapshot()
        return result


class SwordDriver:
    """SWORD: bounded-buffer collection + offline analysis."""

    name = "sword"

    def run(
        self,
        workload: Workload,
        *,
        nthreads: int = 8,
        seed: int = 0,
        node: Optional[NodeConfig] = None,
        yield_every: int = 0,
        sword_config: Optional[SwordConfig] = None,
        analysis_options: Optional[AnalysisOptions] = None,
        trace_dir: Optional[str] = None,
        keep_trace: bool = False,
        run_offline: bool = True,
        mt_workers: int = 0,
        obs: Optional[Instrumentation] = None,
        **params: Any,
    ) -> RunResult:
        node = node or NodeConfig()
        obs = obs or get_obs()
        owns_dir = trace_dir is None
        trace_path = Path(trace_dir or tempfile.mkdtemp(prefix="sword-trace-"))
        result = RunResult(workload=workload.name, tool=self.name, nthreads=nthreads)
        analyses: dict = {}
        tool = None
        try:
            config = sword_config or SwordConfig()
            config.log_dir = str(trace_path)
            accountant = NodeMemory(node.memory_limit)
            tool = SwordTool(config, accountant, obs=obs)
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
                "online", category="run", workload=workload.name,
                tool=self.name,
            ):
                try:
                    rt.run(
                        lambda master: workload.run_program(master, **params)
                    )
                except SimulatedOOMError:
                    result.oom = True
            result.dynamic_seconds = time.perf_counter() - t0
            result.trace_bytes = tool.stats["bytes_compressed"]
            _fill_memory(result, accountant)
            if result.oom or not run_offline:
                return result

            options = analysis_options or AnalysisOptions()
            trace = TraceDir(trace_path, integrity=options.integrity)
            t1 = time.perf_counter()
            analysis = analyze_trace(trace, options=options, obs=obs)
            result.offline_seconds = time.perf_counter() - t1
            result.races = analysis.races
            result.integrity = analysis.integrity
            analyses["offline"] = analysis.stats
            if mt_workers > 1:
                t2 = time.perf_counter()
                mt_opts = options.copy(workers=mt_workers)
                mt = analyze_once(trace_path, options=mt_opts, obs=obs)
                result.offline_mt_seconds = time.perf_counter() - t2
                analyses["offline_mt"] = mt.stats
                if mt.races.pc_pairs() != analysis.races.pc_pairs():
                    raise AssertionError(
                        "distributed analysis disagrees with serial analysis"
                    )
            return result
        finally:
            # One shared snapshot on every exit path: the tool's online
            # counters plus every analysis phase that actually ran.
            extra = None
            if tool is not None and result.dynamic_seconds > 0:
                extra = {
                    "events_per_second": (
                        tool.stats["events"] / result.dynamic_seconds
                    )
                }
            result.stats = run_stats(tool, extra=extra, analyses=analyses)
            result.metrics = obs.registry.snapshot()
            if owns_dir and not keep_trace:
                shutil.rmtree(trace_path, ignore_errors=True)


def driver(name: str):
    """Driver factory by experiment-facing tool name."""
    if name == "baseline":
        return BaselineDriver()
    if name == "archer":
        return ArcherDriver(flush_shadow=False)
    if name == "archer-low":
        return ArcherDriver(flush_shadow=True)
    if name == "sword":
        return SwordDriver()
    raise ValueError(f"unknown tool {name!r}; expected one of {TOOL_NAMES}")
