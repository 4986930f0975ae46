"""Distributed offline analysis ("cluster" mode).

The paper distributes the offline phase across nodes: per-thread interval
trees are built independently and the tree-vs-tree comparisons are spread
out, bringing multi-hour analyses down to seconds/minutes (Table III's MT
column, §IV-C).  We reproduce the structure with a process pool over the
*same shard machinery the analysis service runs on*: the pair plan is cut
by :func:`repro.serve.shards.plan_shards` (which parses the meta files
once, decides every pair the frame digests can, and ships only the
survivors), every shard is executed by
:func:`repro.serve.workers.run_shard` (workers open the trace directory
themselves — no tree pickling, exactly like remote nodes reading a shared
filesystem), and race sets are merged at the coordinator.  One worker
code path means the byte-identical-races guarantee is proven once, and a
``repro serve`` fleet and a one-shot ``mode="parallel"`` call cannot
drift apart.

The supported entry point is :func:`repro.api.analyze` with
``mode="parallel"``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from ..obs import Instrumentation, get_obs
from ..sword.reader import TraceDir
from .analyzer import SerialOfflineAnalyzer
from .engine import AnalysisResult, AnalysisStats
from .options import AnalysisOptions
from .report import RaceSet

#: Pair-shard grain for one-shot parallel analysis; small enough that the
#: process pool load-balances, large enough to amortise tree builds.
SHARD_PAIRS = 32


def default_workers() -> int:
    """Worker count mirroring "one core per thread tree" (capped sanely)."""
    return max(2, min(8, os.cpu_count() or 2))


class DistributedOfflineAnalyzer:
    """Coordinator for the distributed offline analysis."""

    def __init__(
        self,
        trace: TraceDir | str | os.PathLike,
        *,
        options: AnalysisOptions | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        if not isinstance(trace, TraceDir):
            trace = TraceDir(trace)
        self.trace = trace
        self.options = options or AnalysisOptions()
        self.options.validate()
        self.obs = obs or self.options.obs or get_obs()

    def analyze(self) -> AnalysisResult:
        """Plan centrally, compare in parallel, merge race sets."""
        if self.options.integrity == "salvage":
            # Salvage threads an integrity ledger through planning and
            # pair analysis: that is the serial driver, whole.
            return SerialOfflineAnalyzer(
                self.trace, obs=self.obs, options=self.options
            ).analyze()
        # Deferred: repro.offline.__init__ imports this module, and
        # repro.serve imports repro.offline — a module-level import here
        # would close the cycle mid-initialisation.
        from ..serve.shards import plan_shards
        from ..serve.tracing import ObsConfig
        from ..serve.workers import run_shard

        stats = AnalysisStats()
        t0 = time.perf_counter()
        with self.obs.tracer.span("metadata-scan", category="offline-mt"):
            plan = plan_shards(
                self.trace,
                options=self.options,
                shard_pairs=SHARD_PAIRS,
                min_shards=self.options.workers,
                # With a live bundle, shards instrument themselves and
                # ship their spans home for one coordinator flamegraph.
                obs_config=ObsConfig.from_obs(self.obs),
            )
        stats.merge(plan.stats)
        stats.plan_seconds = time.perf_counter() - t0

        races = RaceSet()
        nworkers = min(self.options.workers, len(plan.shards))
        with self.obs.tracer.span(
            "compare-scatter", category="offline-mt", workers=nworkers
        ):
            if nworkers > 1:
                with ProcessPoolExecutor(max_workers=nworkers) as pool:
                    outcomes = list(pool.map(run_shard, plan.shards))
            else:
                # One shard, or none (the plan decided every pair):
                # nothing to scatter, so no pool to pay for.
                outcomes = [run_shard(spec) for spec in plan.shards]
        for outcome in outcomes:
            for report in outcome.reports():
                races.add(report)
            stats.merge(outcome.stats)
            if outcome.spans:
                # One trace-viewer row per worker process.
                self.obs.tracer.ingest(outcome.spans, tid=outcome.worker_pid)
        # Coordinator-side verdict injection: one contribution regardless
        # of the shard count, merged by RaceSet's canonical minimum just
        # like the serial driver's.
        if plan.static_verdicts is not None:
            stats.note_static(plan.static_verdicts)
            for report in plan.static_verdicts.race_reports():
                races.add(report)
        stats.races_found = len(races)
        # Workers run in their own processes; the coordinator publishes
        # the merged ledger under the names the serial driver exports.
        registry = self.obs.registry
        stats.publish(registry, AnalysisStats())
        registry.gauge("offline.intervals").set(stats.intervals)
        registry.gauge("offline.concurrent_pairs").set(stats.concurrent_pairs)
        registry.gauge("offline.races").set(len(races))
        return AnalysisResult(races=races, stats=stats)

