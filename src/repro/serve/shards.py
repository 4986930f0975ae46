"""Job decomposition: one trace into picklable pair shards.

A *shard* is the scheduling unit of the service: a contiguous run of the
job's concurrent (thread, barrier-interval) pair plan, small enough that
many shards exist per job (work stealing needs slack) and large enough
that one shard amortises its worker's tree builds — consecutive pairs in
the plan share intervals, so contiguous slicing keeps each worker's tree
cache hot.

Plan once, ship what survives.  The planner is the only place a job's
metadata is parsed: it builds the interval inventory, applies the
engine's own frame-digest test (:class:`~repro.offline.engine.
DigestPruner`) to every concurrent pair, counts the pruned pairs in the
plan's own ``stats`` (merged by the coordinator like a shard's), and
slices only the survivors into shards — each carrying the
:class:`~repro.offline.intervals.IntervalData` of its pairs, so a worker
never scans the meta files again.  The plan is a pure function of the
trace bytes and the planning arguments: a resumed job re-plans the
same shards, and its workers replay every pair the killed run decided
from the shared result cache.

Salvage jobs shard like strict ones.  The planner's salvage open fills
the trace's :class:`~repro.sword.integrity.IntegrityReport` (everything
the readers and the inventory dropped), which the plan carries; each
shard's engine abandons a pair that raises and ships that part home, and
the coordinator folds the parts into the plan's report in shard-index
order — the serial driver's pair order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from ..offline.engine import AnalysisStats, DigestPruner
from ..offline.intervals import IntervalData, IntervalInventory, IntervalKey
from ..offline.options import AnalysisOptions, FastPathOptions
from ..static.table import StaticVerdictTable
from ..sword.integrity import IntegrityReport
from ..sword.reader import TraceDir
from .tracing import ObsConfig


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One worker task (picklable: travels to process workers)."""

    job_id: str
    index: int
    trace_path: str
    #: The shard's work, self-contained: both intervals of every pair
    #: (key, slot, span, label, chunks, digests) as the planner read
    #: them from the meta files.  An interval shared by several pairs
    #: is one object, so it pickles once per shard.
    pairs: tuple[tuple[IntervalData, IntervalData], ...] = ()
    #: The options the worker's engine runs with, exactly as submitted
    #: (``obs`` stripped: bundles are not picklable — ``obs_config`` is
    #: the recipe for the worker-side one).
    options: AnalysisOptions = field(default_factory=AnalysisOptions)
    #: Correlation context: which tenant's job and which distributed
    #: trace this shard belongs to (empty outside the service).
    tenant: str = ""
    trace_id: str = ""
    #: Recipe for the worker-side instrumentation bundle; None runs the
    #: shard with the worker process's ambient (usually null) bundle.
    obs_config: Optional[ObsConfig] = None
    #: Per-shard execution deadline (None: unbounded).  Enforced for
    #: process workers by the pool; thread workers check cooperatively.
    timeout_s: Optional[float] = None

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    @property
    def pair_keys(self) -> tuple[tuple[IntervalKey, IntervalKey], ...]:
        """The pairs' identities, in plan order."""
        return tuple((a.key, b.key) for a, b in self.pairs)


@dataclass(slots=True)
class ShardPlan:
    """A job's decomposition plus the planner's share of the ledger."""

    shards: list[ShardSpec] = field(default_factory=list)
    #: What planning decided: ``intervals``, ``concurrent_pairs`` (every
    #: one of the trace: pruned here + shipped) and the ``pairs_pruned``
    #: / ``frames_pruned`` the digests settled — never shard work.
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    #: The trace's static verdict table for the coordinator to inject
    #: (None: no table, or a salvage open dropped a corrupt one).
    static_verdicts: Optional[StaticVerdictTable] = None
    #: Salvage only: what the planner's open and inventory dropped (the
    #: shards' abandoned pairs are folded in at the coordinator).
    integrity: Optional[IntegrityReport] = None

    @property
    def pairs_shipped(self) -> int:
        return sum(spec.npairs for spec in self.shards)


def shard_fastpath(
    base: FastPathOptions, cache_dir: Optional[str]
) -> FastPathOptions:
    """The cascade settings shards run with.

    With a shared ``cache_dir`` the persistent result cache is forced on:
    tokens are content hashes of the trace bytes, so identical shards —
    across jobs, tenants, and resubmissions — are computed once
    fleet-wide and replayed everywhere else.
    """
    if cache_dir is None:
        return base
    return replace(base, result_cache=True, cache_dir=cache_dir)


def plan_shards(
    trace: TraceDir | str | os.PathLike,
    *,
    job_id: str = "",
    options: AnalysisOptions | None = None,
    shard_pairs: int = 32,
    min_shards: int = 1,
    cache_dir: Optional[str] = None,
    tenant: str = "",
    trace_id: str = "",
    obs_config: Optional[ObsConfig] = None,
    shard_timeout_s: Optional[float] = None,
) -> ShardPlan:
    """Plan one job: enumerate concurrent pairs, prune, slice into shards.

    Every pair the frame digests decide is counted on the plan and
    dropped; ``shard_pairs`` caps the
    shard grain over the *surviving* pairs and ``min_shards`` shrinks
    the grain further when they would otherwise make fewer shards than
    the caller has workers to feed (small jobs still fan out).  A plan
    with no surviving pair has no shards: the job is decided.

    ``integrity="salvage"`` (on ``options``) opens the trace with the
    salvage readers; the plan then carries the trace's integrity report.
    """
    options = options or AnalysisOptions()
    if not isinstance(trace, TraceDir):
        trace = TraceDir(trace, integrity=options.integrity)
    shard_opts = options.copy(
        fastpath=shard_fastpath(options.fastpath, cache_dir), obs=None
    )
    plan = ShardPlan(static_verdicts=trace.static_verdicts)
    inventory = IntervalInventory(trace)
    pairs = inventory.concurrent_pairs()
    if options.integrity == "salvage":
        plan.integrity = trace.integrity
    plan.stats.intervals = len(inventory)
    plan.stats.concurrent_pairs = len(pairs)
    inventory.charge(plan.stats)
    pruner = DigestPruner()
    pairs = [pair for pair in pairs if not pruner.prunes(*pair, plan.stats)]
    if pairs and min_shards > 1:
        shard_pairs = min(shard_pairs, -(-len(pairs) // min_shards))
    shard_pairs = max(1, shard_pairs)
    for index, lo in enumerate(range(0, len(pairs), shard_pairs)):
        plan.shards.append(
            ShardSpec(
                job_id=job_id,
                index=index,
                trace_path=str(trace.path),
                pairs=tuple(pairs[lo : lo + shard_pairs]),
                options=shard_opts,
                tenant=tenant,
                trace_id=trace_id,
                obs_config=obs_config,
                timeout_s=shard_timeout_s,
            )
        )
    return plan
