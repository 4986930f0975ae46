"""Job decomposition: one trace into picklable pair shards.

A *shard* is the scheduling unit of the service: a contiguous run of the
job's concurrent (thread, barrier-interval) pair plan, small enough that
many shards exist per job (work stealing needs slack) and large enough
that one shard amortises its worker's tree builds — consecutive pairs in
the plan share intervals, so contiguous slicing keeps each worker's tree
cache hot.

Salvage jobs are planned as a single ``salvage`` shard: recovering a
damaged trace threads an integrity ledger through planning and pair
analysis, which is exactly the serial driver's job — the scheduler just
runs it on a worker like any other shard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from ..offline.intervals import IntervalInventory, IntervalKey
from ..offline.options import AnalysisOptions, FastPathOptions
from ..sword.reader import TraceDir
from .tracing import ObsConfig

#: Shard kinds.
PAIRS = "pairs"
SALVAGE = "salvage"


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One worker task (picklable: travels to process workers)."""

    job_id: str
    index: int
    trace_path: str
    kind: str = PAIRS
    pair_keys: tuple[tuple[IntervalKey, IntervalKey], ...] = ()
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
    #: Durable-recovery context: where completed outcomes checkpoint
    #: (None disables) and this shard's content-hash address there.
    checkpoint_dir: Optional[str] = None
    checkpoint_token: str = ""
    #: Per-shard execution deadline (None: unbounded).  Enforced for
    #: process workers by the pool; thread workers check cooperatively.
    timeout_s: Optional[float] = None

    @property
    def npairs(self) -> int:
        return len(self.pair_keys)


@dataclass(slots=True)
class ShardPlan:
    """A job's decomposition plus the planner-side statistics."""

    shards: list[ShardSpec] = field(default_factory=list)
    intervals: int = 0
    concurrent_pairs: int = 0


def shard_fastpath(
    base: FastPathOptions, cache_dir: Optional[str]
) -> FastPathOptions:
    """The fast-path options shards run with.

    With a shared ``cache_dir`` the persistent result cache is forced on:
    tokens are content hashes of the trace bytes, so identical shards —
    across jobs, tenants, and resubmissions — are computed once
    fleet-wide and replayed everywhere else.
    """
    if cache_dir is None:
        return base
    return replace(base, result_cache=base.enabled, cache_dir=cache_dir)


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
    checkpoint_dir: Optional[str] = None,
    shard_timeout_s: Optional[float] = None,
) -> ShardPlan:
    """Plan one job: enumerate concurrent pairs, slice into shards.

    ``shard_pairs`` caps the shard grain; ``min_shards`` shrinks the
    grain further when the plan would otherwise produce fewer shards
    than the caller has workers to feed (small jobs still fan out).

    ``integrity="salvage"`` (on ``options``) short-circuits to a single
    salvage shard — the worker runs the full serial salvage analysis.

    With ``checkpoint_dir`` set, every shard is stamped with its
    content-hash checkpoint token (the trace digest is computed once
    here, at plan time, and folded into each shard's address).
    """
    options = options or AnalysisOptions()
    if not isinstance(trace, TraceDir):
        trace = TraceDir(trace, integrity=options.integrity)
    shard_opts = options.copy(
        fastpath=shard_fastpath(options.fastpath, cache_dir), obs=None
    )
    trace_digest = ""
    if checkpoint_dir is not None:
        from .checkpoint import trace_token  # deferred: import cycle

        trace_digest = trace_token(trace.path)

    def _token(kind: str, pair_keys: tuple) -> str:
        if not trace_digest:
            return ""
        from .checkpoint import shard_token  # deferred: import cycle

        return shard_token(
            trace_digest,
            kind=kind,
            pair_keys=pair_keys,
            chunk_events=options.chunk_events,
            use_ilp_crosscheck=options.use_ilp_crosscheck,
        )

    plan = ShardPlan()
    if options.integrity == "salvage":
        plan.shards.append(
            ShardSpec(
                job_id=job_id,
                index=0,
                trace_path=str(trace.path),
                kind=SALVAGE,
                options=shard_opts,
                tenant=tenant,
                trace_id=trace_id,
                obs_config=obs_config,
                checkpoint_dir=checkpoint_dir,
                checkpoint_token=_token(SALVAGE, ()),
                timeout_s=shard_timeout_s,
            )
        )
        return plan
    inventory = IntervalInventory(trace)
    pairs = [(a.key, b.key) for a, b in inventory.concurrent_pairs()]
    plan.intervals = len(inventory)
    plan.concurrent_pairs = len(pairs)
    if pairs and min_shards > 1:
        shard_pairs = min(shard_pairs, -(-len(pairs) // min_shards))
    shard_pairs = max(1, shard_pairs)
    for index, lo in enumerate(range(0, len(pairs), shard_pairs)):
        pair_keys = tuple(pairs[lo : lo + shard_pairs])
        plan.shards.append(
            ShardSpec(
                job_id=job_id,
                index=index,
                trace_path=str(trace.path),
                kind=PAIRS,
                pair_keys=pair_keys,
                options=shard_opts,
                tenant=tenant,
                trace_id=trace_id,
                obs_config=obs_config,
                checkpoint_dir=checkpoint_dir,
                checkpoint_token=_token(PAIRS, pair_keys),
                timeout_s=shard_timeout_s,
            )
        )
    return plan
