"""Shard execution: the one worker entry point for every parallel path.

:func:`run_shard` is what the service pool executes, for ``repro serve``
jobs and for one-shot ``mode="parallel"`` calls alike (:func:`~repro.
serve.service.analyze_once`) — there is exactly one way a pair shard is
analyzed, so the byte-identical-races guarantee is proven once.

Workers are stateless: each opens the trace directory itself (like a
remote node reading a shared filesystem — logs, mutex sets, task graph),
drives the shared :class:`~repro.offline.engine.AnalysisEngine` over the
interval pairs its spec carries, and ships races back as plain tuples —
no tree or engine pickling, and no second scan of the meta files: the
planner parsed them once and shipped what each shard needs.  A shard
builds the trees of its own pairs in its engine's in-memory LRU and
shares only pair verdicts through the result cache, so how many trees a
job builds is a function of its plan, not of how its shards interleave.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..obs import NULL_OBS, Instrumentation, set_obs
from ..offline.engine import AnalysisEngine, AnalysisStats
from ..offline.report import RaceReport, RaceSet
from ..sword.integrity import IntegrityReport
from ..sword.reader import TraceDir
from .shards import ShardSpec


@dataclass(slots=True)
class ShardOutcome:
    """What one shard sends back to the coordinator (picklable)."""

    job_id: str
    index: int
    #: RaceReport field tuples (frozen dataclass of ints/bools).
    rows: list[tuple] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    #: A salvage job's shard: the pairs its engine abandoned.
    integrity: Optional[IntegrityReport] = None
    #: Spans this shard recorded, as wall-clock dicts
    #: (:meth:`repro.obs.tracer.Span.to_json`) — empty with tracing off.
    spans: list[dict] = field(default_factory=list)
    #: The shard's metric delta: its private registry's snapshot.
    metrics: dict = field(default_factory=dict)
    #: Which OS process executed the shard (its trace-viewer row).
    worker_pid: int = 0

    def reports(self) -> Iterable[RaceReport]:
        return (RaceReport(*row) for row in self.rows)


def race_rows(races: RaceSet) -> list[tuple]:
    """Flatten a race set to picklable field tuples."""
    return [
        (
            r.pc_a, r.pc_b, r.address, r.write_a, r.write_b,
            r.gid_a, r.gid_b, r.pid_a, r.pid_b, r.bid_a, r.bid_b,
        )
        for r in races
    ]


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Execute one shard in the current process.

    When the spec carries an :class:`~repro.serve.tracing.ObsConfig`,
    the shard runs under a *fresh* bundle built right here — process
    workers inherit a null ambient bundle from fork/spawn, so without
    this the engine's spans and counters would vanish into ``NULL_OBS``.
    Because the bundle is private to the shard, its snapshot is the
    shard's metric delta, and its spans ship home on the outcome with
    wall-clock timestamps for stitching.

    A retried shard, or the shard of a resumed job, simply runs again:
    with the shared result cache on, every pair an earlier attempt
    decided replays from its pair entry, so the rerun resumes from the
    last pair compared.
    """
    if spec.obs_config is None:
        return _execute_shard(spec, NULL_OBS)
    bundle = spec.obs_config.build()
    if multiprocessing.parent_process() is not None:
        # Own process: installing the bundle as ambient is safe (one
        # shard at a time here) and catches deep get_obs() call sites.
        previous = set_obs(bundle)
        try:
            outcome = _execute_shard(spec, bundle)
        finally:
            set_obs(previous)
    else:
        # In-process thread worker: the ambient bundle is shared process
        # state, and concurrent install/restore from sibling shards
        # races — the explicit obs threading covers the engine instead.
        outcome = _execute_shard(spec, bundle)
    wall_epoch = getattr(bundle.tracer, "wall_epoch", 0.0)
    outcome.spans = [s.to_json(wall_epoch) for s in bundle.tracer.spans]
    outcome.metrics = bundle.registry.snapshot()
    return outcome


def _execute_shard(spec: ShardSpec, obs: Instrumentation) -> ShardOutcome:
    """The shard body proper, under an explicit bundle.

    The shard compares its assigned interval pairs through an engine
    whose readers are closed via the context manager even on error
    (long-lived pools must not leak per-thread log descriptors).  A
    salvage job's shard opens the trace with the salvage readers and
    carries home the pairs its engine abandoned.
    """
    options = spec.options.copy(obs=obs)
    outcome = ShardOutcome(
        job_id=spec.job_id, index=spec.index, worker_pid=os.getpid()
    )
    with obs.tracer.span(
        "shard", "serve", job=spec.job_id, shard=spec.index, pairs=spec.npairs,
    ):
        trace = TraceDir(spec.trace_path, integrity=options.integrity)
        races = RaceSet()
        with AnalysisEngine(trace, obs=obs, options=options) as engine:
            for ia, ib in spec.pairs:
                engine.analyze_pair(ia, ib, races)
            outcome.stats = engine.stats
        outcome.integrity = engine.abandoned
    outcome.rows = race_rows(races)
    return outcome
