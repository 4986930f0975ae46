"""End-to-end job tracing: context minting, worker bundles, stitching.

Every submission mints a :class:`TraceContext` — a ``trace_id`` that
follows the job through the queue, the scheduler, and into every process
worker that runs one of its shards.  Workers cannot share the
coordinator's tracer (they live in other processes), so each shard
carries a picklable :class:`ObsConfig` recipe instead and builds its own
bundle on arrival; the spans it records come home on the
:class:`~repro.serve.workers.ShardOutcome` as plain dicts with
*wall-clock* timestamps, which is the one clock every process agrees on.

:func:`stitch_job_trace` then assembles the whole story into a single
Chrome trace-event JSON: row 0 is the coordinator (queue-wait, triage,
plan — with its ``pairs=``/``pruned=``/``shards=`` split — per-shard
merges, retry/backoff), and each worker process gets its own row with
the shard spans it executed (tree builds, pair compares).  Load the
file at ``chrome://tracing`` or https://ui.perfetto.dev and the job's
life — submission to merged race set — is one flamegraph.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..obs import (
    Instrumentation,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    PhaseTracer,
)

__all__ = [
    "TraceContext",
    "ObsConfig",
    "coord_span",
    "stitch_job_trace",
    "write_job_trace",
]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One trace's identity: minted at submission, inherited by shards."""

    trace_id: str
    span_id: str
    parent_id: str = ""

    @classmethod
    def mint(cls) -> "TraceContext":
        return cls(trace_id=uuid.uuid4().hex, span_id=uuid.uuid4().hex[:16])

    def child(self) -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=uuid.uuid4().hex[:16],
            parent_id=self.span_id,
        )

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """A picklable recipe for a worker-side instrumentation bundle.

    Travels on the (frozen, picklable) :class:`~repro.serve.shards.
    ShardSpec`; the worker calls :meth:`build` once per shard, so the
    bundle's snapshot *is* the shard's metric delta by construction —
    no diffing against a baseline.  The journal stays null in workers:
    their lifecycle events are journaled by the coordinator, which sees
    every start/retry/steal anyway.
    """

    metrics: bool = True
    tracing: bool = True
    namespace: str = "repro"

    @classmethod
    def from_obs(cls, obs: Instrumentation) -> Optional["ObsConfig"]:
        """The recipe matching a coordinator bundle; None when fully off."""
        metrics = obs.registry.enabled
        tracing = not isinstance(obs.tracer, NullTracer)
        if not metrics and not tracing:
            return None
        return cls(
            metrics=metrics,
            tracing=tracing,
            namespace=obs.registry.namespace,
        )

    def build(self) -> Instrumentation:
        return Instrumentation(
            registry=(
                MetricsRegistry(self.namespace)
                if self.metrics
                else NullRegistry(self.namespace)
            ),
            tracer=PhaseTracer() if self.tracing else NullTracer(),
        )


def coord_span(
    name: str,
    start: float,
    end: float,
    *,
    cat: str = "serve",
    **args,
) -> dict:
    """One coordinator-side span dict (wall-clock start, seconds)."""
    span = {
        "name": name,
        "cat": cat,
        "start": start,
        "dur": max(0.0, end - start),
    }
    clean = {k: v for k, v in args.items() if v is not None}
    if clean:
        span["args"] = clean
    return span


def _event(span: dict, tid: int, base: float, trace_id: str) -> dict:
    args = dict(span.get("args", {}))
    if trace_id:
        args.setdefault("trace_id", trace_id)
    event = {
        "name": span["name"],
        "cat": span.get("cat", "serve"),
        "ph": "X",
        "pid": 0,
        "tid": tid,
        "ts": round((span["start"] - base) * 1e6, 3),
        "dur": round(span.get("dur", 0.0) * 1e6, 3),
    }
    if args:
        event["args"] = args
    return event


def _thread_name(tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "args": {"name": name},
    }


def stitch_job_trace(job) -> dict:
    """One Chrome trace-event JSON for a finished job.

    Row 0 (the coordinator) carries the job's control-plane spans;
    every worker process that executed one of the job's shards gets its
    own row.  Timestamps are microseconds relative to the earliest
    recorded instant, so the queue wait starts the timeline at ~0.
    """
    trace_id = job.trace.trace_id if job.trace is not None else ""
    starts = [s["start"] for s in job.trace_spans]
    starts += [s["start"] for _pid, spans in job.worker_spans for s in spans]
    base = min([job.submitted_wall] + starts)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro-serve {job.job_id}"},
        },
        _thread_name(0, "coordinator"),
    ]
    for span in job.trace_spans:
        events.append(_event(span, 0, base, trace_id))
    tids: dict[int, int] = {}
    for pid, spans in job.worker_spans:
        tid = tids.get(pid)
        if tid is None:
            tid = tids[pid] = len(tids) + 1
            events.append(_thread_name(tid, f"worker pid {pid}"))
        for span in spans:
            events.append(_event(span, tid, base, trace_id))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "trace_id": trace_id,
            "state": job.state,
        },
    }


def write_job_trace(job, path: str | Path) -> Path:
    """Write the stitched trace; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stitch_job_trace(job)))
    return path
