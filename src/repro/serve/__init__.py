"""repro.serve: the fleet-scale analysis service.

A long-lived tier that accepts many concurrent trace-directory
submissions (per-tenant quotas, bounded-queue backpressure), decomposes
each job into (thread, barrier-interval) pair shards, balances them
across a work-stealing worker pool, and merges shard outcomes into race
sets byte-identical to single-shot :func:`repro.api.analyze`.  A shared
content-hashed result cache makes identical shards — across jobs and
tenants — compute once fleet-wide.

Entry points: :class:`Service` (also exported as ``repro.api.Service``)
and the ``repro serve`` CLI.
"""

from .config import ServeConfig, TenantQuota
from .errors import (
    BackpressureError,
    JobDeadlineError,
    JobFailedError,
    JobNotFoundError,
    PoolClosedError,
    QuotaExceededError,
    ServeError,
    ServiceClosedError,
    ShardTimeoutError,
    WorkerCrashError,
)
from .job import (
    ACTIVE_STATES,
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    PLANNING,
    QUEUED,
    RESULT_STATES,
    RUNNING,
    TERMINAL_STATES,
    DegradationReport,
    JobRecord,
    QuarantinedShard,
    TriageInfo,
    triage_trace,
)
from .pool import ShardTask, WorkStealingPool
from .queue import IngestionQueue
from .retry import RetryPolicy
from .scheduler import JobScheduler
from .service import Service, analyze_once
from .shards import ShardPlan, ShardSpec, plan_shards
from .tracing import ObsConfig, TraceContext, stitch_job_trace, write_job_trace
from .wal import JobWal, WalReplay, replay_wal
from .workers import ShardOutcome, run_shard

__all__ = [
    "ACTIVE_STATES",
    "BackpressureError",
    "CANCELLED",
    "DEGRADED",
    "DONE",
    "DegradationReport",
    "FAILED",
    "IngestionQueue",
    "JobDeadlineError",
    "JobFailedError",
    "JobNotFoundError",
    "JobRecord",
    "JobScheduler",
    "JobWal",
    "ObsConfig",
    "PLANNING",
    "PoolClosedError",
    "QUEUED",
    "QuarantinedShard",
    "QuotaExceededError",
    "RESULT_STATES",
    "RUNNING",
    "RetryPolicy",
    "Service",
    "ServeConfig",
    "ServeError",
    "ServiceClosedError",
    "ShardOutcome",
    "ShardPlan",
    "ShardSpec",
    "ShardTask",
    "ShardTimeoutError",
    "TERMINAL_STATES",
    "TenantQuota",
    "TraceContext",
    "TriageInfo",
    "WalReplay",
    "WorkStealingPool",
    "WorkerCrashError",
    "analyze_once",
    "plan_shards",
    "replay_wal",
    "run_shard",
    "stitch_job_trace",
    "triage_trace",
    "write_job_trace",
]
