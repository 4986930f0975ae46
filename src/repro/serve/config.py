"""Configuration of the fleet-scale analysis service."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..offline.options import AnalysisOptions, check_cache_dir

#: Where a durable service roots its result cache under the state dir.
CACHE_NAME = "result-cache"


@dataclass(slots=True)
class TenantQuota:
    """Admission limits applied per tenant id.

    ``max_pending`` bounds jobs admitted but not yet finished (queued or
    running); ``max_pending_bytes`` bounds the summed trace-log bytes of
    those jobs (None: unbounded).  Both are checked at submission time —
    a rejected submission costs the tenant nothing.  ``deadline_s``
    bounds each admitted job's submission-to-terminal wall time (None:
    unbounded): an expired job stops dispatching shards and fails with
    a :class:`~repro.serve.errors.JobDeadlineError` cause, so one
    pathological trace cannot hold a tenant's quota slot forever.
    """

    max_pending: int = 4
    max_pending_bytes: Optional[int] = None
    deadline_s: Optional[float] = None

    def validate(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.max_pending_bytes is not None and self.max_pending_bytes < 1:
            raise ValueError("max_pending_bytes must be >= 1 or None")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 or None")


@dataclass(slots=True)
class ServeConfig:
    """Every knob of the service tier.

    ``workers`` sizes the shard pool; ``use_processes`` selects process
    workers (real parallelism, the production setting) or in-process
    thread workers (cheap, deterministic — what the unit tests use).
    ``shard_pairs`` is the scheduling grain: each job's concurrent-pair
    plan is cut into shards of at most this many pairs, and more shards
    than workers is what gives the work stealing room to balance load.
    ``cache_dir`` roots the *shared cross-job* result cache; None lets
    the service own a temporary one for its lifetime.
    """

    workers: int = 2
    use_processes: bool = True
    queue_capacity: int = 16
    quota: TenantQuota = field(default_factory=TenantQuota)
    shard_pairs: int = 32
    #: Shared content-hashed pair-verdict cache across all jobs and
    #: tenants (a pair decided once is replayed fleet-wide).
    result_cache: bool = True
    cache_dir: Optional[str] = None
    #: Transient shard I/O failures get this many extra attempts.
    shard_retries: int = 2
    shard_backoff_seconds: float = 0.01
    #: Full-jitter seed for retry backoff (None: deterministic doubling;
    #: any int: seeded uniform draws — reproducible *and* de-herded).
    shard_backoff_jitter_seed: Optional[int] = None
    #: Durable-recovery root: the job WAL and (by default) the result
    #: cache live here.  A resumed job reruns its pairs through that
    #: cache, so a state dir requires ``result_cache``.  None runs the
    #: service memory-only — a restart forgets every job.
    state_dir: Optional[str] = None
    #: fsync every WAL append (pay a disk flush per record for
    #: power-loss durability; the default survives process kills only).
    wal_fsync: bool = False
    #: Per-shard execution deadline (None: unbounded).  Process workers
    #: are killed and recycled past it; thread workers check after the
    #: fact.
    shard_timeout_s: Optional[float] = None
    #: A shard whose process worker crashed/timed out this many times is
    #: given up on (quarantined or failed, per ``quarantine``).
    max_shard_crashes: int = 2
    #: Poison shards degrade the job (partial result + report) instead
    #: of failing it; False restores fail-whole-job semantics.
    quarantine: bool = True
    #: Where per-job stitched Chrome traces (and, for failed jobs, the
    #: journal slice) are written; None disables the artifacts.  Only
    #: effective when the service runs with a live bundle — tracing a
    #: null-obs service records nothing to stitch.
    trace_dir: Optional[str] = None
    #: Baseline analysis options applied to every job (fastpath knobs,
    #: chunking); per-job integrity mode is set at submission.
    options: AnalysisOptions = field(default_factory=AnalysisOptions)

    def shared_cache_dir(self) -> Optional[str]:
        """The cross-job cache root, or None when result caching is off."""
        return self.cache_dir if self.result_cache else None

    def wal_path(self) -> Optional[Path]:
        """Where the job WAL lives, or None when the service is stateless."""
        if self.state_dir is None:
            return None
        from .wal import WAL_NAME  # deferred: keep config import-light

        return Path(self.state_dir) / WAL_NAME

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.shard_pairs < 1:
            raise ValueError("shard_pairs must be >= 1")
        if self.shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be > 0 or None")
        if self.max_shard_crashes < 1:
            raise ValueError("max_shard_crashes must be >= 1")
        if self.state_dir is not None and not self.result_cache:
            raise ValueError(
                "state_dir needs result_cache: a resumed job replays its "
                "decided pairs from the result cache"
            )
        check_cache_dir(self.cache_dir)
        self.quota.validate()
        self.options.validate()
