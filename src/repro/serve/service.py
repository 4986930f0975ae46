"""The service facade: submit / status / result / cancel.

:class:`Service` wires the ingestion queue, the job scheduler, and the
work-stealing shard pool into one long-lived object — the in-process
form of the fleet analysis tier.  Many producers submit trace
directories concurrently; each gets a job id back immediately (or an
admission error), polls ``status``, and collects the merged
:class:`~repro.offline.engine.AnalysisResult` with ``result``.

The cross-job result cache is shared by construction: every shard of
every job runs against one content-hashed cache root, so identical
traces submitted by different tenants are analyzed once.

:func:`analyze_once` is the one-shot form — ``mode="parallel"`` and
Table III's MT column: one job through a service that lives exactly as
long as the call.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

from ..obs import Instrumentation, get_obs
from ..offline.engine import AnalysisResult, AnalysisStats
from ..offline.options import AnalysisOptions
from .config import CACHE_NAME, ServeConfig
from .errors import JobFailedError, JobNotFoundError, ServiceClosedError
from .job import (
    ACTIVE_STATES,
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    RESULT_STATES,
    JobRecord,
    triage_trace,
)
from .pool import WorkStealingPool
from .queue import IngestionQueue
from .retry import RetryPolicy
from .scheduler import JobScheduler
from .tracing import TraceContext, coord_span, stitch_job_trace
from .wal import NULL_WAL, JobWal, replay_wal

INTEGRITY_MODES = ("strict", "salvage")


def percentile(values: list[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(len(ordered) * q + 0.9999999))
    return ordered[min(rank, len(ordered)) - 1]


class Service:
    """The fleet analysis service (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.obs = obs or get_obs()
        self._own_cache_dir: Optional[str] = None
        if self.config.state_dir is not None:
            # A durable service roots its result cache under the state
            # dir too (unless the caller chose one): resume must find
            # the same cache the killed run was warming.  ``validate``
            # refused a durable service without a cache.
            Path(self.config.state_dir).mkdir(parents=True, exist_ok=True)
            if self.config.cache_dir is None:
                self.config.cache_dir = os.path.join(
                    self.config.state_dir, CACHE_NAME
                )
        if self.config.result_cache and self.config.cache_dir is None:
            self._own_cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
            self.config.cache_dir = self._own_cache_dir
        wal_path = self.config.wal_path()
        self.wal = (
            JobWal(wal_path, fsync=self.config.wal_fsync)
            if wal_path is not None
            else NULL_WAL
        )
        self.queue = IngestionQueue(self.config, obs=self.obs)
        self.pool = WorkStealingPool(
            self.config.workers,
            use_processes=self.config.use_processes,
            retry=RetryPolicy(
                retries=self.config.shard_retries,
                backoff_seconds=self.config.shard_backoff_seconds,
                jitter_seed=self.config.shard_backoff_jitter_seed,
            ),
            obs=self.obs,
            default_timeout_s=self.config.shard_timeout_s,
            max_shard_crashes=self.config.max_shard_crashes,
        )
        self.scheduler = JobScheduler(
            self.config,
            self.queue,
            self.pool,
            obs=self.obs,
            on_finish=self._on_finish,
            wal=self.wal,
        )
        self._jobs: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._started_at = time.perf_counter()
        self._finished = 0
        self._failed = 0
        self._degraded = 0
        self._resumed = 0
        self._ttfrs: list[float] = []
        #: Per-tenant SLO inputs, tracked service-side so ``stats()``
        #: answers even when the obs bundle is null.
        self._tenant_stats: dict[str, dict] = {}
        self._closed = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "Service":
        if not self._started:
            self._started = True
            self._started_at = time.perf_counter()
            if self.wal.enabled:
                self._resume()
            self.pool.start()
            self.scheduler.start()
        return self

    def _resume(self) -> None:
        """Replay the WAL and re-enqueue every unfinished job.

        Runs before the scheduler thread starts, so resumed jobs sit at
        the head of the queue in their original submission order.  Job
        ids and trace ids are preserved (a client polling a pre-crash id
        keeps working), and the id sequence continues past the replayed
        maximum.  A resumed job re-plans and reruns every shard through
        the state-dir result cache: each pair the killed run decided
        replays from its pair entry, so the job resumes from its last
        compared pair, not from byte zero.
        """
        replay = replay_wal(self.config.wal_path())
        with self._lock:
            self._seq = max(self._seq, replay.max_seq())
        unfinished = replay.unfinished
        if not unfinished:
            return
        resumed_counter = self.obs.registry.counter(
            "serve.jobs_resumed", "unfinished jobs re-enqueued from the WAL"
        )
        for rep in unfinished:
            trace_path = Path(rep.trace_path)
            ctx = TraceContext.mint()
            if rep.trace_id:
                ctx = TraceContext(trace_id=rep.trace_id, span_id=ctx.span_id)
            job = JobRecord(
                job_id=rep.job_id,
                tenant=rep.tenant,
                trace_path=trace_path,
                integrity=rep.integrity,
                triage=triage_trace(trace_path),
                trace=ctx,
                deadline_s=rep.deadline_s,
                resumed=True,
            )
            self.queue.readmit(job)
            with self._lock:
                self._jobs[job.job_id] = job
                self._tenant(job.tenant)["submitted"] += 1
                self._resumed += 1
            resumed_counter.inc()
            self.obs.journal.record(
                "job-resume",
                job=job.job_id,
                tenant=job.tenant,
                trace_id=ctx.trace_id,
                shards_done=len(rep.shards_done),
                shards_total=rep.shards_total,
            )

    def close(self, drain: bool = True) -> None:
        """Shut down: stop admissions, optionally drain in-flight jobs."""
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        if drain:
            with self._lock:
                active = [
                    job
                    for job in self._jobs.values()
                    if job.state in ACTIVE_STATES
                ]
            for job in active:
                job.done.wait(timeout=60.0)
        self.scheduler.close()
        self.pool.close(wait=drain)
        self.wal.close()
        if self._own_cache_dir is not None:
            shutil.rmtree(self._own_cache_dir, ignore_errors=True)
            self._own_cache_dir = None

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        trace: Union[str, os.PathLike],
        *,
        tenant: str = "default",
        integrity: str = "strict",
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> str:
        """Submit one trace directory; returns the job id.

        Raises :class:`~repro.serve.errors.QuotaExceededError` or
        :class:`~repro.serve.errors.BackpressureError` when admission
        fails (with ``block=True``, backpressure waits up to ``timeout``
        instead).  ``integrity="salvage"`` requests damage-tolerant
        analysis of a torn trace.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        if integrity not in INTEGRITY_MODES:
            raise ValueError(
                f"unknown integrity mode {integrity!r}; "
                f"expected one of {INTEGRITY_MODES}"
            )
        trace_path = Path(trace)
        triage_start = time.time()
        triage = triage_trace(trace_path)
        triage_end = time.time()
        with self._lock:
            self._seq += 1
            job_id = f"job-{self._seq:06d}"
        job = JobRecord(
            job_id=job_id,
            tenant=tenant,
            trace_path=trace_path,
            integrity=integrity,
            triage=triage,
            trace=TraceContext.mint(),
            deadline_s=self.config.quota.deadline_s,
        )
        job.trace_spans.append(
            coord_span(
                "triage", triage_start, triage_end,
                bytes=triage.log_bytes, threads=triage.threads,
            )
        )
        self.queue.submit(job, block=block, timeout=timeout)
        # Logged after admission (a rejected submission must not be
        # resurrected by replay) and before the id is returned — the WAL
        # append is the acknowledgment's durability point.
        self.wal.append(
            "submitted",
            job_id,
            tenant=tenant,
            trace=str(trace_path),
            integrity=integrity,
            trace_id=job.trace.trace_id if job.trace else None,
            deadline_s=job.deadline_s,
        )
        with self._lock:
            self._jobs[job_id] = job
            self._tenant(tenant)["submitted"] += 1
        return job_id

    # -- inspection --------------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def status(self, job_id: str) -> dict:
        return self._job(job_id).status()

    def result(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> AnalysisResult:
        """Block until the job is terminal and return the merged result.

        Raises :class:`~repro.serve.errors.JobFailedError` for failed or
        cancelled jobs and :class:`TimeoutError` when ``timeout``
        elapses first.  A DEGRADED job *returns* its partial result —
        the races over the covered pair fraction are exact; callers who
        must distinguish check ``status()["state"]`` or the job's
        degradation report.
        """
        job = self._job(job_id)
        if not job.done.wait(timeout=timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state!r} after {timeout}s"
            )
        if job.state not in RESULT_STATES:
            raise JobFailedError(job_id, job.state, job.error)
        return job.result()

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True when the job was still active.

        Queued jobs are dropped at scheduling time; running jobs stop
        dispatching new shards (shards already executing finish, their
        results are discarded with the job).
        """
        job = self._job(job_id)
        with job.lock:
            if job.state not in ACTIVE_STATES:
                return False
            job.cancelled = True
        return True

    def jobs(self) -> list[dict]:
        """Status snapshots of every job this service has seen."""
        with self._lock:
            records = list(self._jobs.values())
        return [job.status() for job in records]

    def stats(self) -> dict:
        """Service-level throughput counters (the ``serve stats`` view)."""
        with self._lock:
            finished = self._finished
            failed = self._failed
            degraded = self._degraded
            resumed = self._resumed
            resuming = sum(
                1
                for job in self._jobs.values()
                if job.resumed and job.state in ACTIVE_STATES
            )
            ttfrs = list(self._ttfrs)
            tenants = {
                name: self._tenant_summary(data)
                for name, data in sorted(self._tenant_stats.items())
            }
        elapsed = time.perf_counter() - self._started_at
        return {
            "jobs_submitted": self._seq,
            "jobs_finished": finished,
            "jobs_failed": failed,
            "jobs_degraded": degraded,
            "jobs_resumed": resumed,
            "jobs_resuming": resuming,
            "jobs_per_second": (finished / elapsed) if elapsed > 0 else 0.0,
            "queue_depth": self.queue.depth,
            "pool_backlog": self.pool.backlog,
            "shards_executed": self.pool.executed,
            "shard_steals": self.pool.steals,
            "shard_retries": self.pool.retries,
            "shard_timeouts": self.pool.timeouts,
            "worker_crashes": self.pool.crashes,
            "wal_records": self.wal.appended,
            "ttfr_p50_seconds": percentile(ttfrs, 0.50),
            "ttfr_p99_seconds": percentile(ttfrs, 0.99),
            "elapsed_seconds": elapsed,
            "tenants": tenants,
            "journal": self.obs.journal.summary(),
        }

    def stats_line(self) -> str:
        """One compact live line (the ``repro serve --watch`` ticker)."""
        s = self.stats()
        p50 = s["ttfr_p50_seconds"]
        ttfr = f"{p50 * 1000:.0f}ms" if p50 is not None else "-"
        line = (
            f"[serve] jobs={s['jobs_finished']}/{s['jobs_submitted']}"
            f" failed={s['jobs_failed']}"
            f" queue={s['queue_depth']} backlog={s['pool_backlog']}"
            f" shards={s['shards_executed']}"
            f" steals={s['shard_steals']} retries={s['shard_retries']}"
            f" ttfr_p50={ttfr}"
        )
        if s["jobs_degraded"]:
            line += f" degraded={s['jobs_degraded']}"
        if s["jobs_resumed"]:
            line += (
                f" resumed={s['jobs_resumed']}"
                f" resuming={s['jobs_resuming']}"
            )
        return line

    def trace(self, job_id: str) -> dict:
        """The job's stitched Chrome trace-event JSON (see
        :func:`repro.serve.tracing.stitch_job_trace`)."""
        job = self._job(job_id)
        with job.lock:
            return stitch_job_trace(job)

    # -- scheduler hook ----------------------------------------------------------

    def _tenant(self, tenant: str) -> dict:
        """The per-tenant accumulator; caller holds ``self._lock``."""
        data = self._tenant_stats.get(tenant)
        if data is None:
            data = self._tenant_stats[tenant] = {
                "submitted": 0,
                "finished": 0,
                "failed": 0,
                "ttfrs": [],
                "queue_waits": [],
            }
        return data

    @staticmethod
    def _tenant_summary(data: dict) -> dict:
        return {
            "submitted": data["submitted"],
            "finished": data["finished"],
            "failed": data["failed"],
            "ttfr_p50_seconds": percentile(data["ttfrs"], 0.50),
            "ttfr_p95_seconds": percentile(data["ttfrs"], 0.95),
            "ttfr_p99_seconds": percentile(data["ttfrs"], 0.99),
            "queue_wait_p50_seconds": percentile(data["queue_waits"], 0.50),
            "queue_wait_p99_seconds": percentile(data["queue_waits"], 0.99),
        }

    def _on_finish(self, job: JobRecord) -> None:
        with self._lock:
            self._finished += 1
            if job.state in (FAILED, CANCELLED):
                self._failed += job.state == FAILED
            if job.state == DEGRADED:
                self._degraded += 1
            if job.ttfr_seconds is not None:
                self._ttfrs.append(job.ttfr_seconds)
            tenant = self._tenant(job.tenant)
            tenant["finished"] += 1
            tenant["failed"] += job.state == FAILED
            if job.ttfr_seconds is not None:
                tenant["ttfrs"].append(job.ttfr_seconds)
            if job.dequeued_wall is not None:
                tenant["queue_waits"].append(
                    max(0.0, job.dequeued_wall - job.submitted_wall)
                )


def analyze_once(
    trace: Union[str, os.PathLike],
    *,
    options: AnalysisOptions,
    obs: Optional[Instrumentation] = None,
) -> AnalysisResult:
    """Analyze one trace on a service that lives for this call only.

    ``options.workers`` process workers run the shards.  The service
    keeps no result cache of its own, so ``options.fastpath`` alone
    decides caching, as in serial mode.  Quarantine is off: a shard that
    fails fails the call with :class:`~repro.serve.errors.JobFailedError`
    instead of returning a partial race set.

    The job's worker spans land on ``obs.tracer``, one row per worker
    pid, and the merged ledger is published under the ``offline.*``
    names serial mode uses.
    """
    obs = obs or options.obs or get_obs()
    config = ServeConfig(
        workers=options.workers, result_cache=False, quarantine=False,
        options=options,
    )
    with Service(config, obs=obs) as service:
        job_id = service.submit(trace, integrity=options.integrity)
        result = service.result(job_id)
        job = service._job(job_id)
    for pid, spans in job.worker_spans:
        obs.tracer.ingest(spans, tid=pid)
    stats = result.stats
    registry = obs.registry
    stats.publish(registry, AnalysisStats())
    registry.gauge("offline.intervals").set(stats.intervals)
    registry.gauge("offline.concurrent_pairs").set(stats.concurrent_pairs)
    registry.gauge("offline.races").set(len(result.races))
    return result
