"""The async ingestion queue: admission control for trace submissions.

Submissions are non-blocking by default: ``submit`` either admits the
job immediately or raises an admission error the caller can act on —
:class:`~repro.serve.errors.QuotaExceededError` when the tenant is over
its in-flight budget, :class:`~repro.serve.errors.BackpressureError`
when the queue itself is full.  ``block=True`` turns backpressure into
flow control instead: the submitter waits (bounded by ``timeout``) for
a slot, which is how a well-behaved producer paces itself to the
service's drain rate.

Quota accounting covers the job's whole life, not just its time in the
queue: a tenant's budget is released only when its job reaches a
terminal state, so a tenant cannot sidestep its quota by keeping the
scheduler busy.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from ..obs import Instrumentation, get_obs
from .config import ServeConfig
from .errors import BackpressureError, QuotaExceededError, ServiceClosedError
from .job import JobRecord


class IngestionQueue:
    """Bounded FIFO of admitted jobs with per-tenant quotas."""

    def __init__(
        self, config: ServeConfig, obs: Optional[Instrumentation] = None
    ) -> None:
        self.config = config
        self.obs = obs or get_obs()
        self._items: deque[JobRecord] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        #: Per-tenant in-flight accounting (admitted, not yet terminal).
        self._pending_jobs: dict[str, int] = {}
        self._pending_bytes: dict[str, int] = {}
        registry = self.obs.registry
        self._m_depth = registry.gauge(
            "serve.queue_depth", "jobs admitted and not yet scheduled"
        )
        self._m_admitted = registry.counter(
            "serve.jobs_admitted", "jobs accepted by the ingestion queue"
        )
        self._m_quota = registry.counter(
            "serve.quota_rejections", "submissions rejected by tenant quota"
        )
        self._m_backpressure = registry.counter(
            "serve.backpressure_rejections",
            "submissions rejected by a full queue",
        )

    # -- admission ---------------------------------------------------------------

    def _journal(self, kind: str, job: JobRecord, **fields) -> None:
        self.obs.journal.record(
            kind,
            job=job.job_id,
            tenant=job.tenant,
            trace_id=job.trace.trace_id if job.trace else None,
            **fields,
        )

    def _reject_quota(self, job: JobRecord, reason: str) -> None:
        self._m_quota.inc()
        self.obs.registry.counter(
            "serve.quota_rejections",
            "submissions rejected by tenant quota",
            labels={"tenant": job.tenant},
        ).inc()
        self._journal("quota-reject", job, reason=reason)
        raise QuotaExceededError(job.tenant, reason)

    def _check_quota(self, job: JobRecord) -> None:
        quota = self.config.quota
        pending = self._pending_jobs.get(job.tenant, 0)
        if pending >= quota.max_pending:
            self._reject_quota(
                job,
                f"{pending} job(s) already in flight "
                f"(max_pending={quota.max_pending})",
            )
        if quota.max_pending_bytes is not None:
            in_flight = self._pending_bytes.get(job.tenant, 0)
            if in_flight + job.triage.log_bytes > quota.max_pending_bytes:
                self._reject_quota(
                    job,
                    f"{in_flight + job.triage.log_bytes} trace bytes would be "
                    f"in flight (max_pending_bytes={quota.max_pending_bytes})",
                )

    def submit(
        self,
        job: JobRecord,
        *,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> None:
        """Admit one job or raise an admission error.

        Quota is checked before capacity so an over-quota tenant cannot
        occupy a scarce queue slot, and — with ``block=True`` — cannot
        stall waiting for one either.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            self._check_quota(job)
            blocked = False
            while len(self._items) >= self.config.queue_capacity:
                if not block:
                    self._reject_backpressure(job)
                if not blocked:
                    blocked = True
                    self.obs.registry.counter(
                        "serve.backpressure_blocks",
                        "blocking submissions paced by a full queue",
                        labels={"tenant": job.tenant},
                    ).inc()
                    self._journal(
                        "backpressure-block", job, depth=len(self._items)
                    )
                if not self._not_full.wait(timeout=timeout):
                    self._reject_backpressure(job)
                if self._closed:
                    raise ServiceClosedError("service is shut down")
                # Capacity freed while waiting — re-check quota too: other
                # submissions for this tenant may have been admitted.
                self._check_quota(job)
            self._pending_jobs[job.tenant] = (
                self._pending_jobs.get(job.tenant, 0) + 1
            )
            self._pending_bytes[job.tenant] = (
                self._pending_bytes.get(job.tenant, 0) + job.triage.log_bytes
            )
            self._items.append(job)
            self._m_admitted.inc()
            self._m_depth.set(len(self._items))
            self._journal(
                "job-submit",
                job,
                bytes=job.triage.log_bytes,
                threads=job.triage.threads,
                integrity=job.integrity,
                depth=len(self._items),
            )
            self._not_empty.notify()

    def readmit(self, job: JobRecord) -> None:
        """Re-enqueue a WAL-replayed job, bypassing quota and capacity.

        A resumed job was *already admitted* before the crash — its
        tenant paid the quota then, and rejecting it now would turn a
        restart into data loss.  Pending accounting is still charged so
        the eventual :meth:`release` balances, and capacity is allowed
        to overshoot transiently (the scheduler drains in FIFO order, so
        resumed jobs go first anyway).
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            self._pending_jobs[job.tenant] = (
                self._pending_jobs.get(job.tenant, 0) + 1
            )
            self._pending_bytes[job.tenant] = (
                self._pending_bytes.get(job.tenant, 0) + job.triage.log_bytes
            )
            self._items.append(job)
            self._m_admitted.inc()
            self._m_depth.set(len(self._items))
            self._journal("job-readmit", job, depth=len(self._items))
            self._not_empty.notify()

    def _reject_backpressure(self, job: JobRecord) -> None:
        self._m_backpressure.inc()
        self.obs.registry.counter(
            "serve.backpressure_rejections",
            "submissions rejected by a full queue",
            labels={"tenant": job.tenant},
        ).inc()
        self._journal("backpressure-reject", job, depth=len(self._items))
        raise BackpressureError(len(self._items), self.config.queue_capacity)

    # -- draining ----------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the next job (FIFO), or None on timeout/closed-and-empty."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            job = self._items.popleft()
            self._m_depth.set(len(self._items))
            self._not_full.notify()
            return job

    def release(self, job: JobRecord) -> None:
        """Return a terminal job's quota to its tenant."""
        with self._lock:
            count = self._pending_jobs.get(job.tenant, 0)
            if count <= 1:
                self._pending_jobs.pop(job.tenant, None)
            else:
                self._pending_jobs[job.tenant] = count - 1
            in_flight = self._pending_bytes.get(job.tenant, 0)
            remaining = in_flight - job.triage.log_bytes
            if remaining <= 0:
                self._pending_bytes.pop(job.tenant, None)
            else:
                self._pending_bytes[job.tenant] = remaining

    # -- introspection / lifecycle ------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def drained(self) -> bool:
        """Closed and empty: :meth:`get` can only ever return None."""
        with self._lock:
            return self._closed and not self._items

    def pending(self, tenant: str) -> int:
        """Jobs this tenant has in flight (queued or running)."""
        with self._lock:
            return self._pending_jobs.get(tenant, 0)

    def close(self) -> None:
        """Stop admissions and wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
