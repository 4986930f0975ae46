"""The job scheduler: queue drain, shard fan-out, result merge.

One planner thread pops admitted jobs, decomposes each into shards
(:func:`~repro.serve.shards.plan_shards`, which also decides every pair
the frame digests can — a job with no surviving pair finishes right
there, at plan time) and deals them to the work-stealing pool.  Shard
outcomes come back on pool threads and are merged under the job's lock;
because the race set keeps the canonical witness per pc pair regardless
of insertion order, the merged result is byte-identical to the
single-shot serial analysis no matter how shards interleave, steal, or
retry.

Time-to-first-race is a *service* measurement: the clock starts at
submission (queue wait included) and stops when the first race lands in
the merged set — the moment a ``status`` poll would first show it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from ..obs import Instrumentation, SECONDS_BUCKETS, get_obs, merge_snapshots
from ..offline.options import AnalysisOptions
from .config import ServeConfig
from .errors import PoolClosedError
from .job import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    PLANNING,
    RUNNING,
    DegradationReport,
    JobRecord,
    QuarantinedShard,
    cause_chain,
)
from .pool import ShardTask, WorkStealingPool
from .queue import IngestionQueue
from .shards import ShardPlan, plan_shards
from .tracing import ObsConfig, coord_span, write_job_trace
from .wal import NULL_WAL
from .workers import ShardOutcome


class JobScheduler:
    """Drains the ingestion queue into the shard pool and merges results."""

    def __init__(
        self,
        config: ServeConfig,
        queue: IngestionQueue,
        pool: WorkStealingPool,
        *,
        obs: Optional[Instrumentation] = None,
        on_finish: Optional[Callable[[JobRecord], None]] = None,
        wal=None,
    ) -> None:
        self.config = config
        self.queue = queue
        self.pool = pool
        self.obs = obs or get_obs()
        #: The service's job WAL (the shared no-op when stateless).
        self.wal = wal if wal is not None else NULL_WAL
        #: Service hook, called once per job on entry to a terminal state.
        self.on_finish = on_finish
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        registry = self.obs.registry
        self._m_done = registry.counter(
            "serve.jobs_done", "jobs reaching a terminal state"
        )
        self._m_failed = registry.counter(
            "serve.jobs_failed", "jobs finishing in the failed state"
        )
        self._m_job_seconds = registry.histogram(
            "serve.job_seconds", "submission-to-terminal wall time",
            buckets=SECONDS_BUCKETS,
        )
        self._m_ttfr = registry.histogram(
            "serve.ttfr_seconds",
            "submission to first race merged (racy jobs only)",
            buckets=SECONDS_BUCKETS,
        )
        self._m_cache = registry.counter(
            "serve.cross_job_cache_hits",
            "pair verdicts shards replayed from the shared result cache",
        )
        self._m_queue_wait = registry.histogram(
            "serve.queue_wait_seconds",
            "submission to scheduler dequeue",
            buckets=SECONDS_BUCKETS,
        )
        self._m_quarantined = registry.counter(
            "serve.shards_quarantined",
            "poison shards set aside after exhausting their budget",
        )
        self._m_degraded = registry.counter(
            "serve.jobs_degraded",
            "jobs finishing degraded (partial coverage + report)",
        )
        #: Worker-bundle recipe handed to every shard (None when the
        #: service runs dark — shards then skip instrumentation too).
        self.obs_config = ObsConfig.from_obs(self.obs)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "JobScheduler":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="serve-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def close(self, wait: bool = True) -> None:
        self._stop.set()
        if wait and self._thread is not None:
            self._thread.join()
            self._thread = None

    # -- planning ----------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.05)
            if job is None:
                if self.queue.drained:
                    # Nothing can arrive any more, and get() on a closed
                    # queue returns at once: looping here would spin.
                    return
                continue
            self._record_dequeue(job)
            try:
                self._schedule(job)
            except Exception as exc:
                with job.lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.state = FAILED
                self._finalize(job)

    def _trace_id(self, job: JobRecord) -> Optional[str]:
        return job.trace.trace_id if job.trace is not None else None

    def _record_dequeue(self, job: JobRecord) -> None:
        job.dequeued_wall = time.time()
        wait = max(0.0, job.dequeued_wall - job.submitted_wall)
        job.trace_spans.append(
            coord_span(
                "queue-wait", job.submitted_wall, job.dequeued_wall,
                tenant=job.tenant,
            )
        )
        self._m_queue_wait.observe(wait)
        self.obs.registry.histogram(
            "serve.queue_wait_seconds",
            "submission to scheduler dequeue",
            buckets=SECONDS_BUCKETS,
            labels={"tenant": job.tenant},
        ).observe(wait, exemplar=self._trace_id(job))
        self.obs.journal.record(
            "job-dequeue",
            job=job.job_id,
            tenant=job.tenant,
            trace_id=self._trace_id(job),
            queue_wait_seconds=round(wait, 6),
        )

    def _job_options(self, job: JobRecord) -> AnalysisOptions:
        options = self.config.options.copy()
        options.integrity = job.integrity
        return options

    def _plan(self, job: JobRecord) -> ShardPlan:
        """The job's shard plan (also the chaos harness's seam)."""
        return plan_shards(
            job.trace_path,
            job_id=job.job_id,
            options=self._job_options(job),
            shard_pairs=self.config.shard_pairs,
            min_shards=self.pool.workers,
            cache_dir=self.config.shared_cache_dir(),
            tenant=job.tenant,
            trace_id=self._trace_id(job) or "",
            obs_config=self.obs_config,
            shard_timeout_s=self.config.shard_timeout_s,
        )

    def _schedule(self, job: JobRecord) -> None:
        with job.lock:
            if job.cancelled:
                job.state = CANCELLED
            elif job.deadline_exceeded():
                job.error = (
                    f"JobDeadlineError: job {job.job_id} exceeded "
                    f"deadline_s={job.deadline_s} before planning"
                )
                job.state = FAILED
            else:
                job.state = PLANNING
        if job.state != PLANNING:
            self._finalize(job)  # takes job.lock itself: never under it
            return
        t0 = time.perf_counter()
        plan_wall = time.time()
        plan = self._plan(job)
        plan_seconds = time.perf_counter() - t0
        with job.lock:
            # The plan enters the ledger the way a shard does; its prunes
            # are counted here, once — shards add only what they prune
            # themselves.
            job.stats.merge(plan.stats)
            job.integrity_report = plan.integrity
            job.stats.plan_seconds = plan_seconds
            job.shards_total = len(plan.shards)
            job.pairs_shipped = plan.pairs_shipped
            if self.obs_config is not None and self.obs_config.metrics:
                merge_snapshots(
                    job.worker_metrics, {"counters": plan.stats.counters()}
                )
            job.trace_spans.append(
                coord_span(
                    "plan", plan_wall, plan_wall + plan_seconds,
                    shards=len(plan.shards),
                    pairs=plan.stats.concurrent_pairs,
                    pruned=plan.stats.pairs_pruned,
                )
            )
            # Coordinator-side verdict injection, before any shard lands:
            # a fully elided trace can carry synthesised DEFINITE_RACE
            # reports with zero analyzable pairs.
            self._inject_static_verdicts(job, plan.static_verdicts)
            job.state = RUNNING
            if not plan.shards:
                # No pair survived the plan (or none existed): the job
                # is decided.  The hot path for every fully pruned trace.
                job.stats.races_found = len(job.races)
                self._settle(job)
        self.wal.append(
            "planned",
            job.job_id,
            shards=len(plan.shards),
            pairs=plan.stats.concurrent_pairs,
            pruned=plan.stats.pairs_pruned,
        )
        if not plan.shards:
            self._finalize(job)
            return
        for spec in plan.shards:
            task = ShardTask(
                spec=spec,
                on_done=lambda outcome, error: None,
                cancelled=lambda _job=job: (
                    _job.cancelled or _job.deadline_exceeded()
                ),
            )
            task.on_done = (
                lambda outcome, error, _job=job, _task=task: self._on_shard(
                    _job, outcome, error, _task
                )
            )
            self.pool.submit(task)

    def _inject_static_verdicts(self, job: JobRecord, table) -> None:
        """Fold the trace's static verdict table into the job (once).

        Pair shards only ever analyze planned pairs, so the synthesised
        DEFINITE_RACE reports — which exist *instead of* events — enter
        here at the coordinator.  ``table`` is the one the planner's
        trace open parsed: a corrupt table fails a strict job there, and
        a salvage open drops it to None (UNKNOWN-everything: no reports,
        no counts; the plan's integrity report accounts the loss).
        """
        if table is None:
            return
        job.stats.note_static(table)
        had_races = len(job.races) > 0
        for report in table.race_reports():
            job.races.add(report)
        if not had_races and len(job.races) and job.ttfr_seconds is None:
            job.ttfr_seconds = time.perf_counter() - job.submitted_at

    # -- merging (runs on pool worker threads) -----------------------------------

    def _merge(self, job: JobRecord, outcome: ShardOutcome) -> None:
        """Fold one shard into the job; caller holds ``job.lock``."""
        merge_wall = time.time()
        first = len(job.races) == 0
        for report in outcome.reports():
            job.races.add(report)
        if first and len(job.races) and job.ttfr_seconds is None:
            job.ttfr_seconds = time.perf_counter() - job.submitted_at
        if outcome.integrity is not None:  # a salvage job's shard
            job.integrity_parts[outcome.index] = outcome.integrity
        job.stats.merge(outcome.stats)
        self._m_cache.inc(outcome.stats.pair_cache_hits)
        if outcome.spans:
            job.worker_spans.append((outcome.worker_pid, outcome.spans))
        if outcome.metrics:
            merge_snapshots(job.worker_metrics, outcome.metrics)
        job.trace_spans.append(
            coord_span(
                "merge", merge_wall, time.time(),
                shard=outcome.index, races=len(outcome.rows),
            )
        )

    def _record_attempts(self, job: JobRecord, task: ShardTask) -> None:
        """Failed attempts become retry/backoff spans on the coordinator
        row (successful attempts show up as the worker's shard span).
        Caller holds ``job.lock``."""
        attempts = [e for e in task.events if e.get("kind") == "attempt"]
        for i, event in enumerate(attempts):
            if "error" not in event or "end" not in event:
                continue
            job.trace_spans.append(
                coord_span(
                    "shard-retry", event["start"], event["end"],
                    shard=task.spec.index, error=event["error"],
                )
            )
            if i + 1 < len(attempts):
                job.trace_spans.append(
                    coord_span(
                        "shard-backoff", event["end"],
                        attempts[i + 1]["start"], shard=task.spec.index,
                    )
                )

    def _quarantine(
        self, job: JobRecord, error: BaseException, task: ShardTask
    ) -> None:
        """Set one poison shard aside; caller holds ``job.lock``."""
        shard = QuarantinedShard(
            index=task.spec.index,
            pairs=task.spec.npairs,
            causes=cause_chain(error),
            crashes=task.crashes,
        )
        job.quarantined.append(shard)
        self._m_quarantined.inc()
        self.obs.journal.record(
            "shard-quarantine",
            job=job.job_id,
            shard=shard.index,
            tenant=job.tenant,
            trace_id=self._trace_id(job),
            pairs=shard.pairs,
            crashes=shard.crashes,
            cause=shard.causes[0] if shard.causes else None,
        )

    def _on_shard(
        self,
        job: JobRecord,
        outcome: Optional[ShardOutcome],
        error: Optional[BaseException],
        task: Optional[ShardTask] = None,
    ) -> None:
        finished = False
        with job.lock:
            job.shards_done += 1
            if error is not None:
                # Poison shards (exhausted retry/crash budget) are
                # quarantined so the job can degrade gracefully; a
                # pool shutdown is job-fatal, not a shard defect.
                if (
                    self.config.quarantine
                    and task is not None
                    and not isinstance(error, PoolClosedError)
                ):
                    self._quarantine(job, error, task)
                elif not job.error:
                    job.error = f"{type(error).__name__}: {error}"
            if outcome is not None:
                try:
                    self._merge(job, outcome)
                except Exception as exc:
                    # A half-merged shard leaves the job's result
                    # unknown: fail the job with the cause, and still
                    # count the shard so the job settles.
                    if not job.error:
                        job.error = f"merge: {type(exc).__name__}: {exc}"
            if task is not None:
                self._record_attempts(job, task)
            if job.shards_done >= job.shards_total:
                job.stats.races_found = len(job.races)
                self._settle(job)
                finished = True
        if outcome is not None and task is not None:
            self.wal.append(
                "shard-done",
                job.job_id,
                shard=task.spec.index,
                races=len(outcome.rows),
                pairs=task.spec.npairs,
            )
        if finished:
            self._finalize(job)

    def _settle(self, job: JobRecord) -> None:
        """Pick the terminal state once every shard reported; caller
        holds ``job.lock``.

        Precedence: a job-fatal error beats everything; cancellation
        beats degradation (the caller walked away); a blown deadline is
        job-fatal; quarantined shards degrade the job *if* any shard
        survived to contribute coverage, else the poison consumed the
        whole job and it plainly failed.

        A salvage job's shard reports fold into the plan's, in
        shard-index order: the serial driver's pair order.
        """
        for index in sorted(job.integrity_parts):
            job.integrity_report.merge(job.integrity_parts.pop(index))
        if job.error:
            job.state = FAILED
        elif job.cancelled:
            job.state = CANCELLED
        elif job.deadline_exceeded():
            job.error = (
                f"JobDeadlineError: job {job.job_id} exceeded "
                f"deadline_s={job.deadline_s}"
            )
            job.state = FAILED
        elif job.quarantined:
            if len(job.quarantined) >= job.shards_total:
                first = job.quarantined[0]
                job.error = first.causes[0] if first.causes else "poison shard"
                job.state = FAILED
            else:
                job.degradation = DegradationReport(
                    job_id=job.job_id,
                    shards_total=job.shards_total,
                    pairs_total=job.stats.concurrent_pairs,
                    quarantined=list(job.quarantined),
                )
                job.state = DEGRADED
        else:
            job.state = DONE

    # -- completion --------------------------------------------------------------

    def _finalize(self, job: JobRecord) -> None:
        job.finished_at = time.perf_counter()
        self.queue.release(job)
        self._m_done.inc()
        if job.state == FAILED:
            self._m_failed.inc()
        if job.state == DEGRADED:
            self._m_degraded.inc()
        if job.state in (DONE, DEGRADED):
            self.wal.append("merged", job.job_id, races=len(job.races))
        self.wal.append(
            "finalized",
            job.job_id,
            state=job.state,
            races=len(job.races),
            quarantined=(
                sorted(q.index for q in job.quarantined)
                if job.quarantined
                else None
            ),
        )
        self._m_job_seconds.observe(job.elapsed_seconds)
        if job.ttfr_seconds is not None:
            self._m_ttfr.observe(job.ttfr_seconds)
            self.obs.registry.histogram(
                "serve.ttfr_seconds",
                "submission to first race merged (racy jobs only)",
                buckets=SECONDS_BUCKETS,
                labels={"tenant": job.tenant},
            ).observe(job.ttfr_seconds, exemplar=self._trace_id(job))
        with job.lock:
            # The enclosing "job" bar: Chrome nests same-row spans by
            # time containment, so this parents everything above.
            job.trace_spans.insert(
                0,
                coord_span(
                    "job", job.submitted_wall, time.time(),
                    cat="serve-job", state=job.state, tenant=job.tenant,
                    races=len(job.races),
                ),
            )
        self.obs.journal.record(
            "job-complete",
            job=job.job_id,
            tenant=job.tenant,
            trace_id=self._trace_id(job),
            state=job.state,
            races=len(job.races),
            shards=job.shards_total,
            cache_hits=job.stats.pair_cache_hits,
            quarantined=len(job.quarantined) or None,
            elapsed_seconds=round(job.elapsed_seconds, 6),
            error=job.error or None,
        )
        self._write_artifacts(job)
        if self.on_finish is not None:
            self.on_finish(job)
        job.done.set()

    def _write_artifacts(self, job: JobRecord) -> None:
        """Per-job trace (always), journal slice (failures), and the
        degradation report (degraded jobs)."""
        if self.config.trace_dir is None:
            return
        root = Path(self.config.trace_dir)
        try:
            if job.trace_spans or job.worker_spans:
                write_job_trace(job, root / f"{job.job_id}.trace.json")
            if job.state == FAILED and self.obs.journal.enabled:
                root.mkdir(parents=True, exist_ok=True)
                self.obs.journal.dump(
                    root / f"{job.job_id}.journal.jsonl", job=job.job_id
                )
            if job.degradation is not None:
                root.mkdir(parents=True, exist_ok=True)
                (root / f"{job.job_id}.degradation.json").write_text(
                    json.dumps(job.degradation.to_json(), indent=2)
                )
        except OSError:
            # Trace artifacts are best-effort: a full disk must not turn
            # a finished job into a failed one.
            pass
