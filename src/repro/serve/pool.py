"""The shard worker pool with work stealing and liveness enforcement.

``workers`` logical workers each own a deque of shard tasks.  New work is
dealt round-robin; a worker drains its own deque from the front and, when
empty, *steals from the back* of the longest other deque — the classic
stealing discipline: owners take their oldest (locality-warm) work,
thieves take the newest (least likely to share tree locality with what
the owner is about to run), and load imbalance self-corrects without a
central rebalancer.

Execution is either in-process (thread workers — deterministic, cheap,
what the unit tests use) or shipped to a ``ProcessPoolExecutor`` slot
(real parallelism for production shards; each logical worker keeps at
most one process task in flight, so stealing decisions always act on
the true remaining backlog).

Transient I/O failures during shard execution retry under the service's
one :class:`~repro.serve.retry.RetryPolicy`; anything that still fails
is reported to the task's callback, never raised on a pool thread.

Liveness is enforced at two levels.  Per shard, a ``timeout_s`` deadline
(from the spec, falling back to the pool default) bounds execution:
process workers are polled against it and a stuck worker is declared
timed out, its executor recycled so the slot is reclaimed; thread
workers check cooperatively after the fact (they cannot be interrupted,
but the deterministic test substrate still sees the contract fire).
Pool-wide, a supervisor thread watches in-flight shards and the process
executor's health: a crashed worker (SIGKILL, OOM — surfacing as a
broken executor) gets its shard *requeued* up to ``max_shard_crashes``
attempts before the error is reported for quarantine, and a broken idle
executor is recycled proactively so the next shard finds a live pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs import Instrumentation, SECONDS_BUCKETS, get_obs
from .errors import PoolClosedError, ShardTimeoutError, WorkerCrashError
from .retry import RetryPolicy
from .shards import ShardSpec
from .workers import ShardOutcome, run_shard

#: How often (seconds) the supervisor and the process-result poll wake.
_LIVENESS_TICK = 0.05


@dataclass(slots=True)
class ShardTask:
    """One queued shard plus its completion plumbing.

    ``on_done(outcome, error)`` is called exactly once — with an
    outcome, or with the error that exhausted the retry policy, or with
    ``(None, None)`` when the task was skipped because ``cancelled()``
    turned true before execution.
    """

    spec: ShardSpec
    on_done: Callable[[Optional[ShardOutcome], Optional[BaseException]], None]
    cancelled: Callable[[], bool] = field(default=lambda: False)
    #: Wall-clock attempt records appended by the pool (one per
    #: execution attempt, with ``error`` on failures) — the scheduler
    #: turns these into retry/backoff spans on the stitched trace.
    events: list = field(default_factory=list)
    #: Process-worker crash/timeout count for this shard; at
    #: ``max_shard_crashes`` the error is reported instead of requeued.
    crashes: int = 0
    #: Set by the supervisor when this task's deadline passed while a
    #: process worker held it (the poll loop turns it into an error).
    timed_out: bool = False


class WorkStealingPool:
    """Fixed set of logical workers over deques with back-steals."""

    def __init__(
        self,
        workers: int,
        *,
        use_processes: bool = True,
        retry: RetryPolicy | None = None,
        obs: Optional[Instrumentation] = None,
        default_timeout_s: Optional[float] = None,
        max_shard_crashes: int = 2,
    ) -> None:
        self.workers = max(1, workers)
        self.use_processes = use_processes
        self.retry = retry or RetryPolicy(retries=0)
        self.obs = obs or get_obs()
        self.default_timeout_s = default_timeout_s
        self.max_shard_crashes = max(1, max_shard_crashes)
        self._deques: list[deque[ShardTask]] = [
            deque() for _ in range(self.workers)
        ]
        self._cv = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._supervisor: Optional[threading.Thread] = None
        #: Set by close(); the supervisor sleeps out its ticks on it.
        self._stopping = threading.Event()
        self._executor: ProcessPoolExecutor | None = None
        self._exec_lock = threading.Lock()
        #: In-flight process shards: id(task) -> (task, deadline | None).
        self._inflight: dict[int, tuple[ShardTask, Optional[float]]] = {}
        self._closed = False
        self._rr = 0
        self.executed = 0
        self.skipped = 0
        self.steals = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.requeues = 0
        registry = self.obs.registry
        self._m_executed = registry.counter(
            "serve.shards_executed", "shards run to completion"
        )
        self._m_steals = registry.counter(
            "serve.shard_steals", "shards taken from another worker's deque"
        )
        self._m_retries = registry.counter(
            "serve.shard_retries", "shard attempts retried after transient I/O"
        )
        self._m_timeouts = registry.counter(
            "serve.shard_timeouts", "shards that exceeded their timeout_s"
        )
        self._m_crashes = registry.counter(
            "serve.worker_crashes", "process workers lost mid-shard"
        )
        self._m_seconds = registry.histogram(
            "serve.shard_seconds", "per-shard wall time",
            buckets=SECONDS_BUCKETS,
        )
        self._m_backoff = registry.histogram(
            "serve.retry_backoff_seconds",
            "backoff delay chosen before each shard retry",
            buckets=SECONDS_BUCKETS,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "WorkStealingPool":
        if self._threads:
            return self
        if self.use_processes:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(wid,),
                name=f"serve-worker-{wid}",
                daemon=True,
            )
            for wid in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Shut the pool down.

        ``wait=True`` (graceful) drains every queued shard first.
        ``wait=False`` cancels queued shards instead: each pending
        task's callback fires with :class:`~repro.serve.errors.
        PoolClosedError`, so its job reaches a terminal failed state
        with a cause — never stranded in RUNNING forever.
        """
        dropped: list[ShardTask] = []
        with self._cv:
            self._closed = True
            if not wait:
                for dq in self._deques:
                    dropped.extend(dq)
                    dq.clear()
            self._cv.notify_all()
        self._stopping.set()
        for task in dropped:
            self._journal("shard-cancel", task, reason="pool-closed")
            try:
                task.on_done(None, PoolClosedError())
            except Exception:
                pass  # a callback bug must not abort the shutdown
        if wait:
            for thread in self._threads:
                thread.join()
            if self._supervisor is not None:
                self._supervisor.join()
                self._supervisor = None
        with self._exec_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    @property
    def backlog(self) -> int:
        with self._cv:
            return sum(len(d) for d in self._deques)

    # -- submission --------------------------------------------------------------

    def submit(self, task: ShardTask) -> None:
        """Deal one shard to the next worker (round-robin)."""
        with self._cv:
            self._deques[self._rr % self.workers].append(task)
            self._rr += 1
            self._cv.notify_all()

    # -- the worker loop ---------------------------------------------------------

    def _take(self, wid: int) -> Optional[ShardTask]:
        """Own work from the front, else steal from the longest back."""
        own = self._deques[wid]
        if own:
            return own.popleft()
        victim = max(
            (d for i, d in enumerate(self._deques) if i != wid),
            key=len,
            default=None,
        )
        if victim:
            self.steals += 1
            self._m_steals.inc()
            task = victim.pop()
            self._journal("shard-steal", task, thief=wid)
            return task
        return None

    def _journal(self, kind: str, task: ShardTask, **fields) -> None:
        """Record one pool lifecycle event with the shard's context.

        Unit tests drive the pool with bare stand-in specs, so the
        correlation fields are read defensively.
        """
        spec = task.spec
        self.obs.journal.record(
            kind,
            job=getattr(spec, "job_id", None),
            shard=getattr(spec, "index", None),
            tenant=getattr(spec, "tenant", None) or None,
            trace_id=getattr(spec, "trace_id", None) or None,
            **fields,
        )

    # -- execution ---------------------------------------------------------------

    def _timeout_for(self, spec) -> Optional[float]:
        return getattr(spec, "timeout_s", None) or self.default_timeout_s

    def _execute(self, spec: ShardSpec) -> ShardOutcome:
        """Run one shard in this thread (the unit-test/chaos seam)."""
        return run_shard(spec)

    def _recycle_executor(self, reason: str) -> None:
        """Replace the process executor (a worker is stuck or dead).

        The stale executor's worker processes are terminated so a stuck
        shard stops burning a core; its other in-flight futures surface
        as broken-executor errors and requeue via the crash path.
        """
        with self._exec_lock:
            stale = self._executor
            if stale is None or self._closed:
                return
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        self.obs.journal.record("pool-recycle", reason=reason)
        for proc in list(getattr(stale, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        stale.shutdown(wait=False)

    def _run_process(self, task: ShardTask) -> ShardOutcome:
        """Ship one shard to a process slot, polled against its deadline."""
        spec = task.spec
        timeout = self._timeout_for(spec)
        with self._exec_lock:
            executor = self._executor
        if executor is None:
            raise WorkerCrashError(
                getattr(spec, "index", None), "executor is gone"
            )
        try:
            future = executor.submit(run_shard, spec)
        except (BrokenExecutor, RuntimeError) as exc:
            self._recycle_executor(f"submit failed: {exc}")
            raise WorkerCrashError(
                getattr(spec, "index", None), f"{type(exc).__name__}: {exc}"
            ) from exc
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        key = id(task)
        with self._cv:
            self._inflight[key] = (task, deadline)
        try:
            while True:
                try:
                    return future.result(timeout=_LIVENESS_TICK)
                except FuturesTimeoutError:
                    overdue = task.timed_out or (
                        deadline is not None
                        and time.perf_counter() > deadline
                    )
                    if overdue:
                        self._recycle_executor(
                            f"shard {getattr(spec, 'index', '?')} stuck"
                        )
                        raise ShardTimeoutError(
                            getattr(spec, "index", None), timeout or 0.0
                        ) from None
                except BrokenExecutor as exc:
                    self._recycle_executor(f"worker died: {exc}")
                    raise WorkerCrashError(
                        getattr(spec, "index", None),
                        f"{type(exc).__name__}: {exc}",
                    ) from exc
        finally:
            with self._cv:
                self._inflight.pop(key, None)
                task.timed_out = False

    def _run_task(self, task: ShardTask) -> ShardOutcome:
        """One execution of the task's spec, deadline enforced."""
        with self._exec_lock:
            has_executor = self._executor is not None
        if has_executor:
            return self._run_process(task)
        t0 = time.perf_counter()
        outcome = self._execute(task.spec)
        timeout = self._timeout_for(task.spec)
        if timeout is not None and time.perf_counter() - t0 > timeout:
            # Thread workers cannot be interrupted; the deadline still
            # fires (cooperatively, after the fact) so the contract is
            # identical across both substrates.
            raise ShardTimeoutError(
                getattr(task.spec, "index", None), timeout
            )
        return outcome

    def _attempt(self, task: ShardTask) -> ShardOutcome:
        """One execution attempt, recorded on the task's event list."""
        record = {"kind": "attempt", "start": time.time()}
        task.events.append(record)
        try:
            outcome = self._run_task(task)
        except BaseException as exc:
            record["end"] = time.time()
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        record["end"] = time.time()
        return outcome

    def _count_retry(self, task: ShardTask) -> None:
        self.retries += 1
        self._m_retries.inc()
        self._journal("shard-retry", task, attempts=len(task.events))

    def _requeue_crashed(self, task: ShardTask, exc: BaseException) -> bool:
        """Give a crashed/timed-out shard another life, bounded.

        Returns True when the shard was requeued; False when its crash
        budget is spent and the error must be reported (the scheduler
        then quarantines the shard rather than failing the job).
        """
        task.crashes += 1
        if isinstance(exc, ShardTimeoutError):
            self.timeouts += 1
            self._m_timeouts.inc()
        else:
            self.crashes += 1
            self._m_crashes.inc()
        if task.crashes >= self.max_shard_crashes or self._closed:
            return False
        self.requeues += 1
        self._journal(
            "shard-requeue", task,
            crashes=task.crashes, error=f"{type(exc).__name__}: {exc}",
        )
        self.submit(task)
        return True

    def _worker_loop(self, wid: int) -> None:
        while True:
            with self._cv:
                task = self._take(wid)
                if task is None:
                    if self._closed:
                        return
                    self._cv.wait(timeout=_LIVENESS_TICK)
                    continue
            if task.cancelled():
                self.skipped += 1
                self._journal("shard-skip", task)
                self._deliver(task, None, None)
                continue
            self._journal("shard-start", task, worker=wid)
            t0 = time.perf_counter()
            try:
                outcome = self.retry.run(
                    lambda: self._attempt(task),
                    on_retry=lambda: self._count_retry(task),
                    on_backoff=self._m_backoff.observe,
                )
            except (ShardTimeoutError, WorkerCrashError) as exc:
                if self._requeue_crashed(task, exc):
                    continue
                self._journal("shard-error", task, error=str(exc))
                self._deliver(task, None, exc)
                continue
            except BaseException as exc:  # report, never unwind the pool
                self._journal("shard-error", task, error=str(exc))
                self._deliver(task, None, exc)
                continue
            self.executed += 1
            self._m_executed.inc()
            elapsed = time.perf_counter() - t0
            self._m_seconds.observe(elapsed)
            tenant = getattr(task.spec, "tenant", "")
            if tenant:
                self.obs.registry.histogram(
                    "serve.shard_seconds", "per-shard wall time",
                    buckets=SECONDS_BUCKETS, labels={"tenant": tenant},
                ).observe(
                    elapsed,
                    exemplar=getattr(task.spec, "trace_id", "") or None,
                )
            self._deliver(task, outcome, None)

    def _deliver(
        self,
        task: ShardTask,
        outcome: Optional[ShardOutcome],
        error: Optional[BaseException],
    ) -> None:
        """Hand a shard's result to its owner.  A raising callback is
        journalled, never allowed to unwind the worker thread: a dead
        worker strands every shard left on its deque."""
        try:
            task.on_done(outcome, error)
        except Exception as exc:
            self._journal(
                "shard-callback-error", task,
                error=f"{type(exc).__name__}: {exc}",
            )

    # -- the supervisor ----------------------------------------------------------

    def _supervise(self) -> None:
        """Liveness monitor: flag overdue in-flight shards, heal the pool.

        The per-task poll loop is the primary deadline enforcement; the
        supervisor backs it up by marking overdue tasks (so a poll that
        raced the deadline sees the verdict) and proactively recycles a
        broken idle executor so the *next* shard finds a live pool
        instead of discovering the corpse itself.
        """
        while not self._stopping.wait(_LIVENESS_TICK):
            with self._cv:
                now = time.perf_counter()
                for key, (task, deadline) in list(self._inflight.items()):
                    if deadline is not None and now > deadline:
                        task.timed_out = True
            with self._exec_lock:
                executor = self._executor
            if executor is not None and getattr(executor, "_broken", False):
                self._recycle_executor("broken executor detected idle")
