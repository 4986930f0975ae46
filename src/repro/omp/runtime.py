"""The simulated OpenMP runtime.

This is the substrate standing in for LLVM-instrumented binaries running on a
real OpenMP runtime (see DESIGN.md §2).  Model programs are ordinary Python
functions executed over a pool of simulated threads:

* :class:`OpenMPRuntime` owns the scheduler, the worker pool, the simulated
  address space, lock registries, and the attached OMPT tool;
* :class:`ParallelRegion` / :class:`Team` model one ``#pragma omp parallel``
  instance — the encountering thread becomes team member 0 (exactly as in
  OpenMP) and additional members come from the worker pool, so worker
  identities (and hence per-thread trace files) persist across regions;
* threads carry classic offset-span labels (maintained with the
  Mellor-Crummey fork/join/barrier rules) *and* the structural frame stack
  from which barrier-interval labels are derived.

Everything observable by a race detector flows through the
:class:`~repro.omp.ompt.OmptTool` callbacks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..common.config import RunConfig
from ..common.errors import RuntimeModelError
from ..common.ids import NO_REGION, RuntimeIds
from ..memory.accounting import NodeMemory
from ..memory.address_space import AddressSpace
from ..osl.concurrency import IntervalLabel, IntervalPair
from ..osl.labels import Label, after_barrier, after_join, fork, initial_label
from ..tasking.graph import encode_point
from .mutexset import MutexSetTable
from .ompt import OmptTool
from .scheduler import Scheduler, ThreadHandle, spawn_thread


@dataclass(slots=True)
class ParallelRegion:
    """One dynamic instance of a parallel region.

    ``chain_prefix`` is the encountering thread's barrier-interval chain at
    fork time; member intervals extend it with their own leaf pair.  The
    SWORD tool does *not* read it — it reconstructs the same chain offline
    from the pid/ppid metadata — but the test oracle and ARCHER may.
    """

    pid: int
    ppid: int
    level: int
    span: int
    parent_gid: int
    parent_slot: int
    parent_bid: int
    chain_prefix: IntervalLabel
    parent_classic_label: Label


class Team:
    """The set of threads executing one parallel region."""

    def __init__(self, region: ParallelRegion) -> None:
        self.region = region
        self.size = region.span
        self.members: list["SimThread"] = []
        # Barrier rendezvous state (cleared by the last arriver).
        self.barrier_arrived = 0
        self.barrier_waiting: list[ThreadHandle] = []
        # Join bookkeeping: non-master members retired so far.
        self.retired = 0
        self.join_waiter: Optional[ThreadHandle] = None
        # Worksharing constructs, keyed by per-thread encounter sequence
        # (SPMD programs reach constructs in the same order on all threads).
        self.workshares: dict[int, "WorkShare"] = {}
        self.single_claims: dict[int, int] = {}
        # Deferred explicit tasks awaiting execution (tasking extension).
        self.task_queue: list["TaskObj"] = []
        # Access pcs whose event emission the static pre-screener elided
        # (set at registration when the region carries a RegionSpec and
        # every attached tool consented).
        self.static_elide: frozenset[int] = frozenset()


class TaskObj:
    """One explicit OpenMP task (the tasking extension).

    A task is created at a point on its creator's timeline (``create_seq``)
    and executed later, by any team member, at a task scheduling point
    (``taskwait`` or a barrier).  Its own accesses advance its private
    ``tseq`` timeline so nested creations order correctly.
    """

    __slots__ = (
        "task_id", "fn", "args", "creator_entity", "creator_gid",
        "create_seq", "pid", "bid", "tseq", "children", "done", "waited",
    )

    def __init__(
        self,
        task_id: int,
        fn: Callable[..., Any],
        args: tuple,
        creator_entity: int,
        creator_gid: int,
        create_seq: int,
        pid: int,
        bid: int,
    ) -> None:
        self.task_id = task_id
        self.fn = fn
        self.args = args
        self.creator_entity = creator_entity
        self.creator_gid = creator_gid
        self.create_seq = create_seq
        self.pid = pid
        self.bid = bid
        self.tseq = 0
        self.children: list["TaskObj"] = []
        self.done = False
        self.waited = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TaskObj {self.task_id} by ent {self.creator_entity}>"


class WorkShare:
    """Shared iteration dispenser for dynamic/guided loop schedules."""

    __slots__ = ("total", "next")

    def __init__(self, total: int) -> None:
        self.total = total
        self.next = 0

    def grab(self, chunk: int) -> tuple[int, int] | None:
        """Take the next chunk of iterations, or None when exhausted."""
        if self.next >= self.total:
            return None
        lo = self.next
        hi = min(self.total, lo + chunk)
        self.next = hi
        return lo, hi


@dataclass(slots=True)
class TaskFrame:
    """One thread's membership in one team (stacked for nesting)."""

    team: Team
    slot: int
    bid: int = 0
    ws_seq: int = 0
    #: Implicit-task timeline: advances at task creations and taskwaits.
    tseq: int = 0
    #: Pending explicit children of this implicit task.
    children: list = field(default_factory=list)


class SimLock:
    """A cooperative mutex (``omp_lock_t`` / named critical section)."""

    __slots__ = ("lock_id", "name", "owner", "waiters")

    def __init__(self, lock_id: int, name: str = "") -> None:
        self.lock_id = lock_id
        self.name = name or f"lock-{lock_id}"
        self.owner: Optional["SimThread"] = None
        self.waiters: list[ThreadHandle] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimLock {self.name} id={self.lock_id}>"


class SimThread:
    """One simulated OpenMP runtime thread (a pooled worker or the initial
    thread).  Its identity — and so its SWORD log file — persists across the
    parallel regions it participates in."""

    def __init__(self, gid: int, name: str, runtime: "OpenMPRuntime") -> None:
        self.gid = gid
        self.name = name
        self.runtime = runtime
        self.handle = ThreadHandle(gid, name)
        self.frames: list[TaskFrame] = []
        self.classic_label: Label = initial_label()
        self.held: list[int] = []
        self._msid: Optional[int] = 0  # cached; empty set is msid 0
        self._ops = 0
        # Worker-pool assignment slot, consumed by the worker loop.
        self.assignment: Optional[tuple] = None
        # Explicit tasks this thread is currently executing (innermost last).
        self.task_stack: list[TaskObj] = []

    # -- structural queries --------------------------------------------------

    @property
    def frame(self) -> TaskFrame:
        if not self.frames:
            raise RuntimeModelError(
                f"{self.name}: operation requires a parallel region context"
            )
        return self.frames[-1]

    @property
    def level(self) -> int:
        """Nesting level: 0 outside regions, 1 in a top-level region, ...

        Uses the region's level, not the frame-stack depth: a pooled worker
        recruited straight into a nested team has one frame but executes at
        the region's depth.
        """
        return self.frames[-1].team.region.level if self.frames else 0

    def interval_chain(self) -> IntervalLabel:
        """Barrier-interval label of the thread's current interval.

        The ancestor part comes from the region (its encountering thread's
        chain at fork time); only the leaf pair is this thread's own.
        """
        if not self.frames:
            return ()
        f = self.frames[-1]
        region = f.team.region
        return region.chain_prefix + (
            IntervalPair(region.pid, f.slot, f.bid, f.team.size),
        )

    def current_msid(self) -> int:
        """Interned id of the currently held mutex set."""
        if self._msid is None:
            self._msid = self.runtime.mutexsets.intern(frozenset(self.held))
        return self._msid

    def current_point(self) -> int:
        """Encoded execution point ``(entity, seq)`` for access tagging."""
        if self.task_stack:
            task = self.task_stack[-1]
            return encode_point(task.task_id, task.tseq)
        if self.frames:
            return encode_point(0, self.frames[-1].tseq)
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name} gid={self.gid} level={self.level}>"


class OpenMPRuntime:
    """Owner of one simulated program execution.

    Typical use::

        rt = OpenMPRuntime(RunConfig(nthreads=8), tool=my_tool)
        rt.run(program)          # program(master: MasterContext)

    A runtime instance executes exactly one program run; create a fresh one
    per run (tools usually keep per-run state too).
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        tool: OmptTool | None = None,
        accountant: NodeMemory | None = None,
        address_space: AddressSpace | None = None,
    ) -> None:
        self.config = config or RunConfig()
        self.config.validate()
        self.ids = RuntimeIds()
        self.scheduler = Scheduler(self.config.scheduler)
        self.tool = tool or OmptTool()
        self.accountant = accountant
        self.space = address_space or AddressSpace(accountant)
        self.mutexsets = MutexSetTable()
        self._locks: dict[int, SimLock] = {}
        self._critical: dict[str, SimLock] = {}
        self._idle_workers: list[SimThread] = []
        self._all_threads: list[SimThread] = []
        self._ran = False
        self.initial_thread: Optional[SimThread] = None

    # -- top-level run --------------------------------------------------------

    def run(self, program: Callable[..., Any], *args: Any) -> Any:
        """Execute ``program(master, *args)`` to completion.

        Returns the program's return value; re-raises the first failure of
        any simulated thread (including :class:`SimulatedOOMError` from tool
        memory charges).
        """
        from .context import MasterContext  # local import: cycle with context

        if self._ran:
            raise RuntimeModelError("an OpenMPRuntime instance runs only once")
        self._ran = True

        init = SimThread(self.ids.thread.next(), "initial", self)
        self.initial_thread = init
        self._all_threads.append(init)
        self.scheduler.register(init.handle)
        self.tool.on_run_begin(self)

        result: dict[str, Any] = {}

        def _main() -> None:
            result["value"] = program(MasterContext(self, init), *args)

        spawn_thread(self.scheduler, init.handle, _main)
        self.scheduler.start_initial(init.handle)
        self.scheduler.completed.wait()
        self.scheduler.request_shutdown()
        for th in self._all_threads:
            py = th.handle.py_thread
            if py is not None and py is not threading.current_thread():
                py.join(timeout=30.0)
        if self.scheduler.failure is not None:
            raise self.scheduler.failure
        self.tool.on_run_end(self)
        return result.get("value")

    # -- allocation (delegates; sequential code is not instrumented) ----------

    def alloc_array(self, name, shape, dtype=None, **kw):
        import numpy as np

        return self.space.alloc_array(name, shape, dtype or np.float64, **kw)

    # -- locks -----------------------------------------------------------------

    def new_lock(self, name: str = "") -> SimLock:
        """Create a fresh mutex (``omp_init_lock``)."""
        lock = SimLock(self.ids.lock.next(), name)
        self._locks[lock.lock_id] = lock
        return lock

    def critical_lock(self, name: str) -> SimLock:
        """The process-wide lock backing a named critical section."""
        lock = self._critical.get(name)
        if lock is None:
            lock = self.new_lock(f"critical:{name}")
            self._critical[name] = lock
        return lock

    def lock_acquire(self, th: SimThread, lock: SimLock) -> None:
        """Blocking acquire with an arrival-order switch point.

        The pre-acquire yield is what makes lock-acquisition order depend on
        the scheduler seed — the ingredient of the Figure-1 masking pair.
        """
        self.scheduler.switch(th.handle)
        while lock.owner is not None:
            if lock.owner is th:
                raise RuntimeModelError(
                    f"{th.name}: relock of non-recursive {lock.name}"
                )
            lock.waiters.append(th.handle)
            self.scheduler.switch(th.handle, block=True)
        lock.owner = th
        th.held.append(lock.lock_id)
        th._msid = None
        self.tool.on_mutex_acquired(th, lock.lock_id)

    def lock_release(self, th: SimThread, lock: SimLock) -> None:
        if lock.owner is not th:
            raise RuntimeModelError(
                f"{th.name}: releasing {lock.name} it does not hold"
            )
        self.tool.on_mutex_released(th, lock.lock_id)
        lock.owner = None
        th.held.remove(lock.lock_id)
        th._msid = None
        waiters, lock.waiters = lock.waiters, []
        for h in waiters:
            self.scheduler.make_runnable(h)
        self.scheduler.switch(th.handle)

    # -- explicit tasks (tasking extension) --------------------------------------

    def create_task(
        self, th: SimThread, fn: Callable[..., Any], args: tuple
    ) -> "TaskObj":
        """``#pragma omp task``: defer ``fn(ctx, *args)`` for later execution.

        The creation advances the creator entity's timeline, so accesses
        before and after the creation are distinguishable by the offline
        task-ordering judgment.
        """
        frame = th.frame
        if th.task_stack:
            creator = th.task_stack[-1]
            creator_entity = creator.task_id
            create_seq = creator.tseq
            creator.tseq += 1
            children = creator.children
        else:
            creator_entity = 0
            create_seq = frame.tseq
            frame.tseq += 1
            children = frame.children
        task = TaskObj(
            task_id=self.ids.task.next(),
            fn=fn,
            args=args,
            creator_entity=creator_entity,
            creator_gid=th.gid,
            create_seq=create_seq,
            pid=frame.team.region.pid,
            bid=frame.bid,
        )
        children.append(task)
        frame.team.task_queue.append(task)
        self.tool.on_task_create(th, task)
        self.scheduler.switch(th.handle)  # task creation is a scheduling point
        return task

    def taskwait(self, th: SimThread) -> None:
        """``#pragma omp taskwait``: complete the current entity's children.

        Pending children still in the queue are executed inline by the
        waiting thread (our cooperative stand-in for "the thread schedules
        tasks while it waits"); the wait then stamps every child with the
        creator's post-wait sequence so later accesses are ordered after
        them.
        """
        frame = th.frame
        if th.task_stack:
            entity = th.task_stack[-1]
            children = entity.children
        else:
            entity = None
            children = frame.children
        while True:
            pending = [t for t in children if not t.done]
            if not pending:
                break
            ran_one = False
            for task in pending:
                if task in frame.team.task_queue:
                    frame.team.task_queue.remove(task)
                    self._execute_task(th, task)
                    ran_one = True
            if not ran_one:
                # A child is mid-execution on another member: yield until
                # its executor finishes it.
                self.scheduler.switch(th.handle)
        # Advance the waiting entity's timeline past the wait.
        if entity is not None:
            entity.tseq += 1
            new_seq = entity.tseq
        else:
            frame.tseq += 1
            new_seq = frame.tseq
        waited = [t for t in children if t.done and not t.waited]
        for task in waited:
            task.waited = True
        self.tool.on_taskwait(th, waited, new_seq)
        children.clear()
        self.scheduler.switch(th.handle)

    def _execute_task(self, th: SimThread, task: TaskObj) -> None:
        """Run one deferred task inline on ``th`` (any team member)."""
        from .context import ThreadContext

        self.tool.on_task_begin(th, task)
        th.task_stack.append(task)
        try:
            task.fn(ThreadContext(self, th), *task.args)
        finally:
            th.task_stack.pop()
        # A task's children must complete before the task itself does
        # (implicit taskwait at task end would be `final`; OpenMP only
        # guarantees completion at barriers — leave children queued).
        task.done = True
        self.tool.on_task_end(th, task)

    def _drain_tasks(self, th: SimThread, team: Team) -> None:
        """Execute queued tasks until none remain (barriers do this)."""
        while team.task_queue:
            task = team.task_queue.pop(0)
            self._execute_task(th, task)
            self.scheduler.switch(th.handle)

    # -- barriers ---------------------------------------------------------------

    def barrier(self, th: SimThread) -> None:
        """Team barrier: ends the thread's current barrier interval.

        Arriving threads first drain the team's task queue: OpenMP
        guarantees all explicit tasks complete at a barrier.
        """
        frame = th.frame
        team = frame.team
        self._drain_tasks(th, team)
        self.tool.on_barrier_arrive(th, team.region, frame.bid)
        team.barrier_arrived += 1
        if team.barrier_arrived == team.size:
            team.barrier_arrived = 0
            waiters, team.barrier_waiting = team.barrier_waiting, []
            for h in waiters:
                self.scheduler.make_runnable(h)
            self._depart_barrier(th)
            self.scheduler.switch(th.handle)
        else:
            team.barrier_waiting.append(th.handle)
            self.scheduler.switch(th.handle, block=True)
            self._depart_barrier(th)

    def _depart_barrier(self, th: SimThread) -> None:
        frame = th.frame
        frame.bid += 1
        th.classic_label = after_barrier(th.classic_label)
        self.tool.on_barrier_depart(th, frame.team.region, frame.bid)

    # -- parallel regions ---------------------------------------------------------

    def parallel(
        self,
        me: SimThread,
        nthreads: Optional[int],
        body: Callable[..., Any],
        args: tuple = (),
        static=None,
    ) -> None:
        """Fork a team, run ``body(ctx, *args)`` on every member, and join.

        The encountering thread becomes member 0 and runs the body inline;
        the other members come from the worker pool (created on demand and
        reused across regions, like real OpenMP workers).

        ``static`` is an optional :class:`~repro.static.model.RegionSpec`
        describing the region's access sites.  It is offered to the tool
        (:meth:`~repro.omp.ompt.OmptTool.on_static_region`) before any
        member runs; sites the tool proves race-free have their event
        emission elided for the region's whole execution.
        """
        span = nthreads if nthreads is not None else self.config.nthreads
        if span <= 0:
            raise RuntimeModelError("team size must be positive")
        parent_frame = me.frames[-1] if me.frames else None
        region = ParallelRegion(
            pid=self.ids.parallel.next(),
            ppid=parent_frame.team.region.pid if parent_frame else NO_REGION,
            level=me.level + 1,
            span=span,
            parent_gid=me.gid,
            parent_slot=parent_frame.slot if parent_frame else 0,
            parent_bid=parent_frame.bid if parent_frame else 0,
            chain_prefix=me.interval_chain(),
            parent_classic_label=me.classic_label,
        )
        self.tool.on_parallel_begin(region)
        team = Team(region)
        workers = self._take_workers(span - 1)
        team.members = [me] + workers
        if static is not None:
            # Pre-screening happens with the team formed (verdicts need
            # the real member gids) but before any member executes, so
            # elision is in force for the region's very first access.
            verdicts = self.tool.on_static_region(region, team, static)
            if verdicts is not None:
                team.static_elide = verdicts.elide
        for slot, worker in enumerate(workers, start=1):
            worker.assignment = (team, slot, body, args)
            self.scheduler.make_runnable(worker.handle)

        prefork_label = me.classic_label
        self._run_member(me, team, 0, body, args)

        # Join: wait for every pooled member to retire from the region.
        team.join_waiter = me.handle
        while team.retired < span - 1:
            self.scheduler.switch(me.handle, block=True)
        team.join_waiter = None

        me.classic_label = after_join(prefork_label)
        self.tool.on_parallel_end(region)

    def _run_member(
        self,
        th: SimThread,
        team: Team,
        slot: int,
        body: Callable[..., Any],
        args: tuple,
    ) -> None:
        from .context import ThreadContext  # local import: cycle with context

        region = team.region
        th.frames.append(TaskFrame(team=team, slot=slot))
        th.classic_label = fork(region.parent_classic_label, slot, team.size)
        self.tool.on_implicit_task_begin(th, region, slot)
        if slot > 0:
            # Scheduling point before a worker's body: worker wake-up order
            # is seed-dependent.  The encountering thread (slot 0) continues
            # without yielding, exactly like a real runtime — the "master
            # got a head start" behaviour the paper's §II eviction example
            # builds on.
            self.scheduler.switch(th.handle)
        try:
            body(ThreadContext(self, th), *args)
        except BaseException:
            # Unwind without the implicit barrier: the scheduler aborts the
            # whole run, so teammates blocked at the barrier are woken.
            th.frames.pop()
            raise
        self.barrier(th)  # implicit region-end barrier
        self.tool.on_implicit_task_end(th, region, slot)
        th.frames.pop()

    # -- worker pool -----------------------------------------------------------

    def _take_workers(self, k: int) -> list[SimThread]:
        taken: list[SimThread] = []
        # Deterministic reuse: lowest-gid idle workers first.
        self._idle_workers.sort(key=lambda w: w.gid)
        while self._idle_workers and len(taken) < k:
            taken.append(self._idle_workers.pop(0))
        while len(taken) < k:
            taken.append(self._spawn_worker())
        return taken

    def _spawn_worker(self) -> SimThread:
        gid = self.ids.thread.next()
        worker = SimThread(gid, f"worker-{gid}", self)
        self._all_threads.append(worker)
        self.scheduler.register(worker.handle)
        spawn_thread(self.scheduler, worker.handle, lambda: self._worker_main(worker))
        return worker

    def _worker_main(self, worker: SimThread) -> None:
        self.tool.on_thread_begin(worker)
        try:
            while True:
                assignment = worker.assignment
                worker.assignment = None
                if assignment is None:
                    break
                team, slot, body, args = assignment
                self._run_member(worker, team, slot, body, args)
                self._retire_member(worker, team)
                self._idle_workers.append(worker)
                self.scheduler.park_idle(worker.handle)
        finally:
            if not self.scheduler.aborting:
                self.tool.on_thread_end(worker)

    def _retire_member(self, worker: SimThread, team: Team) -> None:
        team.retired += 1
        if team.retired == team.size - 1 and team.join_waiter is not None:
            self.scheduler.make_runnable(team.join_waiter)

    # -- access emission ---------------------------------------------------------

    def emit_access(self, th: SimThread, access) -> None:
        """Forward an instrumented access to the tool, with periodic yields."""
        self.tool.on_access(th, access)
        every = self.config.scheduler.yield_every
        if every > 0:
            th._ops += 1
            if th._ops >= every:
                th._ops = 0
                self.scheduler.switch(th.handle)

    def emit_access_batch(self, th: SimThread, batch) -> None:
        """Forward a columnar access batch to the tool.

        Yield accounting charges the full batch size so schedules with
        ``yield_every`` still switch at the same access-count cadence; the
        switch lands at the batch boundary (batches are emitted at loop-
        nest granularity, where a scheduling point is natural).
        """
        self.tool.on_access_batch(th, batch)
        every = self.config.scheduler.yield_every
        if every > 0:
            th._ops += len(batch)
            if th._ops >= every:
                th._ops = 0
                self.scheduler.switch(th.handle)

    def elide_access(self, th: SimThread, count: int = 1) -> None:
        """Suppress ``count`` accesses at a statically proven site.

        The tool sees only a counter tick (no event data), but the yield
        accounting is byte-for-byte the accounting :meth:`emit_access` /
        :meth:`emit_access_batch` would have charged — interleavings under
        ``yield_every`` are identical with the pre-screener on or off,
        which is what keeps race sets byte-identical across the two.
        """
        self.tool.on_access_elided(th, count)
        every = self.config.scheduler.yield_every
        if every > 0:
            th._ops += count
            if th._ops >= every:
                th._ops = 0
                self.scheduler.switch(th.handle)

    def yield_point(self, th: SimThread) -> None:
        """Explicit scheduling point (used between dynamic-schedule chunks)."""
        self.scheduler.switch(th.handle)
