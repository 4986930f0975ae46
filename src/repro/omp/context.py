"""User-facing contexts for model programs.

A model workload is a function ``program(master: MasterContext)``.  The
master context allocates shared arrays and forks parallel regions; inside a
region each team member receives a :class:`ThreadContext` offering the
OpenMP-shaped surface: thread ids, worksharing loops with OpenMP schedules
(including ``nowait``), barriers, critical sections and locks, atomics, and
``single``/``master``/``sections`` — plus the *instrumented* memory-access
API that both performs the real NumPy operation and emits the access event
race detectors consume.

Accesses in sequential context (the master outside any region) touch the
arrays directly and are **not** instrumented, matching the paper ("we ignore
sequential instructions as they cannot race").
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..common.errors import RuntimeModelError
from ..common.events import Access, AccessBatch
from ..common.sourceloc import pc_of
from ..memory.address_space import SharedArray
from .runtime import OpenMPRuntime, SimLock, SimThread, WorkShare


def _auto_pc(depth: int = 2) -> int:
    """Derive a program counter from the caller's source position.

    Hot workload loops should pass an explicit ``pc`` (interned once via
    :func:`repro.common.sourceloc.pc_of`); this fallback keeps casual code
    and tests readable.
    """
    frame = sys._getframe(depth)
    code = frame.f_code
    filename = code.co_filename.rsplit("/", 1)[-1]
    return pc_of(filename, frame.f_lineno, code.co_name)


class MasterContext:
    """Sequential (non-instrumented) context of the initial thread."""

    def __init__(self, runtime: OpenMPRuntime, thread: SimThread) -> None:
        self.runtime = runtime
        self.thread = thread

    # -- allocation ------------------------------------------------------------

    def alloc_array(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        fill: float | int | None = 0,
        sim_scale: int = 1,
    ) -> SharedArray:
        """Allocate a shared array in the simulated address space."""
        return self.runtime.space.alloc_array(
            name, shape, dtype, fill=fill, sim_scale=sim_scale
        )

    def alloc_scalar(
        self, name: str, dtype: Any = np.float64, *, fill: float | int = 0
    ) -> SharedArray:
        """Allocate a shared scalar."""
        return self.runtime.space.alloc_scalar(name, dtype, fill=fill)

    # -- locks -------------------------------------------------------------------

    def new_lock(self, name: str = "") -> SimLock:
        """Create a mutex usable from any region of this run."""
        return self.runtime.new_lock(name)

    # -- regions -------------------------------------------------------------------

    def parallel(
        self,
        body: Callable[..., Any],
        *args: Any,
        nthreads: Optional[int] = None,
        static: Optional[Any] = None,
    ) -> None:
        """Fork a parallel region (``#pragma omp parallel``).

        ``static`` optionally carries a
        :class:`~repro.static.model.RegionSpec` describing the region's
        affine access sites; the attached tool pre-screens them before
        the body runs and proven-free sites skip event emission.
        """
        self.runtime.parallel(self.thread, nthreads, body, args, static=static)

    # -- direct (uninstrumented) data helpers ---------------------------------------

    @staticmethod
    def data(arr: SharedArray) -> np.ndarray:
        """Raw backing array for sequential setup/verification code."""
        return arr.data


class ThreadContext:
    """API surface available to a team member inside a parallel region."""

    def __init__(self, runtime: OpenMPRuntime, thread: SimThread) -> None:
        self.runtime = runtime
        self.thread = thread
        self._frame = thread.frame
        # Sites the static pre-screener proved race-free (or reported
        # without running): their events are suppressed before emission.
        self._elide = self._frame.team.static_elide

    # -- identity -------------------------------------------------------------------

    @property
    def tid(self) -> int:
        """``omp_get_thread_num()``: slot within the current team."""
        return self._frame.slot

    @property
    def nthreads(self) -> int:
        """``omp_get_num_threads()``: current team size."""
        return self._frame.team.size

    @property
    def level(self) -> int:
        """``omp_get_level()``: nesting depth of the current region."""
        return self.thread.level

    @property
    def gid(self) -> int:
        """Global simulated-thread id (identifies the per-thread log file)."""
        return self.thread.gid

    # -- instrumented memory accesses -------------------------------------------------

    def _emit(
        self,
        addr: int,
        size: int,
        count: int,
        stride: int,
        is_write: bool,
        is_atomic: bool,
        pc: Optional[int],
    ) -> None:
        if self._elide and pc is not None and pc in self._elide:
            # Data movement already happened in the caller; only the
            # event is suppressed (yield accounting still charged).
            self.runtime.elide_access(self.thread, 1)
            return
        access = Access(
            addr=addr,
            size=size,
            count=count,
            stride=stride,
            is_write=is_write,
            is_atomic=is_atomic,
            pc=pc if pc is not None else _auto_pc(3),
            msid=self.thread.current_msid(),
            task_point=self.thread.current_point(),
        )
        self.runtime.emit_access(self.thread, access)

    def record_batch(
        self,
        addrs: np.ndarray,
        *,
        size: int,
        is_write: bool,
        is_atomic: bool = False,
        pc: "np.ndarray | int | None" = None,
        count: "np.ndarray | int" = 1,
        stride: "np.ndarray | int" = 0,
    ) -> None:
        """Emit one columnar batch of access events (the fast path).

        ``addrs`` are simulated byte addresses; mutex set and task point
        are taken from the current thread state (one batch therefore must
        not straddle a lock acquire/release or task boundary — emit per
        loop nest, where those are constant).  Semantically equivalent to
        one scalar event per element.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.uint64)
        if addrs.shape[0] == 0:
            return
        if self._elide and isinstance(pc, int) and pc in self._elide:
            # One charge per element: AccessBatch length == len(addrs),
            # so yield accounting matches the instrumented path exactly.
            self.runtime.elide_access(self.thread, addrs.shape[0])
            return
        batch = AccessBatch.make(
            addrs,
            size=size,
            is_write=is_write,
            is_atomic=is_atomic,
            pc=pc if pc is not None else _auto_pc(2),
            msid=self.thread.current_msid(),
            count=count,
            stride=stride,
            task_point=self.thread.current_point(),
        )
        self.runtime.emit_access_batch(self.thread, batch)

    def touch_range(
        self,
        arr: SharedArray,
        lo: int,
        hi: int,
        *,
        is_write: bool,
        step: int = 1,
        pc: Optional[int] = None,
    ) -> None:
        """Record per-element accesses to ``arr[lo:hi:step]`` as one batch.

        Unlike :meth:`read_slice`/:meth:`write_slice` (a single range
        event), this emits the event stream a per-iteration scalar loop
        would — ``(hi-lo+step-1)//step`` scalar records — but hands them to
        the tool as one columnar batch.  Use it to vectorise dense loop
        nests without changing the recorded trace.  Data movement is the
        caller's business (do it with NumPy on ``m.data(arr)``).
        """
        if step <= 0:
            raise RuntimeModelError("touch_range step must be positive")
        n = arr.data.size
        if not (0 <= lo <= hi <= n):
            raise IndexError(
                f"range [{lo}, {hi}) out of bounds for {arr.name!r} of size {n}"
            )
        if lo == hi:
            return
        item = arr.itemsize
        addrs = arr.addr(lo) + np.arange(0, hi - lo, step, dtype=np.uint64) * np.uint64(item)
        self.record_batch(
            addrs,
            size=item,
            is_write=is_write,
            pc=pc if pc is not None else _auto_pc(2),
        )

    def read(self, arr: SharedArray, index: int, pc: Optional[int] = None):
        """Instrumented scalar load of ``arr[index]``."""
        value = arr.data.reshape(-1)[index]
        self._emit(arr.addr(index), arr.itemsize, 1, 0, False, False, pc)
        return value

    def write(
        self, arr: SharedArray, index: int, value, pc: Optional[int] = None
    ) -> None:
        """Instrumented scalar store ``arr[index] = value``."""
        arr.data.reshape(-1)[index] = value
        self._emit(arr.addr(index), arr.itemsize, 1, 0, True, False, pc)

    def read_slice(
        self,
        arr: SharedArray,
        lo: int,
        hi: int,
        step: int = 1,
        pc: Optional[int] = None,
    ) -> np.ndarray:
        """Instrumented bulk load of ``arr[lo:hi:step]`` (one range event)."""
        if step <= 0:
            raise RuntimeModelError("slice step must be positive")
        view = arr.data.reshape(-1)[lo:hi:step]
        n = view.shape[0]
        if n > 0:
            self._emit(
                arr.addr(lo), arr.itemsize, n, step * arr.itemsize, False, False, pc
            )
        return view

    def write_slice(
        self,
        arr: SharedArray,
        lo: int,
        hi: int,
        values,
        step: int = 1,
        pc: Optional[int] = None,
    ) -> None:
        """Instrumented bulk store into ``arr[lo:hi:step]`` (one range event)."""
        if step <= 0:
            raise RuntimeModelError("slice step must be positive")
        flat = arr.data.reshape(-1)
        flat[lo:hi:step] = values
        n = flat[lo:hi:step].shape[0]
        if n > 0:
            self._emit(
                arr.addr(lo), arr.itemsize, n, step * arr.itemsize, True, False, pc
            )

    def read_elems(
        self, arr: SharedArray, indices: Sequence[int], pc: Optional[int] = None
    ) -> np.ndarray:
        """Instrumented gather: one scalar access event per index.

        This models indirect accesses (``a[idx[i]]``), the pattern behind the
        DataRaceBench ``indirectaccess`` benchmarks.
        """
        flat = arr.data.reshape(-1)
        idx = np.asarray(indices, dtype=np.intp)
        out = flat[idx]
        resolved = pc if pc is not None else _auto_pc(2)
        self.record_batch(
            self._elem_addrs(arr, idx), size=arr.itemsize,
            is_write=False, pc=resolved,
        )
        return out

    def write_elems(
        self,
        arr: SharedArray,
        indices: Sequence[int],
        values,
        pc: Optional[int] = None,
    ) -> None:
        """Instrumented scatter: one scalar access event per index."""
        flat = arr.data.reshape(-1)
        idx = np.asarray(indices, dtype=np.intp)
        flat[idx] = values
        resolved = pc if pc is not None else _auto_pc(2)
        self.record_batch(
            self._elem_addrs(arr, idx), size=arr.itemsize,
            is_write=True, pc=resolved,
        )

    @staticmethod
    def _elem_addrs(arr: SharedArray, idx: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`SharedArray.addr` over an index array."""
        n = arr.data.size
        if idx.size and (idx.min() < -n or idx.max() >= n):
            raise IndexError(f"index out of range for {arr.name!r} of size {n}")
        idx = np.where(idx < 0, idx + n, idx).astype(np.int64)
        return (arr.addr(0) + idx * arr.itemsize).astype(np.uint64)

    # -- atomics -----------------------------------------------------------------------

    def atomic_add(
        self, arr: SharedArray, index: int, value, pc: Optional[int] = None
    ):
        """``#pragma omp atomic`` read-modify-write; returns the new value."""
        flat = arr.data.reshape(-1)
        flat[index] += value
        self._emit(arr.addr(index), arr.itemsize, 1, 0, True, True, pc)
        return flat[index]

    def atomic_read(self, arr: SharedArray, index: int, pc: Optional[int] = None):
        """``#pragma omp atomic read``."""
        value = arr.data.reshape(-1)[index]
        self._emit(arr.addr(index), arr.itemsize, 1, 0, False, True, pc)
        return value

    def atomic_write(
        self, arr: SharedArray, index: int, value, pc: Optional[int] = None
    ) -> None:
        """``#pragma omp atomic write``."""
        arr.data.reshape(-1)[index] = value
        self._emit(arr.addr(index), arr.itemsize, 1, 0, True, True, pc)

    # -- synchronisation -----------------------------------------------------------------

    def barrier(self) -> None:
        """``#pragma omp barrier`` — ends the current barrier interval."""
        if self.thread.task_stack:
            raise RuntimeModelError(
                "barriers inside explicit tasks are illegal OpenMP"
            )
        self.runtime.barrier(self.thread)

    @contextmanager
    def critical(self, name: str = "<default>") -> Iterator[None]:
        """``#pragma omp critical [name]``."""
        lock = self.runtime.critical_lock(name)
        self.runtime.lock_acquire(self.thread, lock)
        try:
            yield
        finally:
            self.runtime.lock_release(self.thread, lock)

    @contextmanager
    def locked(self, lock: SimLock) -> Iterator[None]:
        """``omp_set_lock`` / ``omp_unset_lock`` as a context manager."""
        self.runtime.lock_acquire(self.thread, lock)
        try:
            yield
        finally:
            self.runtime.lock_release(self.thread, lock)

    def acquire(self, lock: SimLock) -> None:
        """``omp_set_lock``."""
        self.runtime.lock_acquire(self.thread, lock)

    def release(self, lock: SimLock) -> None:
        """``omp_unset_lock``."""
        self.runtime.lock_release(self.thread, lock)

    def yield_point(self) -> None:
        """Voluntary scheduling point (interleaving diversity in models)."""
        self.runtime.yield_point(self.thread)

    # -- worksharing ------------------------------------------------------------------------

    def _next_workshare(self, total: int) -> WorkShare:
        frame = self._frame
        seq = frame.ws_seq
        frame.ws_seq += 1
        team = frame.team
        ws = team.workshares.get(seq)
        if ws is None:
            ws = WorkShare(total)
            team.workshares[seq] = ws
        elif ws.total != total:
            raise RuntimeModelError(
                "worksharing construct mismatch across team members "
                f"(expected {ws.total} iterations, got {total})"
            )
        return ws

    def for_range(
        self,
        n: int,
        schedule: str = "static",
        chunk: Optional[int] = None,
        nowait: bool = False,
    ) -> Iterator[int]:
        """``#pragma omp for`` over ``range(n)``.

        Yields this thread's iterations according to the OpenMP schedule;
        runs the implicit end-of-loop barrier unless ``nowait``.
        """
        if schedule == "static":
            yield from self._static_iters(n, chunk)
        elif schedule in ("dynamic", "guided"):
            ws = self._next_workshare(n)
            size = self.nthreads
            while True:
                if schedule == "dynamic":
                    c = chunk or 1
                else:  # guided: decreasing chunks, at least `chunk or 1`
                    remaining = ws.total - ws.next
                    c = max(chunk or 1, remaining // (2 * size) or 1)
                grabbed = ws.grab(c)
                if grabbed is None:
                    break
                lo, hi = grabbed
                yield from range(lo, hi)
                self.runtime.yield_point(self.thread)
        else:
            raise RuntimeModelError(f"unknown schedule {schedule!r}")
        if not nowait:
            self.barrier()

    def _static_iters(self, n: int, chunk: Optional[int]) -> Iterator[int]:
        size = self.nthreads
        slot = self.tid
        if chunk is None:
            # Default static: one contiguous chunk per thread.
            lo = slot * n // size
            hi = (slot + 1) * n // size
            yield from range(lo, hi)
        else:
            # static,chunk: round-robin blocks of `chunk`.
            for start in range(slot * chunk, n, size * chunk):
                yield from range(start, min(start + chunk, n))

    def static_chunk(self, n: int) -> tuple[int, int]:
        """This thread's contiguous ``[lo, hi)`` under the default static
        schedule — the idiomatic bounds for vectorised bulk accesses."""
        size = self.nthreads
        slot = self.tid
        return slot * n // size, (slot + 1) * n // size

    @contextmanager
    def single(self, nowait: bool = False) -> Iterator[bool]:
        """``#pragma omp single``: yields True on the claiming thread.

        Usage::

            with ctx.single() as mine:
                if mine:
                    ...
        """
        frame = self._frame
        seq = frame.ws_seq
        frame.ws_seq += 1
        claims = frame.team.single_claims
        mine = False
        if seq not in claims:
            claims[seq] = self.thread.gid
            mine = True
        yield mine
        if not nowait:
            self.barrier()

    def master(self) -> bool:
        """``#pragma omp master``: True on team member 0 (no barrier)."""
        return self.tid == 0

    def sections(
        self, section_bodies: Iterable[Callable[["ThreadContext"], Any]],
        nowait: bool = False,
    ) -> None:
        """``#pragma omp sections``: distribute bodies across the team."""
        bodies = list(section_bodies)
        ws = self._next_workshare(len(bodies))
        while True:
            grabbed = ws.grab(1)
            if grabbed is None:
                break
            lo, _ = grabbed
            bodies[lo](self)
            self.runtime.yield_point(self.thread)
        if not nowait:
            self.barrier()

    # -- explicit tasks (tasking extension) ----------------------------------------------

    def task(self, fn: Callable[..., Any], *args: Any):
        """``#pragma omp task``: defer ``fn(ctx, *args)``.

        The task may later execute on *any* team member (at a ``taskwait``
        or barrier), so its accesses are concurrent with everything its
        creator did after the creation point — including the executing
        thread's own surrounding code.
        """
        return self.runtime.create_task(self.thread, fn, args)

    def taskwait(self) -> None:
        """``#pragma omp taskwait``: wait for the current entity's children."""
        self.runtime.taskwait(self.thread)

    # -- nested parallelism -----------------------------------------------------------------

    def parallel(
        self,
        body: Callable[..., Any],
        *args: Any,
        nthreads: Optional[int] = None,
    ) -> None:
        """Nested ``#pragma omp parallel`` from inside a region."""
        if self.thread.task_stack:
            raise RuntimeModelError(
                "nested parallel regions inside explicit tasks are not modelled"
            )
        self.runtime.parallel(self.thread, nthreads, body, args)

    # -- reductions ----------------------------------------------------------------------------

    def reduce_add(
        self,
        arr: SharedArray,
        index: int,
        value,
        pc: Optional[int] = None,
    ) -> None:
        """Race-free reduction contribution: critical-protected accumulate.

        Models the combine step the OpenMP runtime performs for
        ``reduction(+: x)`` clauses.
        """
        lock = self.runtime.critical_lock(f"__reduction_{arr.name}_{index}")
        self.runtime.lock_acquire(self.thread, lock)
        try:
            flat = arr.data.reshape(-1)
            flat[index] += value
            self._emit(arr.addr(index), arr.itemsize, 1, 0, True, False, pc)
        finally:
            self.runtime.lock_release(self.thread, lock)
