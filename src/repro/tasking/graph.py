"""Task-ordering graph: the concurrency judgment OpenMP tasking needs.

The paper's §III-C limitation: "the current formulation of the offset-span
label mechanism does not allow for identifying whether two threads that
executed two different tasks are concurrent or not", and §VI lists tasking
support as future work.  This module is that extension.

Model.  Within one barrier interval, every *execution entity* — the
implicit task of a team member, or an explicit task — owns a monotone
sequence counter that advances at task-scheduling points (task creation and
``taskwait``).  An access is located at a *point* ``(entity, seq)``.  Two
edges order points across entities:

* **creation**: everything at the creator up to the creation seq ``e_k``
  happens-before every point of task ``k``;
* **wait**: if the creator's ``taskwait`` covered task ``k`` at seq
  ``w_k``, every point of ``k`` happens-before the creator's points at
  ``seq >= w_k``.

``ordered(p, q)`` is reachability over those edges (entities form a
creation tree, so the recursion terminates); ``concurrent`` is its
symmetric negation.  Barriers bound task lifetimes (OpenMP guarantees all
tasks complete at a barrier), so cross-interval ordering stays the business
of the barrier-interval judgment — this graph only refines judgments
*within* one interval.

Entities are keyed by ``0`` for "the enclosing implicit task" plus the
thread's identity carried alongside, and by the global task id for explicit
tasks; points are encoded into the 64-bit ``aux`` field of access records
(:func:`encode_point` / :func:`decode_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: aux encoding: entity id in the high bits, sequence in the low 24.
_SEQ_BITS = 24
_SEQ_MASK = (1 << _SEQ_BITS) - 1

#: Entity id of the enclosing implicit task.
IMPLICIT = 0


def encode_point(entity: int, seq: int) -> int:
    """Pack an execution point into an access record's ``aux`` field."""
    if seq < 0:
        raise ValueError("sequence must be non-negative")
    return (entity << _SEQ_BITS) | min(seq, _SEQ_MASK)


def decode_point(aux: int) -> tuple[int, int]:
    """Inverse of :func:`encode_point`: ``(entity, seq)``."""
    return aux >> _SEQ_BITS, aux & _SEQ_MASK


@dataclass(slots=True)
class TaskInfo:
    """One explicit task's position in the creation tree.

    Attributes:
        task_id: global id (> 0).
        creator: creating entity (another task id, or IMPLICIT).
        creator_gid: thread owning the creating implicit task (identifies
            the implicit entity when ``creator == IMPLICIT``).
        pid, bid: the barrier interval the task belongs to.
        create_seq: the creator's sequence at creation (``e_k``).
        wait_seq: the creator's sequence right after the taskwait that
            covered this task (``w_k``), or None if never waited before the
            interval-ending barrier.
    """

    task_id: int
    creator: int
    creator_gid: int
    pid: int
    bid: int
    create_seq: int
    wait_seq: Optional[int] = None


class TaskGraph:
    """Ordering judgment over one run's explicit tasks."""

    def __init__(self) -> None:
        self._tasks: dict[int, TaskInfo] = {}
        #: Barrier intervals (pid, bid) holding at least one task.
        self._intervals: set[tuple[int, int]] = set()

    def add(self, info: TaskInfo) -> None:
        if info.task_id in self._tasks:
            raise ValueError(f"task {info.task_id} registered twice")
        if info.task_id == IMPLICIT:
            raise ValueError("task id 0 is reserved for implicit tasks")
        self._tasks[info.task_id] = info
        self._intervals.add((info.pid, info.bid))

    def set_wait(self, task_id: int, wait_seq: int) -> None:
        self._tasks[task_id].wait_seq = wait_seq

    def get(self, task_id: int) -> TaskInfo:
        return self._tasks[task_id]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def tasks(self) -> list[TaskInfo]:
        return list(self._tasks.values())

    def holds_tasks(self, pid: int, bid: int) -> bool:
        """Does barrier interval ``(pid, bid)`` hold explicit tasks?  (The
        answer is final once every thread has completed the interval:
        its tasks drain at the closing barrier.)"""
        return (pid, bid) in self._intervals

    # -- the judgment -------------------------------------------------------

    def _entity_key(self, entity: int, gid: int) -> tuple:
        """Implicit entities are per-thread; tasks are global."""
        return ("imp", gid) if entity == IMPLICIT else ("task", entity)

    def ordered(
        self,
        entity_a: int,
        seq_a: int,
        gid_a: int,
        entity_b: int,
        seq_b: int,
        gid_b: int,
    ) -> bool:
        """Does point A happen-before (or equal) point B?

        Both points must belong to the same barrier interval; cross-interval
        ordering is decided by the barrier-interval judgment instead.
        """
        key_a = self._entity_key(entity_a, gid_a)
        key_b = self._entity_key(entity_b, gid_b)
        return self._ordered(key_a, seq_a, key_b, seq_b, frozenset())

    def _creation_point(self, task_id: int) -> tuple[tuple, int]:
        info = self._tasks[task_id]
        key = self._entity_key(info.creator, info.creator_gid)
        return key, info.create_seq

    def _end_point(self, task_id: int) -> Optional[tuple[tuple, int]]:
        info = self._tasks[task_id]
        if info.wait_seq is None:
            return None
        key = self._entity_key(info.creator, info.creator_gid)
        return key, info.wait_seq

    def _ordered(self, key_a, seq_a, key_b, seq_b, seen) -> bool:
        if key_a == key_b:
            return seq_a <= seq_b
        state = (key_a, seq_a, key_b, seq_b)
        if state in seen:
            return False
        seen = seen | {state}
        # Ascend on the B side: A before B if A is before B's creation.
        if key_b[0] == "task":
            ck, cs = self._creation_point(key_b[1])
            if self._ordered(key_a, seq_a, ck, cs, seen):
                return True
        # Ascend on the A side: A before B if A's task was waited for at a
        # point that is before B.
        if key_a[0] == "task":
            end = self._end_point(key_a[1])
            if end is not None:
                ek, es = end
                if self._ordered(ek, es, key_b, seq_b, seen):
                    return True
        return False

    def concurrent(
        self,
        entity_a: int,
        seq_a: int,
        gid_a: int,
        entity_b: int,
        seq_b: int,
        gid_b: int,
    ) -> bool:
        """May the two same-interval points interleave?

        The same entity is never concurrent with itself (program order);
        two *implicit* points of the same thread are likewise ordered.
        """
        if self._entity_key(entity_a, gid_a) == self._entity_key(entity_b, gid_b):
            return False
        return not self.ordered(
            entity_a, seq_a, gid_a, entity_b, seq_b, gid_b
        ) and not self.ordered(entity_b, seq_b, gid_b, entity_a, seq_a, gid_a)

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            str(t.task_id): {
                "creator": t.creator,
                "creator_gid": t.creator_gid,
                "pid": t.pid,
                "bid": t.bid,
                "create_seq": t.create_seq,
                "wait_seq": t.wait_seq,
            }
            for t in self._tasks.values()
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TaskGraph":
        graph = cls()
        for task_id, info in payload.items():
            graph.add(
                TaskInfo(
                    task_id=int(task_id),
                    creator=int(info["creator"]),
                    creator_gid=int(info["creator_gid"]),
                    pid=int(info["pid"]),
                    bid=int(info["bid"]),
                    create_seq=int(info["create_seq"]),
                    wait_seq=(
                        None if info["wait_seq"] is None else int(info["wait_seq"])
                    ),
                )
            )
        return graph
