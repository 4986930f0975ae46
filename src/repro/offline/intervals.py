"""Interval inventory and concurrency planning, batch and streaming.

The inventory assembles one :class:`IntervalData` per (thread, region,
barrier interval) from Table-I meta rows and decides which interval pairs
may run concurrently — the only pairs the race checker compares.  It is
the one planner, with one pair emitter: :meth:`~IntervalInventory.complete`
returns, as an interval completes, every pair that became sound to
compare.  Streaming grows the inventory row by row and completes each
interval as it ends; a closed trace's meta tables
(:attr:`~repro.sword.reader.ThreadTraceReader.table`) are loaded whole
and :meth:`~IntervalInventory.concurrent_pairs` completes them in load
order.
Both end with :meth:`~IntervalInventory.finish`, which pairs the groups
that never sealed (a salvaged trace that lost a teammate's rows).

Pairs come from the structure of the judgment
(:mod:`repro.osl.concurrency`) instead of an O(I^2) label comparison:

* **same (pid, bid) group**: every cross-thread pair, plus each interval
  with itself when the group holds explicit tasks.  A group's pairs are
  emitted when it *seals* — all ``span`` teammates completed the
  interval, so its task set is final (every interval logs at least one
  row, and a repeated completion counts once, so counting is exact);
* **different regions**: the verdict depends only on the two regions'
  fork chains (a :class:`RegionRelation`, decided once per region pair):
  never, uniformly concurrent, or — when one region is an ancestor of the
  other — concurrent only for the ancestor's intervals at the fork's bid
  on another slot than the forking thread's.  Only regions under one
  top-level region can relate, so a trace without nesting does no
  cross-region work.  These pairs are emitted as soon as both sides have
  completed, the ancestor's (else the older region's) interval first.

An interval none of whose chunks logged an access (every digest has
``nodes == 0``, the digest prune's first rule) races with nothing.  It
never becomes :class:`IntervalData` and never enters a pair: its pairs
are counted as they become ready — C(n, 2) − C(n−k, 2) in a group of n
with k empty, plus k self-pairs in a tasky group, and one per admitted
partner across regions — and :meth:`~IntervalInventory.charge` adds
them, with their chunks, to a driver's concurrent and pruned pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ..osl.concurrency import IntervalLabel
from ..sword.digest import FrameDigest
from ..sword.reader import build_interval_label
from ..sword.traceformat import (
    COL_BEGIN, COL_BID, COL_DIGEST, COL_NODES, COL_OFFSET, COL_PID, COL_SIZE,
    COL_SPAN, MetaRow,
)


@dataclass(frozen=True, slots=True)
class IntervalKey:
    """Identity of one thread's barrier interval."""

    gid: int
    pid: int
    bid: int


@dataclass(slots=True)
class IntervalData:
    """One interval's metadata: slot, team size and its log-file chunks."""

    key: IntervalKey
    slot: int
    span: int
    chunks: list[tuple[int, int]] = field(default_factory=list)  # (begin, size)
    #: Per-chunk frame-resident digests (meta-row ``d1=`` tokens),
    #: parallel to ``chunks``.
    digests: list = field(default_factory=list)


class _Done(NamedTuple):
    """A completed interval as the planner keeps it; ``data`` is None
    when it logged no access (its pairs are counted, never emitted)."""

    gid: int
    pid: int
    bid: int
    slot: int
    span: int
    frames: int
    data: IntervalData | None


_gid = attrgetter("key.gid")

#: A comparison the planner emits: two intervals (the same one twice for
#: a tasky self-pair).
Pair = tuple[IntervalData, IntervalData]


class RegionRelation(NamedTuple):
    """How the intervals of two concurrent regions pair up.

    ``ancestor`` is 0 (no region) when every cross-thread interval pair
    is concurrent.  Otherwise region ``ancestor`` forked the other one
    from barrier interval ``bid`` on slot ``slot``, and only its
    intervals at that ``bid`` on another slot run alongside the
    descendant.
    """

    ancestor: int
    bid: int = 0
    slot: int = 0

    def admits(self, done: _Done) -> bool:
        """Does ``done`` (of either region) take part in the relation?"""
        return done.pid != self.ancestor or (
            done.bid == self.bid and done.slot != self.slot
        )


UNIFORM = RegionRelation(0)


class IntervalInventory:
    """All intervals of a trace plus the concurrent-pair plan.

    ``trace`` provides ``regions`` and ``task_graph``; with ``load`` (the
    default) also ``thread_gids`` and ``reader(gid)``, whose meta tables
    are read now (:meth:`concurrent_pairs` then completes every
    interval).  A streaming caller passes ``load=False``, grows the
    inventory itself and completes each interval as it ends.
    """

    def __init__(self, trace, *, load: bool = True) -> None:
        self.trace = trace
        #: The intervals that logged an access, and streaming's open
        #: ones; an empty interval leaves a count when it completes.
        self.intervals: dict[IntervalKey, IntervalData] = {}
        self.empty_intervals = 0
        #: Pairs with an empty side not yet charged, and their chunks.
        self.pairs_counted = self.frames_counted = 0
        #: Completed intervals per region, then per bid, in completion
        #: order (a closed trace: load order).
        self._by_region: dict[int, list[_Done]] = {}
        self._groups: dict[int, dict[int, list[_Done]]] = {}
        #: Regions with completed intervals, per top-level region, and
        #: each such region's entry there.
        self._trees: dict[int, list[int]] = {}
        self._tree_of: dict[int, list[int]] = {}
        self._chains: dict[int, IntervalLabel] = {}
        self._relations: dict[tuple[int, int], RegionRelation | None] = {}
        self._skipped: set[tuple[int, int, int]] = set()
        #: What :meth:`complete` was told (a repeat emits nothing).
        self._completed: set[tuple[int, int, int]] = set()
        #: A loaded trace's intervals, in load order.
        self._loaded: list[_Done] = []
        if load:
            for gid in trace.thread_gids:
                reader = trace.reader(gid)
                try:
                    self._load(gid, reader.table)
                finally:
                    reader.close()

    def __len__(self) -> int:
        return len(self.intervals) + self.empty_intervals

    # -- growth -------------------------------------------------------------------

    def add_region(self, pid: int, info: dict) -> None:
        """Register a forked region's fork-position record."""
        self.trace.regions[pid] = info

    def _load(self, gid: int, table: np.ndarray) -> None:
        """One thread's meta table, its intervals in first-row order; only
        an interval that logged an access reads its rows."""
        keys, first, of_row, frames = np.unique(
            table[:, [COL_PID, COL_BID]], axis=0, return_index=True,
            return_inverse=True, return_counts=True,
        )
        of_row = of_row.ravel()
        logged = np.bincount(of_row, table[:, COL_NODES] != 0, len(keys)).tolist()
        rows, ends = np.argsort(of_row, kind="stable"), np.cumsum(frames)
        slots = table[first, COL_OFFSET].tolist()
        spans = table[first, COL_SPAN].tolist()
        keys, frames = keys.tolist(), frames.tolist()
        for j in np.argsort(first).tolist():
            (pid, bid), data = keys[j], None
            if not self._placed(gid, pid, bid):
                continue
            if logged[j]:
                key = IntervalKey(gid=gid, pid=pid, bid=bid)
                data = self.intervals[key] = IntervalData(key, slots[j], spans[j])
                for row in table[rows[ends[j] - frames[j] : ends[j]]].tolist():
                    data.chunks.append((row[COL_BEGIN], row[COL_SIZE]))
                    data.digests.append(FrameDigest.from_ints(row[COL_DIGEST:]))
            self.empty_intervals += data is None
            self._loaded.append(
                _Done(gid, pid, bid, slots[j], spans[j], frames[j], data)
            )

    def add_row(self, gid: int, row: MetaRow) -> None:
        """Register one Table-I row, growing its interval's chunk list."""
        key = IntervalKey(gid=gid, pid=row.pid, bid=row.bid)
        data = self.intervals.get(key)
        if data is None:
            if not self._placed(gid, row.pid, row.bid):
                return
            data = IntervalData(key=key, slot=row.offset, span=row.span)
            self.intervals[key] = data
        data.chunks.append((row.data_begin, row.size))
        data.digests.append(row.digest)

    def _placed(self, gid: int, pid: int, bid: int) -> bool:
        """Can the interval be placed in the concurrency structure?  In
        salvage, not when its region's fork record did not survive: it
        is skipped and counted (an under-report, never a wrong report)."""
        try:
            self._chain(pid)
            return True
        except KeyError:
            if getattr(self.trace, "integrity_mode", "strict") != "salvage":
                raise
        if (gid, pid, bid) not in self._skipped:
            self._skipped.add((gid, pid, bid))
            self.trace.integrity.intervals_skipped += 1
        return False

    def _close(self, gid: int, pid: int, bid: int, slot: int, span: int) -> _Done:
        """Close a grown interval: one that logged no access (or,
        defensively, no row) leaves :attr:`intervals` as a count."""
        key = IntervalKey(gid=gid, pid=pid, bid=bid)
        data = self.intervals.get(key)
        frames = len(data.chunks) if data else 0
        if data is None or not any(digest.nodes for digest in data.digests):
            self.intervals.pop(key, None)
            self.empty_intervals += 1
            data = None
        return _Done(gid, pid, bid, slot, span, frames, data)

    # -- pair emission ------------------------------------------------------------------

    def complete(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> list[Pair]:
        """Mark one interval complete; return the newly ready pairs."""
        if (gid, pid, bid) in self._completed:
            return []  # idempotent: a duplicate completion emits nothing
        self._completed.add((gid, pid, bid))
        if (gid, pid, bid) in self._skipped:
            return []  # salvage could not place it
        pairs: list[Pair] = []
        self._complete(self._close(gid, pid, bid, slot, span), pairs)
        return pairs

    def concurrent_pairs(self) -> list[Pair]:
        """A loaded trace's plan: complete every interval in load order,
        then :meth:`finish` — every pair of intervals that may run
        concurrently, each once.  Call it once, instead of
        :meth:`complete`.

        Pairs between chunks of the *same* thread are never emitted (a
        thread cannot race with itself) — except that an interval holding
        explicit tasks is compared with *itself*: a deferred task is
        concurrent with its executor's and creator's surrounding code, so
        same-thread chunks can race through tasks (tasking extension).
        """
        pairs: list[Pair] = []
        for done in self._loaded:
            self._complete(done, pairs)
        pairs.extend(self.finish())
        return pairs

    def charge(self, stats) -> None:
        """Add the pairs counted since the last charge to ``stats``: they
        are concurrent, and pruned with their chunks (an empty side)."""
        stats.concurrent_pairs += self.pairs_counted
        stats.pairs_pruned += self.pairs_counted
        stats.frames_pruned += self.frames_counted
        self.pairs_counted = self.frames_counted = 0

    def finish(self) -> list[Pair]:
        """The pairs of every group that never sealed (after a full trace
        there are none; a salvaged one may have lost a teammate's rows)."""
        pairs: list[Pair] = []
        for pid, bid in self.unsealed_groups():
            self._seal(pid, bid, pairs)
        return pairs

    def unsealed_groups(self) -> list[tuple[int, int]]:
        """Groups still waiting for teammates (none after a full trace)."""
        return [
            (pid, bid)
            for pid, groups in self._groups.items()
            for bid, group in groups.items()
            if len(group) < group[0].span
        ]

    def _complete(self, done: _Done, pairs: list[Pair]) -> None:
        """Register one completed interval, appending its ready pairs."""
        pid = done.pid
        region = self._by_region.get(pid)
        if region is None:
            region = self._by_region[pid] = []
            self._groups[pid] = {}
            tree = self._trees.setdefault(self._root(pid), [])
            tree.append(pid)
            self._tree_of[pid] = tree
        # Across groups: ready now, against every completed interval of
        # a related region, the ancestor's (else the older region's) first.
        for other in self._tree_of[pid]:
            relation = None if other == pid else self._relation(pid, other)
            if relation is None or not relation.admits(done):
                continue
            first = (relation.ancestor or min(pid, other)) == pid
            for b in self._by_region[other]:
                if b.gid == done.gid or not relation.admits(b):
                    continue
                if done.data is None or b.data is None:
                    self.pairs_counted += 1
                    self.frames_counted += done.frames + b.frames
                else:
                    pairs.append(
                        (done.data, b.data) if first else (b.data, done.data)
                    )
        region.append(done)
        group = self._groups[pid].setdefault(done.bid, [])
        group.append(done)
        if len(group) == done.span:
            self._seal(pid, done.bid, pairs)

    def _seal(self, pid: int, bid: int, pairs: list[Pair]) -> None:
        """One (pid, bid) group's pairs: self-pairs when it holds tasks,
        then every teammate pair (one interval per thread) in gid order —
        completion order is the run's interleaving.  With k of its n
        intervals empty, C(n, 2) − C(n−k, 2) pairs (and the k empty
        self-pairs of a tasky group) are counted instead."""
        group = self._groups[pid][bid]
        full = sorted((d.data for d in group if d.data is not None), key=_gid)
        tasky = self.trace.task_graph.holds_tasks(pid, bid)
        n, m = len(group), len(full)
        empty = sum(done.frames for done in group if done.data is None)
        logged = sum(len(data.chunks) for data in full)
        self.pairs_counted += n * (n - 1) // 2 - m * (m - 1) // 2 + (n - m) * tasky
        self.frames_counted += empty * (n - 1 + 2 * tasky) + logged * (n - m)
        if tasky:
            pairs.extend((data, data) for data in full)
        pairs.extend(combinations(full, 2))

    # -- region-pair relation -----------------------------------------------------------

    def _chain(self, pid: int) -> IntervalLabel:
        """Fork chain of a region with a placeholder leaf (slot 0, bid 0);
        raises KeyError while any ancestor's record is missing."""
        chain = self._chains.get(pid)
        if chain is None:
            chain = build_interval_label(self.trace.regions, pid, 0, 0)
            self._chains[pid] = chain
        return chain

    def _root(self, pid: int) -> int:
        return self._chain(pid)[0].region

    def _relation(self, pid_a: int, pid_b: int) -> RegionRelation | None:
        """How two distinct regions' intervals pair (None: never)."""
        key = (pid_a, pid_b) if pid_a < pid_b else (pid_b, pid_a)
        if key not in self._relations:
            self._relations[key] = self._decide(*key)
        return self._relations[key]

    def _decide(self, pid_a: int, pid_b: int) -> RegionRelation | None:
        """Walk the fork chains to the first divergence:

        * divergence within both ancestor chains -> the verdict is uniform
          over all interval pairs (concurrent iff same region, same bid,
          different slot at the divergence level);
        * one chain is a prefix of the other up to its leaf -> the shorter
          region is an ancestor: only its intervals sitting *at the fork
          position's bid* with a *different slot* than the forking thread
          run concurrently with the descendant.
        """
        # Compare ancestor parts (exclude each chain's placeholder leaf).
        anc_a = self._chain(pid_a)[:-1]
        anc_b = self._chain(pid_b)[:-1]
        for pa, pb in zip(anc_a, anc_b):
            if pa == pb:
                continue
            if pa.region != pb.region or pa.slot == pb.slot or pa.bid != pb.bid:
                return None  # sequential for every interval pair
            # Nested regions forked by different teammates inside one
            # barrier interval (paper's R2/R3).
            return UNIFORM
        # No divergence in the common ancestor prefix: ancestor/descendant.
        if len(anc_a) == len(anc_b):
            # Sibling regions forked from the same position by the same
            # thread -> serialised.
            return None
        if len(anc_a) < len(anc_b):
            ancestor, fork = pid_a, anc_b[len(anc_a)]
        else:
            ancestor, fork = pid_b, anc_a[len(anc_b)]
        if fork.region != ancestor:
            # The descendant's lineage passes through a *different* region
            # at this depth -> sequential.
            return None
        return RegionRelation(ancestor, fork.bid, fork.slot)
