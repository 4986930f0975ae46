"""Interval inventory and concurrency planning, batch and streaming.

The inventory assembles one :class:`IntervalData` per (thread, region,
barrier interval) from Table-I meta rows and decides which interval pairs
may run concurrently — the only pairs the race checker compares.  It is
the one planner: a closed trace is loaded whole (``IntervalInventory
(trace)`` then :meth:`~IntervalInventory.concurrent_pairs`), and the
streaming analyzer grows the same structure row by row
(:meth:`~IntervalInventory.add_region`, :meth:`~IntervalInventory.add_row`)
and collects each pair from :meth:`~IntervalInventory.complete` the moment
comparing it is sound.

Pairs come from the structure of the judgment
(:mod:`repro.osl.concurrency`) instead of an O(I^2) label comparison:

* **same (pid, bid) group**: every cross-thread pair, plus each interval
  with itself when the group holds explicit tasks.  Streaming emits a
  group's pairs when it *seals* — all ``span`` distinct slots completed
  the interval, so its task set is final (every interval logs at least
  one row, so counting slots is exact);
* **different regions**: the verdict depends only on the two regions'
  fork chains (a :class:`RegionRelation`, decided once per region pair):
  never, uniformly concurrent, or — when one region is an ancestor of the
  other — concurrent only for the ancestor's intervals at the fork's bid
  on another slot than the forking thread's.  Only regions under one
  top-level region can relate, so a trace without nesting does no
  cross-region work.  Streaming emits these pairs as soon as both sides
  have completed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, NamedTuple

from ..osl.concurrency import IntervalLabel
from ..sword.reader import build_interval_label
from ..sword.traceformat import MetaRow


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

    def admits(self, data: IntervalData) -> bool:
        """Does ``data`` (of either region) take part in the relation?"""
        key = data.key
        return key.pid != self.ancestor or (
            key.bid == self.bid and data.slot != self.slot
        )


UNIFORM = RegionRelation(0)


class IntervalInventory:
    """All intervals of a trace plus the concurrent-pair plan.

    ``trace`` provides ``regions`` and ``task_graph``; with ``load`` (the
    default) also ``thread_gids`` and ``reader(gid)``, whose rows are
    read now and treated as complete.  A streaming caller passes
    ``load=False`` and grows the inventory itself.
    """

    def __init__(self, trace, *, load: bool = True) -> None:
        self.trace = trace
        self.intervals: dict[IntervalKey, IntervalData] = {}
        #: Completed intervals per region, then per bid, in completion
        #: order (a closed trace: first-row order).
        self._by_region: dict[int, list[IntervalData]] = {}
        self._groups: dict[int, dict[int, list[IntervalData]]] = {}
        #: Regions with completed intervals, per top-level region.
        self._trees: dict[int, list[int]] = {}
        self._chains: dict[int, IntervalLabel] = {}
        self._relations: dict[tuple[int, int], RegionRelation | None] = {}
        self._salvage = getattr(trace, "integrity_mode", "strict") == "salvage"
        self._skipped: set[IntervalKey] = set()
        # Streaming state: completions seen, completed slots of each
        # group not yet sealed.
        self._completed: set[tuple[int, int, int]] = set()
        self._open: dict[tuple[int, int], set[int]] = {}
        if load:
            self._load()

    def _load(self) -> None:
        for gid in self.trace.thread_gids:
            reader = self.trace.reader(gid)
            try:
                for row in reader.rows:
                    self.add_row(gid, row)
            finally:
                reader.close()
        for data in self.intervals.values():
            self._register(data)

    def __len__(self) -> int:
        return len(self.intervals)

    # -- growth -------------------------------------------------------------------

    def add_region(self, pid: int, info: dict) -> None:
        """Register a forked region's fork-position record."""
        self.trace.regions[pid] = info

    def add_row(self, gid: int, row: MetaRow) -> None:
        """Register one Table-I row, growing its interval's chunk list."""
        key = IntervalKey(gid=gid, pid=row.pid, bid=row.bid)
        data = self.intervals.get(key)
        if data is None:
            try:
                self._chain(row.pid)
            except KeyError:
                # Salvage: the region's fork record did not survive, so
                # the interval cannot be placed in the concurrency
                # structure — skip it (an under-report, never a wrong
                # report).
                if not self._salvage:
                    raise
                if key not in self._skipped:
                    self._skipped.add(key)
                    self.trace.integrity.intervals_skipped += 1
                return
            data = IntervalData(key=key, slot=row.offset, span=row.span)
            self.intervals[key] = data
        data.chunks.append((row.data_begin, row.size))
        data.digests.append(row.digest)

    def _register(self, data: IntervalData) -> None:
        """Make a completed interval visible to pair planning."""
        pid = data.key.pid
        region = self._by_region.get(pid)
        if region is None:
            region = self._by_region[pid] = []
            self._groups[pid] = {}
            self._trees.setdefault(self._root(pid), []).append(pid)
        region.append(data)
        self._groups[pid].setdefault(data.key.bid, []).append(data)

    # -- streaming emission ----------------------------------------------------------

    def complete(
        self, gid: int, pid: int, bid: int, slot: int, span: int
    ) -> list[Pair]:
        """Mark one interval complete; return the newly ready pairs."""
        if (gid, pid, bid) in self._completed:
            return []  # idempotent: a duplicate completion emits nothing
        self._completed.add((gid, pid, bid))
        key = IntervalKey(gid=gid, pid=pid, bid=bid)
        data = self.intervals.get(key)
        if data is None:
            # Defensive: an interval that logged nothing (cannot race).
            data = self.intervals[key] = IntervalData(
                key=key, slot=slot, span=span
            )
        pairs: list[Pair] = []
        # Across groups: ready now, against every completed interval of
        # a related region.
        for other in self._trees.get(self._root(pid), ()):
            if other == pid:
                continue
            relation = self._relation(pid, other)
            if relation is None or not relation.admits(data):
                continue
            pairs.extend(
                (data, b)
                for b in self._by_region[other]
                if b.key.gid != gid and relation.admits(b)
            )
        self._register(data)
        slots = self._open.setdefault((pid, bid), set())
        slots.add(slot)
        if len(slots) == span:
            del self._open[(pid, bid)]
            # Completion order is the run's interleaving; gid order keeps
            # the emission deterministic.
            group = sorted(self._groups[pid][bid], key=lambda d: d.key.gid)
            pairs.extend(self._group_pairs(pid, bid, group))
        return pairs

    def unsealed_groups(self) -> list[tuple[int, int]]:
        """Groups still waiting for teammates (empty after a full trace)."""
        return list(self._open)

    # -- the plan ---------------------------------------------------------------------

    def concurrent_pairs(self) -> Iterator[Pair]:
        """Yield every pair of completed intervals that may run concurrently.

        Pairs between chunks of the *same* thread are never yielded (a
        thread cannot race with itself) — except that an interval holding
        explicit tasks is compared with *itself*: a deferred task is
        concurrent with its executor's and creator's surrounding code, so
        same-thread chunks can race through tasks (tasking extension).

        Order: each region's groups (regions and bids by first
        appearance), then region pairs by ascending pid.
        """
        for pid, groups in self._groups.items():
            for bid, group in groups.items():
                yield from self._group_pairs(pid, bid, group)
        trees = {
            root: sorted(pids)
            for root, pids in self._trees.items()
            if len(pids) > 1
        }
        for pid_a in sorted(pid for tree in trees.values() for pid in tree):
            tree = trees[self._root(pid_a)]
            for pid_b in tree[bisect_right(tree, pid_a) :]:
                relation = self._relation(pid_a, pid_b)
                if relation is None:
                    continue
                first, second = pid_a, pid_b
                if relation.ancestor == pid_b:
                    first, second = pid_b, pid_a
                others = [
                    b for b in self._by_region[second] if relation.admits(b)
                ]
                for a in self._by_region[first]:
                    if relation.admits(a):
                        for b in others:
                            if a.key.gid != b.key.gid:
                                yield a, b

    def _group_pairs(
        self, pid: int, bid: int, group: list[IntervalData]
    ) -> Iterator[Pair]:
        """One (pid, bid) group's pairs: self-pairs when it holds tasks,
        then every teammate pair (one interval per thread)."""
        if self.trace.task_graph.holds_tasks(pid, bid):
            for a in group:
                yield a, a
        yield from combinations(group, 2)

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
