"""The interval summary: immutable sorted node columns with a running max.

The paper keeps each thread's accesses in "an augmented red-black tree to
maintain the interval tree balance and to speed up the operations of
insertion and search" because its tool inserts while it scans the log.
Here a summary is complete before its first query, so there is never an
insert after a search and nothing to balance.  :class:`IntervalTree` is the
builder's nodes ascending by ``low``, one NumPy column a field
(:class:`TreeColumns`), plus the prefix maximum of ``high`` (the in-order
form of the ``max_high`` augmentation): a stabbing query is two
bisections.  :class:`~repro.itree.interval.StridedInterval` objects are
made once a tree, for the callers that need one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .interval import StridedInterval


@dataclass(frozen=True, slots=True)
class TreeColumns:
    """A summary's nodes, in order, one column a field.

    Row ``i`` is the ``i``-th node :meth:`IntervalTree.__iter__` yields,
    so ``low`` ascends (given order among ties) while ``high`` need not;
    ``max_high[i]`` is ``max(high[: i + 1])``.  ``write`` and ``atomic``
    are bool, the rest int64; a singleton's ``stride`` is its ``size``.
    """

    low: np.ndarray
    stride: np.ndarray
    size: np.ndarray
    count: np.ndarray
    write: np.ndarray
    atomic: np.ndarray
    pc: np.ndarray
    msid: np.ndarray
    point: np.ndarray
    high: np.ndarray
    max_high: np.ndarray

    @classmethod
    def of(cls, low, stride, size, count, write, atomic, pc, msid, point):
        """The columns of the given node fields (rows in the order given;
        ``write`` and ``atomic`` may be 0/1 integers)."""
        high = (count - 1) * stride
        high += low
        high += size - 1
        return cls(
            low, stride, size, count, write != 0, atomic != 0, pc, msid,
            point, high, np.maximum.accumulate(high),
        )

    @property
    def dense(self) -> np.ndarray:
        """Rows covering their byte extent without holes."""
        return (self.count == 1) | (self.stride <= self.size)


_FIELDS = attrgetter(
    "low", "stride", "size", "count", "is_write", "is_atomic", "pc", "msid",
    "point",
)


def table_of(intervals: list[StridedInterval]) -> np.ndarray:
    """The node table of interval objects: one int64 row a field, in
    :meth:`TreeColumns.of` order (``write`` and ``atomic`` 0 or 1)."""
    return np.array(list(map(_FIELDS, intervals)), np.int64).reshape(-1, 9).T


class IntervalTree:
    """One thread's strided intervals, sorted by ``low``, read-only.

    Built from :class:`TreeColumns` whose ``low`` already ascends; ties
    stay in the order given, which is the order every query and
    comparison reports them in.  Anything else raises
    :class:`ValueError`.
    """

    __slots__ = ("_columns", "_nodes")

    def __init__(self, columns: TreeColumns) -> None:
        low = columns.low
        if (low[1:] < low[:-1]).any():
            raise ValueError("intervals must be sorted ascending by low")
        self._columns = columns
        #: The rows as interval objects, made on first use.
        self._nodes: Optional[list[StridedInterval]] = None

    @classmethod
    def from_seal_order(cls, table: np.ndarray) -> "IntervalTree":
        """The summary of a node table (see :func:`table_of`) listing
        nodes in seal order: rows sorted stably by ``low``, so ties keep
        that order."""
        if table.shape[1] > 1:
            table = table[:, table[0].argsort(kind="stable")]
        return cls(TreeColumns.of(*table))

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[StridedInterval]
    ) -> "IntervalTree":
        """The summary of interval objects already ascending by ``low``;
        its rows are those objects."""
        nodes = list(intervals)
        tree = cls(TreeColumns.of(*table_of(nodes)))
        tree._nodes = nodes
        return tree

    def __len__(self) -> int:
        return len(self._columns.low)

    def _materialise(self) -> list[StridedInterval]:
        if self._nodes is None:
            c = self._columns
            self._nodes = list(map(
                StridedInterval,
                c.low.tolist(), c.stride.tolist(), c.size.tolist(),
                c.count.tolist(), c.write.tolist(), c.atomic.tolist(),
                c.pc.tolist(), c.msid.tolist(), c.point.tolist(),
            ))
        return self._nodes

    def __iter__(self) -> Iterator[StridedInterval]:
        """Every interval, ascending by low endpoint."""
        return iter(self._materialise())

    def intervals(self) -> list[StridedInterval]:
        """All stored intervals in ascending low order (a fresh list)."""
        return list(self._materialise())

    def columns(self) -> TreeColumns:
        """The node columns."""
        return self._columns

    def windows(self, low, high) -> tuple[np.ndarray, np.ndarray]:
        """``(first, stop)``: the rows a probe ``[low, high]`` (scalars or
        arrays) must scan — from the first whose running max ``high``
        reaches ``low`` to the last starting at or before ``high``."""
        c = self._columns
        return (
            np.searchsorted(c.max_high, low, "left"),
            np.searchsorted(c.low, high, "right"),
        )

    def iter_overlaps(self, low: int, high: int) -> Iterator[StridedInterval]:
        """Yield every interval whose byte extent intersects ``[low, high]``,
        in row order.  A query costs O(log n + window) rather than a
        balanced tree's O(log n + hits)."""
        first, stop = (int(i) for i in self.windows(low, high))
        nodes = self._materialise()
        hits = np.flatnonzero(self._columns.high[first:stop] >= low)
        for i in (hits + first).tolist():
            yield nodes[i]
