"""The interval summary: an immutable sorted array with a running max.

The paper keeps each thread's accesses in "an augmented red-black tree to
maintain the interval tree balance and to speed up the operations of
insertion and search" because its tool inserts while it scans the log.
Here a summary is complete before its first query — the coalescer
(:mod:`repro.itree.builder`) hands over the whole sealed sequence and
trees are cached whole per barrier interval — so there is never an insert
after a search and nothing to balance.  :class:`IntervalTree` is that
sequence ascending by ``low`` plus the prefix maximum of ``high`` (the
in-order form of the tree's ``max_high`` augmentation): a stabbing query
is two bisections and enumerates the same nodes in the same in-order
sequence the balanced tree did.  :meth:`IntervalTree.columns` is the same
sequence as NumPy columns (:class:`TreeColumns`) — what the engine's
columnar pair comparison joins.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter, gt
from typing import Iterable, Iterator, Optional

import numpy as np

from .interval import StridedInterval


@dataclass(frozen=True, slots=True)
class TreeColumns:
    """A summary's rows, in order, as the NumPy columns a join reads.

    Row ``i`` is the ``i``-th interval :meth:`IntervalTree.__iter__`
    yields, so ``low`` ascends (given order among ties) while ``high``
    need not.  ``pcs`` are the distinct program counters, ascending, and
    ``pc_rank[i]`` is row ``i``'s index into them.

    A view lives as long as its tree, so it is kept small (27 bytes a
    node): fields no join reads (stride, size, count, point) stay on the
    intervals, and ``msid`` / ``pc_rank`` are int32.
    """

    low: np.ndarray
    high: np.ndarray
    write: np.ndarray
    atomic: np.ndarray
    dense: np.ndarray
    msid: np.ndarray
    pcs: np.ndarray
    pc_rank: np.ndarray


class IntervalTree:
    """One thread's strided intervals, sorted by ``low``, read-only.

    ``intervals`` must already ascend by ``low``; ties stay in the order
    given, which is the order every query and the column view report them
    in.  Anything else raises :class:`ValueError` — that check is also
    what rejects a reordered cache file.  Intervals must not be mutated
    once stored.
    """

    __slots__ = ("_intervals", "_lows", "_highs", "_max_high", "_columns")

    def __init__(self, intervals: Iterable[StridedInterval] = ()) -> None:
        self._intervals = list(intervals)
        self._lows = [iv.low for iv in self._intervals]
        if any(map(gt, self._lows, islice(self._lows, 1, None))):
            raise ValueError("intervals must be sorted ascending by low")
        self._highs = [iv.high for iv in self._intervals]
        #: ``_max_high[i] == max(_highs[: i + 1])``: non-decreasing, so the
        #: first row that can reach a probe is one bisection away.
        self._max_high = list(accumulate(self._highs, max))
        self._columns: Optional[TreeColumns] = None

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[StridedInterval]:
        """Every interval, ascending by low endpoint."""
        return iter(self._intervals)

    def intervals(self) -> list[StridedInterval]:
        """All stored intervals in ascending low order (a fresh list)."""
        return list(self._intervals)

    def iter_overlaps(self, low: int, high: int) -> Iterator[StridedInterval]:
        """Yield every interval whose byte extent intersects ``[low, high]``.

        The candidate window runs from the first row whose running max
        ``high`` reaches ``low`` to the last row starting at or before
        ``high`` — the window the engine's columnar comparison computes
        with ``searchsorted`` — and rows inside it that end before ``low``
        are filtered out.  Hits come in row order; a query costs
        O(log n + window) rather than a balanced tree's O(log n + hits).
        """
        intervals, highs = self._intervals, self._highs
        first = bisect_left(self._max_high, low)
        for i in range(first, bisect_right(self._lows, high)):
            if highs[i] >= low:
                yield intervals[i]

    def columns(self) -> TreeColumns:
        """The column view, built on first use."""
        if self._columns is None:
            intervals = self._intervals
            n = len(intervals)

            def column(field: str, dtype) -> np.ndarray:
                return np.fromiter(map(attrgetter(field), intervals), dtype, n)

            pcs, pc_rank = np.unique(column("pc", np.int64), return_inverse=True)
            self._columns = TreeColumns(
                low=np.array(self._lows, np.int64),
                high=np.array(self._highs, np.int64),
                write=column("is_write", np.bool_),
                atomic=column("is_atomic", np.bool_),
                dense=column("dense", np.bool_),
                msid=column("msid", np.int32),
                pcs=pcs,
                pc_rank=pc_rank.astype(np.int32),
            )
        return self._columns
