"""(De)serialisation of interval summaries for the persistent result cache.

A summary is its in-order interval sequence, so that is what is stored:
one nine-field row per interval, in order.  Loading goes through the
:class:`~repro.itree.tree.IntervalTree` and
:class:`~repro.itree.interval.StridedInterval` constructors, whose checks
(rows ascending by ``low``, counts and sizes positive) are what reject a
reordered or malformed file.
"""

from __future__ import annotations

from .interval import StridedInterval
from .tree import IntervalTree

#: Bump when the row layout changes (older cached trees become misses).
#: 3: in-order nine-field rows; 2 was a preorder walk of a red-black tree
#: with nil markers and a leading colour field.
TREE_FORMAT = 3


def tree_to_rows(tree: IntervalTree) -> list:
    """One row per interval, in order (the flags as 0/1)."""
    return [
        [
            si.low, si.stride, si.size, si.count, int(si.is_write),
            int(si.is_atomic), si.pc, si.msid, si.point,
        ]
        for si in tree
    ]


def tree_from_rows(rows: list) -> IntervalTree:
    """Rebuild the summary :func:`tree_to_rows` described; ``ValueError`` /
    ``TypeError`` on rows of the wrong arity or type, or out of order."""

    def interval(low, stride, size, count, write, atomic, pc, msid, point):
        return StridedInterval(
            int(low), int(stride), int(size), int(count), bool(write),
            bool(atomic), int(pc), int(msid), int(point),
        )

    return IntervalTree([interval(*row) for row in rows])
