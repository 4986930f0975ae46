"""Augmented red-black interval tree (CLRS 13 / 14.3).

The paper: "we use an augmented red-black tree to maintain the interval tree
balance and to speed up the operations of insertion and search".  Each node
stores a :class:`~repro.itree.interval.StridedInterval` and is keyed by its
``low`` endpoint; the augmentation ``max_high`` (maximum interval ``high`` in
the subtree) prunes overlap searches to ``O(log n + k)``.

Implementation notes:

* a single shared NIL sentinel keeps the fixup code branch-light;
* ``insert``/``delete`` are the textbook algorithms with the ``max_high``
  augmentation maintained on rotations and on the ancestor paths;
* :meth:`IntervalTree.validate` re-checks every invariant (BST order, red
  and black rules, black-height, augmentation) and is exercised by the
  property-based tests after random operation sequences;
* :meth:`IntervalTree.columns` is the same in-order node sequence as NumPy
  columns (:class:`TreeColumns`), built on first use and dropped by
  ``insert``/``delete`` — what the engine's columnar pair comparison joins
  instead of walking nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Optional

import numpy as np

from .interval import StridedInterval

RED = True
BLACK = False


class Node:
    """One tree node.  ``key`` is the interval's low endpoint."""

    __slots__ = ("interval", "key", "max_high", "color", "left", "right", "parent")

    def __init__(self, interval: Optional[StridedInterval]) -> None:
        self.interval = interval
        self.key = interval.low if interval is not None else 0
        self.max_high = interval.high if interval is not None else -1
        self.color = BLACK
        self.left: "Node" = self  # overwritten; self-links only valid for NIL
        self.right: "Node" = self
        self.parent: "Node" = self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        color = "R" if self.color == RED else "B"
        return f"<Node {color} key={self.key} max={self.max_high}>"


@dataclass(frozen=True, slots=True)
class TreeColumns:
    """A tree's nodes in in-order, as the NumPy columns a join reads.

    Row ``i`` is the ``i``-th node :meth:`IntervalTree.__iter__` yields, so
    ``low`` ascends (insertion order among ties) while ``high`` need not.
    ``pcs`` are the distinct program counters, ascending, and
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

    @classmethod
    def from_intervals(cls, intervals: list[StridedInterval]) -> "TreeColumns":
        n = len(intervals)

        def column(field: str, dtype=np.int64) -> np.ndarray:
            return np.fromiter(map(attrgetter(field), intervals), dtype, n)

        pcs, pc_rank = np.unique(column("pc"), return_inverse=True)
        return cls(
            low=column("low"),
            high=column("high"),
            write=column("is_write", np.bool_),
            atomic=column("is_atomic", np.bool_),
            dense=column("dense", np.bool_),
            msid=column("msid", np.int32),
            pcs=pcs,
            pc_rank=pc_rank.astype(np.int32),
        )


class IntervalTree:
    """Self-balancing interval tree over strided intervals."""

    def __init__(self) -> None:
        self.nil = Node(None)
        self.nil.color = BLACK
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil
        self._size = 0
        self._columns: Optional[TreeColumns] = None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- augmentation helpers --------------------------------------------------

    def _update_max(self, x: Node) -> None:
        m = x.interval.high
        if x.left is not self.nil and x.left.max_high > m:
            m = x.left.max_high
        if x.right is not self.nil and x.right.max_high > m:
            m = x.right.max_high
        x.max_high = m

    def _update_max_upward(self, x: Node) -> None:
        while x is not self.nil:
            self._update_max(x)
            x = x.parent

    # -- rotations ----------------------------------------------------------------

    def _left_rotate(self, x: Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    def _right_rotate(self, x: Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    # -- insertion ------------------------------------------------------------------

    def insert(self, interval: StridedInterval) -> Node:
        """Insert ``interval``; duplicates of the key are allowed."""
        z = Node(interval)
        z.left = z.right = z.parent = self.nil
        y = self.nil
        x = self.root
        while x is not self.nil:
            y = x
            if z.key < x.key:
                x = x.left
            else:
                x = x.right
        z.parent = y
        if y is self.nil:
            self.root = z
        elif z.key < y.key:
            y.left = z
        else:
            y.right = z
        z.color = RED
        self._update_max_upward(z)
        self._insert_fixup(z)
        self._size += 1
        self._columns = None
        return z

    def _insert_fixup(self, z: Node) -> None:
        while z.parent.color == RED:
            if z.parent is z.parent.parent.left:
                y = z.parent.parent.right
                if y.color == RED:
                    z.parent.color = BLACK
                    y.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._left_rotate(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._right_rotate(z.parent.parent)
            else:
                y = z.parent.parent.left
                if y.color == RED:
                    z.parent.color = BLACK
                    y.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._right_rotate(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._left_rotate(z.parent.parent)
        self.root.color = BLACK

    @classmethod
    def build_from_sorted(cls, intervals: list[StridedInterval]) -> "IntervalTree":
        """Bulk-build a valid red-black tree from an already-sorted list.

        ``intervals`` must be sorted ascending by ``low`` (stable among
        ties) — the same in-order sequence incremental :meth:`insert`
        calls would produce, since equal keys always descend right.  The
        median-split construction is O(n) with no rotations: every node
        is black except the deepest level, which is red, giving a uniform
        black-height (all leaves land on the last two levels).  ``max_high``
        is computed bottom-up during the same pass.
        """
        tree = cls()
        n = len(intervals)
        if n == 0:
            return tree
        nil = tree.nil
        maxd = n.bit_length() - 1  # depth of the deepest (red) level

        def build(lo: int, hi: int, depth: int) -> Node:
            mid = (lo + hi) // 2
            node = Node(intervals[mid])
            node.color = RED if depth == maxd else BLACK
            node.parent = nil
            if lo < mid:
                node.left = build(lo, mid - 1, depth + 1)
                node.left.parent = node
                if node.left.max_high > node.max_high:
                    node.max_high = node.left.max_high
            else:
                node.left = nil
            if mid < hi:
                node.right = build(mid + 1, hi, depth + 1)
                node.right.parent = node
                if node.right.max_high > node.max_high:
                    node.max_high = node.right.max_high
            else:
                node.right = nil
            return node

        tree.root = build(0, n - 1, 0)
        tree.root.color = BLACK
        tree._size = n
        return tree

    # -- deletion --------------------------------------------------------------------

    def _transplant(self, u: Node, v: Node) -> None:
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, x: Node) -> Node:
        while x.left is not self.nil:
            x = x.left
        return x

    def delete(self, z: Node) -> None:
        """Remove node ``z`` (a handle previously returned by insert/search)."""
        if z.interval is None:
            raise ValueError("cannot delete the NIL sentinel")
        y = z
        y_original_color = y.color
        if z.left is self.nil:
            x = z.right
            self._transplant(z, z.right)
            fix_from = x.parent
        elif z.right is self.nil:
            x = z.left
            self._transplant(z, z.left)
            fix_from = x.parent
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
                fix_from = y
            else:
                fix_from = y.parent
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self._update_max_upward(fix_from)
        if y_original_color == BLACK:
            self._delete_fixup(x)
        self._size -= 1
        self._columns = None

    def _delete_fixup(self, x: Node) -> None:
        while x is not self.root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._left_rotate(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._right_rotate(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._left_rotate(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._right_rotate(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._left_rotate(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._right_rotate(x.parent)
                    x = self.root
        x.color = BLACK

    # -- queries ------------------------------------------------------------------------

    def search_overlap(self, low: int, high: int) -> Optional[Node]:
        """Return *one* node whose byte extent intersects ``[low, high]``."""
        x = self.root
        while x is not self.nil:
            if x.interval.low <= high and low <= x.interval.high:
                return x
            if x.left is not self.nil and x.left.max_high >= low:
                x = x.left
            else:
                x = x.right
        return None

    def iter_overlaps(self, low: int, high: int) -> Iterator[Node]:
        """Yield *every* node whose byte extent intersects ``[low, high]``.

        Nodes come out in **in-order** (ascending ``low``, insertion order
        among ties) regardless of the tree's internal shape, so two trees
        holding the same interval sequence — e.g. one built incrementally
        and one by :meth:`build_from_sorted` — enumerate identically.  The
        ``max_high`` augmentation still prunes whole subtrees, and because
        in-order keys ascend the walk stops at the first node past
        ``high``.
        """
        nil = self.nil
        stack: list[Node] = []
        x = self.root
        while True:
            while x is not nil and x.max_high >= low:
                stack.append(x)
                x = x.left
            if not stack:
                return
            x = stack.pop()
            if x.interval.low > high:
                return
            if low <= x.interval.high:
                yield x
            x = x.right

    def __iter__(self) -> Iterator[Node]:
        """In-order traversal (ascending by low endpoint)."""
        stack: list[Node] = []
        x = self.root
        while stack or x is not self.nil:
            while x is not self.nil:
                stack.append(x)
                x = x.left
            x = stack.pop()
            yield x
            x = x.right

    def intervals(self) -> list[StridedInterval]:
        """All stored intervals in ascending low order."""
        return [n.interval for n in self]

    def columns(self) -> TreeColumns:
        """The in-order column view (built once, until the next mutation).

        Intervals must not be mutated once stored — the tree's keys and
        ``max_high`` already rely on that, and so does this cache.
        """
        if self._columns is None:
            self._columns = TreeColumns.from_intervals(self.intervals())
        return self._columns

    def height(self) -> int:
        """Actual tree height (0 for empty; for tests of balance)."""

        def h(x: Node) -> int:
            if x is self.nil:
                return 0
            return 1 + max(h(x.left), h(x.right))

        return h(self.root)

    # -- validation (test support) -----------------------------------------------------------

    def validate(self) -> None:
        """Assert every red-black and augmentation invariant; raise on breakage."""
        if self.root.color != BLACK:
            raise AssertionError("root must be black")

        def walk(x: Node, lo: Optional[int], hi: Optional[int]) -> int:
            if x is self.nil:
                return 1
            if lo is not None and x.key < lo:
                raise AssertionError("BST order violated (left bound)")
            if hi is not None and x.key > hi:
                raise AssertionError("BST order violated (right bound)")
            if x.color == RED and (x.left.color == RED or x.right.color == RED):
                raise AssertionError("red node with red child")
            expected = x.interval.high
            for child in (x.left, x.right):
                if child is not self.nil:
                    if child.parent is not x:
                        raise AssertionError("broken parent link")
                    expected = max(expected, child.max_high)
            if x.max_high != expected:
                raise AssertionError(
                    f"max_high wrong at key {x.key}: {x.max_high} != {expected}"
                )
            bl = walk(x.left, lo, x.key)
            br = walk(x.right, x.key, hi)
            if bl != br:
                raise AssertionError("black-height mismatch")
            return bl + (1 if x.color == BLACK else 0)

        walk(self.root, None, None)
        count = sum(1 for _ in self)
        if count != self._size:
            raise AssertionError(f"size {self._size} != node count {count}")
