"""Strided-interval summaries: coalesce a thread's accesses into strided
intervals and keep them as a sorted array with a running max of ``high``
(:class:`IntervalTree` — the paper's interval tree, built once, read in
order)."""

from .builder import TreeBuilder, build_tree
from .interval import StridedInterval, interval_from_access
from .serialize import TREE_FORMAT, tree_from_rows, tree_to_rows
from .tree import IntervalTree

__all__ = [
    "IntervalTree",
    "StridedInterval",
    "TREE_FORMAT",
    "TreeBuilder",
    "build_tree",
    "interval_from_access",
    "tree_from_rows",
    "tree_to_rows",
]
