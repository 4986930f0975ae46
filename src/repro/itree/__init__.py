"""Strided-interval summaries: coalesce a thread's accesses into strided
intervals and keep them as a sorted array with a running max of ``high``
(:class:`IntervalTree` — the paper's interval tree, built once, read in
order)."""

from .builder import TreeBuilder, build_tree
from .interval import StridedInterval, interval_from_access
from .tree import IntervalTree

__all__ = [
    "IntervalTree",
    "StridedInterval",
    "TreeBuilder",
    "build_tree",
    "interval_from_access",
]
