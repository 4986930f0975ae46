"""Self-balancing interval trees with strided-interval summarisation."""

from .builder import TreeBuilder, build_tree
from .interval import StridedInterval, interval_from_access
from .serialize import TREE_FORMAT, tree_from_rows, tree_to_rows
from .tree import BLACK, IntervalTree, Node, RED

__all__ = [
    "BLACK",
    "IntervalTree",
    "Node",
    "RED",
    "StridedInterval",
    "TREE_FORMAT",
    "TreeBuilder",
    "build_tree",
    "interval_from_access",
    "tree_from_rows",
    "tree_to_rows",
]
