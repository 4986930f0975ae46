"""The interval summary: a sorted array answering stabbing queries in order."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itree.interval import StridedInterval
from repro.itree.tree import IntervalTree


def si(low, high, **kw):
    """A dense interval covering [low, high]."""
    length = high - low + 1
    defaults = dict(is_write=False, is_atomic=False, pc=0, msid=0)
    defaults.update(kw)
    return StridedInterval(low=low, stride=1, size=1, count=length, **defaults)


def tree_of(spans):
    return IntervalTree.from_intervals(sorted((si(lo, hi) for lo, hi in spans), key=lambda s: s.low))


class TestBasics:
    def test_empty(self):
        t = IntervalTree.from_intervals([])
        assert len(t) == 0
        assert not t
        assert list(t) == []
        assert list(t.iter_overlaps(0, 100)) == []

    def test_inorder_iteration(self):
        ivs = [si(lo, lo + 5) for lo in (10, 20, 30, 50, 70)]
        t = IntervalTree.from_intervals(ivs)
        assert len(t) == 5
        assert list(t) == t.intervals() == ivs
        assert all(got is want for got, want in zip(t, ivs))

    def test_duplicates_allowed(self):
        """Equal keys keep the order given."""
        ivs = [si(5, 9, pc=i) for i in range(4)]
        t = IntervalTree.from_intervals(ivs)
        assert len(t) == 4
        assert [s.pc for s in t] == [0, 1, 2, 3]
        assert [s.pc for s in t.iter_overlaps(9, 9)] == [0, 1, 2, 3]

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            IntervalTree.from_intervals([si(5, 9), si(4, 9)])
        with pytest.raises(ValueError):
            IntervalTree.from_intervals([si(1, 2), si(3, 4), si(3, 9), si(2, 9)])

    def test_no_mutators(self):
        t = IntervalTree.from_intervals([si(1, 2)])
        assert not hasattr(t, "insert") and not hasattr(t, "delete")
        t.intervals().clear()  # a copy: the summary keeps its rows
        assert len(t) == 1


class TestOverlapQueries:
    def test_gap_and_touching_ends(self):
        t = tree_of([(10, 20), (30, 40)])
        assert len(list(t.iter_overlaps(15, 16))) == 1
        assert list(t.iter_overlaps(25, 29)) == []
        assert len(list(t.iter_overlaps(20, 30))) == 2  # touches both ends

    def test_iter_overlaps_finds_all(self):
        t = tree_of([(0, 5), (3, 8), (10, 12), (11, 30), (40, 41)])
        hits = [(s.low, s.high) for s in t.iter_overlaps(4, 11)]
        assert hits == [(0, 5), (3, 8), (10, 12), (11, 30)]

    def test_window_rows_ending_before_the_probe_are_filtered(self):
        """A long early row opens the window; the short rows after it that
        end before the probe are inside the window but not hits."""
        t = tree_of([(0, 100), (1, 2), (3, 4), (50, 60), (70, 71)])
        assert [(s.low, s.high) for s in t.iter_overlaps(55, 65)] == [
            (0, 100), (50, 60),
        ]

    def test_point_query(self):
        t = tree_of([(5, 5)])
        assert len(list(t.iter_overlaps(5, 5))) == 1
        assert list(t.iter_overlaps(4, 4)) == []
        assert list(t.iter_overlaps(6, 6)) == []


def column_window(tree, lo, hi):
    """The row indices ``_compare_columnar`` selects for a probe ``[lo, hi]``
    from the column view (same expressions, one probe)."""
    first, stop = tree.windows(lo, hi)
    rows = np.arange(first, max(stop, first))
    return rows[tree.columns().high[rows] >= lo].tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 40)),
        min_size=0,
        max_size=120,
    ),
    st.lists(
        st.tuples(st.integers(0, 110), st.integers(0, 40)),
        min_size=1,
        max_size=8,
    ),
)
def test_property_overlaps_match_bruteforce(spans, queries):
    """What witness determinism rests on: a query yields exactly the
    overlapping intervals of the given order — same objects, same order,
    ties included — and the columnar join's window selects the same rows."""
    given_order = sorted(
        (si(lo, lo + length, pc=i) for i, (lo, length) in enumerate(spans)),
        key=lambda s: s.low,
    )
    t = IntervalTree.from_intervals(given_order)
    for qlo, qlen in queries:
        qhi = qlo + qlen
        expected = [s for s in given_order if s.low <= qhi and qlo <= s.high]
        got = list(t.iter_overlaps(qlo, qhi))
        assert len(got) == len(expected)
        assert all(g is e for g, e in zip(got, expected))
        assert [given_order[i] for i in column_window(t, qlo, qhi)] == expected


# -- column view ----------------------------------------------------------------


def _mixed_intervals(n, seed):
    rng = random.Random(seed)
    return sorted(
        (
            StridedInterval(
                low=rng.randrange(400),
                stride=rng.randrange(1, 20),
                size=rng.choice([1, 4, 8]),
                count=rng.randrange(1, 6),
                is_write=rng.random() < 0.5,
                is_atomic=rng.random() < 0.2,
                pc=0x1000 + rng.randrange(5),
                msid=rng.randrange(3),
                point=rng.randrange(4) << 24,
            )
            for _ in range(n)
        ),
        key=lambda s: s.low,
    )


def assert_columns_match(tree):
    cols = tree.columns()
    nodes = list(tree)
    for name, attr in (
        ("low", "low"), ("stride", "stride"), ("size", "size"),
        ("count", "count"), ("write", "is_write"), ("atomic", "is_atomic"),
        ("pc", "pc"), ("msid", "msid"), ("point", "point"), ("high", "high"),
        ("dense", "dense"),
    ):
        assert getattr(cols, name).tolist() == [getattr(s, attr) for s in nodes]
    highs = [s.high for s in nodes]
    assert cols.max_high.tolist() == [max(highs[: i + 1]) for i in range(len(nodes))]


class TestColumns:
    def test_empty_tree(self):
        cols = IntervalTree.from_intervals([]).columns()
        assert cols.low.shape == cols.max_high.shape == cols.point.shape == (0,)

    def test_bulk_built(self):
        tree = IntervalTree.from_intervals(_mixed_intervals(200, 1))
        assert_columns_match(tree)
        assert tree.columns() is tree.columns()

    def test_objects_are_made_once_from_the_columns(self):
        """A tree built from columns makes its interval objects on first
        use, equal to the ones the columns came from, and keeps them."""
        given = _mixed_intervals(200, 2)
        tree = IntervalTree(IntervalTree.from_intervals(given).columns())
        assert list(tree) == given
        assert all(a is b for a, b in zip(tree, tree.intervals()))
        assert_columns_match(tree)
