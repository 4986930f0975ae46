"""Augmented red-black interval tree: invariants and queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itree.interval import StridedInterval
from repro.itree.serialize import tree_from_rows, tree_to_rows
from repro.itree.tree import BLACK, IntervalTree


def si(low, high, **kw):
    """A dense interval covering [low, high]."""
    length = high - low + 1
    defaults = dict(is_write=False, is_atomic=False, pc=0, msid=0)
    defaults.update(kw)
    return StridedInterval(low=low, stride=1, size=1, count=length, **defaults)


class TestBasics:
    def test_empty(self):
        t = IntervalTree()
        assert len(t) == 0
        assert not t
        assert t.search_overlap(0, 100) is None
        assert list(t.iter_overlaps(0, 100)) == []
        t.validate()

    def test_insert_and_inorder(self):
        t = IntervalTree()
        for lo in (50, 10, 30, 70, 20):
            t.insert(si(lo, lo + 5))
        lows = [n.interval.low for n in t]
        assert lows == sorted(lows)
        assert len(t) == 5
        t.validate()

    def test_duplicates_allowed(self):
        t = IntervalTree()
        for _ in range(4):
            t.insert(si(5, 9))
        assert len(t) == 4
        t.validate()

    def test_root_is_black(self):
        t = IntervalTree()
        t.insert(si(1, 2))
        assert t.root.color == BLACK


class TestOverlapQueries:
    def test_search_overlap_hits(self):
        t = IntervalTree()
        t.insert(si(10, 20))
        t.insert(si(30, 40))
        assert t.search_overlap(15, 16) is not None
        assert t.search_overlap(25, 29) is None
        assert t.search_overlap(20, 30) is not None  # touches both ends

    def test_iter_overlaps_finds_all(self):
        t = IntervalTree()
        intervals = [(0, 5), (3, 8), (10, 12), (11, 30), (40, 41)]
        for lo, hi in intervals:
            t.insert(si(lo, hi))
        hits = {(n.interval.low, n.interval.high) for n in t.iter_overlaps(4, 11)}
        assert hits == {(0, 5), (3, 8), (10, 12), (11, 30)}

    def test_point_query(self):
        t = IntervalTree()
        t.insert(si(5, 5))
        assert t.search_overlap(5, 5) is not None
        assert t.search_overlap(4, 4) is None
        assert t.search_overlap(6, 6) is None


class TestDeletion:
    def test_delete_leaf_and_internal(self):
        t = IntervalTree()
        nodes = [t.insert(si(lo, lo + 2)) for lo in (10, 5, 15, 3, 7, 12, 20)]
        t.delete(nodes[3])  # leaf
        t.validate()
        t.delete(nodes[0])  # internal
        t.validate()
        assert len(t) == 5
        lows = [n.interval.low for n in t]
        assert lows == sorted(lows)

    def test_delete_everything(self):
        t = IntervalTree()
        nodes = [t.insert(si(i * 3, i * 3 + 1)) for i in range(20)]
        random.Random(1).shuffle(nodes)
        for node in nodes:
            t.delete(node)
            t.validate()
        assert len(t) == 0

    def test_delete_nil_rejected(self):
        t = IntervalTree()
        with pytest.raises(ValueError):
            t.delete(t.nil)


class TestBalance:
    def test_height_is_logarithmic_on_sorted_insert(self):
        t = IntervalTree()
        n = 1024
        for i in range(n):
            t.insert(si(i, i))
        # RB bound: height <= 2*log2(n+1).
        assert t.height() <= 20
        t.validate()

    def test_height_on_random_insert(self):
        rng = random.Random(7)
        t = IntervalTree()
        for _ in range(512):
            lo = rng.randrange(100_000)
            t.insert(si(lo, lo + rng.randrange(50)))
        assert t.height() <= 18
        t.validate()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 40)),
        min_size=1,
        max_size=120,
    ),
    st.tuples(st.integers(0, 340), st.integers(0, 40)),
)
def test_property_overlaps_match_bruteforce(spans, query):
    t = IntervalTree()
    stored = []
    for lo, length in spans:
        iv = si(lo, lo + length)
        t.insert(iv)
        stored.append((lo, lo + length))
    t.validate()
    qlo, qlen = query
    qhi = qlo + qlen
    expected = {(a, b) for a, b in stored if a <= qhi and qlo <= b}
    got = {(n.interval.low, n.interval.high) for n in t.iter_overlaps(qlo, qhi)}
    assert got == expected
    one = t.search_overlap(qlo, qhi)
    assert (one is not None) == bool(expected)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 30), st.booleans()),
        min_size=1,
        max_size=80,
    )
)
def test_property_interleaved_insert_delete_keeps_invariants(ops):
    t = IntervalTree()
    live = []
    for lo, length, delete in ops:
        if delete and live:
            victim = live.pop(lo % len(live))
            t.delete(victim)
        else:
            live.append(t.insert(si(lo, lo + length)))
        t.validate()
    assert len(t) == len(live)


# -- column view ----------------------------------------------------------------


def _mixed_intervals(n, seed):
    rng = random.Random(seed)
    return [
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
    ]


def assert_columns_match(tree):
    cols = tree.columns()
    nodes = [n.interval for n in tree]
    for name, attr in (
        ("low", "low"), ("high", "high"), ("write", "is_write"),
        ("atomic", "is_atomic"), ("dense", "dense"), ("msid", "msid"),
    ):
        assert getattr(cols, name).tolist() == [getattr(s, attr) for s in nodes]
    assert cols.pcs.tolist() == sorted({s.pc for s in nodes})
    assert cols.pcs[cols.pc_rank].tolist() == [s.pc for s in nodes]


class TestColumns:
    def test_empty_tree(self):
        cols = IntervalTree().columns()
        assert cols.low.shape == cols.pc_rank.shape == cols.pcs.shape == (0,)

    def test_bulk_built(self):
        ivs = sorted(_mixed_intervals(200, 1), key=lambda s: s.low)
        assert_columns_match(IntervalTree.build_from_sorted(ivs))

    def test_reloaded_from_rows(self):
        ivs = sorted(_mixed_intervals(64, 2), key=lambda s: s.low)
        tree = IntervalTree.build_from_sorted(ivs)
        assert_columns_match(tree_from_rows(tree_to_rows(tree)))

    def test_incrementally_built_equals_bulk_built(self):
        ivs = _mixed_intervals(150, 3)
        incremental = IntervalTree()
        for iv in ivs:
            incremental.insert(iv)
        assert_columns_match(incremental)
        bulk = IntervalTree.build_from_sorted(sorted(ivs, key=lambda s: s.low))
        # Equal keys descend right, so ties keep insertion order either way.
        assert incremental.intervals() == bulk.intervals()
        assert incremental.columns().high.tolist() == bulk.columns().high.tolist()

    def test_cached_until_mutated(self):
        tree = IntervalTree()
        nodes = [tree.insert(iv) for iv in _mixed_intervals(20, 4)]
        first = tree.columns()
        assert tree.columns() is first
        tree.insert(si(7, 9))
        assert tree.columns() is not first
        assert_columns_match(tree)
        second = tree.columns()
        tree.delete(nodes[5])
        assert tree.columns() is not second
        assert_columns_match(tree)
