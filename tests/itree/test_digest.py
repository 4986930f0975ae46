"""Access digests: the pair-level prune must never drop a real race.

The one summary (:class:`~repro.sword.digest.FrameDigest`) and the one
predicate (``digests_may_race``) are checked here against the interval
tree's own brute force: digest the records of a set of accesses, and
whenever the predicate prunes, no node pair of the same accesses races.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import (
    EVENT_DTYPE,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
)
from repro.ilp import intervals_share_address
from repro.itree import IntervalTree, StridedInterval
from repro.sword.digest import FrameDigest, digests_may_race


def interval(low, stride=1, size=1, count=1, write=True, atomic=False, pc=0):
    return StridedInterval(
        low=low, stride=stride, size=size, count=count,
        is_write=write, is_atomic=atomic, pc=pc, msid=0,
    )


def make_tree(intervals):
    return IntervalTree.from_intervals(sorted(intervals, key=lambda si: si.low))


def digest_of(intervals) -> FrameDigest:
    """The frame digest of the access records behind ``intervals``."""
    records = np.zeros(len(intervals), dtype=EVENT_DTYPE)
    for rec, si in zip(records, intervals):
        rec["kind"] = KIND_ACCESS
        rec["flags"] = (FLAG_WRITE if si.is_write else 0) | (
            FLAG_ATOMIC if si.is_atomic else 0
        )
        rec["addr"] = si.low
        rec["size"] = si.size
        rec["count"] = si.count
        rec["stride"] = si.stride
        rec["pc"] = si.pc
    return FrameDigest.from_records(records)


def pair_races(a: StridedInterval, b: StridedInterval) -> bool:
    """The node-level race condition the digest filter approximates."""
    if not (a.is_write or b.is_write):
        return False
    if a.is_atomic and b.is_atomic:
        return False
    return intervals_share_address(a, b) is not None


intervals_st = st.builds(
    interval,
    low=st.integers(min_value=0, max_value=200),
    stride=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=1, max_value=8),
    count=st.integers(min_value=1, max_value=6),
    write=st.booleans(),
    atomic=st.booleans(),
)
tree_st = st.lists(intervals_st, min_size=0, max_size=5)


@settings(max_examples=300, deadline=None)
@given(tree_st, tree_st)
def test_prune_is_sound(ia, ib):
    """digests_may_race == False implies no node pair races."""
    da = digest_of(ia)
    db = digest_of(ib)
    if not digests_may_race(da, db):
        for a in ia:
            for b in ib:
                assert not pair_races(a, b)


def test_digest_of_empty_tree():
    d = digest_of([])
    assert d.nodes == 0
    assert not digests_may_race(d, d)


def test_disjoint_boxes_pruned():
    da = digest_of([interval(0, size=8)])
    db = digest_of([interval(100, size=8)])
    assert not digests_may_race(da, db)


def test_read_read_pruned():
    da = digest_of([interval(0, write=False)])
    db = digest_of([interval(0, write=False)])
    assert not digests_may_race(da, db)


def test_atomic_atomic_pruned():
    da = digest_of([interval(0, atomic=True)])
    db = digest_of([interval(0, atomic=True)])
    assert not digests_may_race(da, db)


def test_disjoint_residue_classes_pruned():
    """Two interleaved strided sweeps that never touch the same byte."""
    # Thread A sweeps bytes {0, 8, 16, ...}; thread B sweeps {4, 12, 20, ...}.
    da = digest_of([interval(0, stride=8, size=4, count=50)])
    db = digest_of([interval(4, stride=8, size=4, count=50)])
    assert da.gcd == 8 and db.gcd == 8
    assert not digests_may_race(da, db)


def test_shared_residue_class_not_pruned():
    da = digest_of([interval(0, stride=8, size=4, count=50)])
    db = digest_of([interval(8, stride=8, size=4, count=50)])
    assert digests_may_race(da, db)


def test_residue_window_math_matches_brute_force():
    """Cross-check the modular window test against explicit address sets."""
    cases = [
        (interval(0, stride=6, size=2, count=10), interval(3, stride=6, size=2, count=10)),
        (interval(0, stride=6, size=2, count=10), interval(2, stride=6, size=2, count=10)),
        (interval(1, stride=9, size=3, count=7), interval(5, stride=9, size=3, count=7)),
        (interval(0, stride=6, size=2, count=10), interval(1, stride=6, size=2, count=10)),
    ]
    for a, b in cases:
        da = digest_of([a])
        db = digest_of([b])
        bytes_a = {
            a.low + k * a.stride + j
            for k in range(a.count) for j in range(a.size)
        }
        bytes_b = {
            b.low + k * b.stride + j
            for k in range(b.count) for j in range(b.size)
        }
        shared = bool(bytes_a & bytes_b)
        assert shared == (intervals_share_address(a, b) is not None)
        if not digests_may_race(da, db):
            assert not shared
