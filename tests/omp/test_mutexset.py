"""Mutex-set interning table."""

import pytest
from conftest import disk_full_midwrite

from repro.omp.mutexset import EMPTY_MSID, MutexSetTable


def test_empty_set_is_msid_zero():
    t = MutexSetTable()
    assert t.intern(frozenset()) == EMPTY_MSID
    assert t.get(EMPTY_MSID) == frozenset()


def test_interning_is_stable():
    t = MutexSetTable()
    a = t.intern(frozenset({1, 2}))
    b = t.intern(frozenset({2, 1}))
    assert a == b
    assert t.get(a) == frozenset({1, 2})
    assert len(t) == 2  # empty + {1,2}


def test_unknown_msid_raises():
    t = MutexSetTable()
    with pytest.raises(KeyError):
        t.get(99)


def test_disjointness():
    t = MutexSetTable()
    ab = t.intern(frozenset({1, 2}))
    bc = t.intern(frozenset({2, 3}))
    cd = t.intern(frozenset({3, 4}))
    assert not t.disjoint(ab, bc)
    assert t.disjoint(ab, cd)
    assert not t.disjoint(ab, ab)  # same non-empty set shares everything
    assert t.disjoint(EMPTY_MSID, ab)
    assert t.disjoint(ab, EMPTY_MSID)
    assert t.disjoint(EMPTY_MSID, EMPTY_MSID)


def test_save_load_roundtrip(tmp_path):
    t = MutexSetTable()
    ids = [t.intern(frozenset(range(i))) for i in range(5)]
    path = tmp_path / "mutexsets.json"
    t.save(path)
    loaded = MutexSetTable.load(path)
    for i, msid in enumerate(ids):
        assert loaded.get(msid) == frozenset(range(i))
    # New interning continues past the loaded ids.
    fresh = loaded.intern(frozenset({100}))
    assert fresh not in ids


def test_failed_save_leaves_the_previous_table(tmp_path):
    """A durable snapshot that dies halfway must leave the last good
    table: a torn one reads as missing, and salvage then judges every
    locked pair with an empty table."""
    first = MutexSetTable()
    locked = first.intern(frozenset({1, 2}))
    path = tmp_path / "mutexsets.json"
    first.save(path)
    second = MutexSetTable()
    for i in range(64):
        second.intern(frozenset({i, i + 1}))
    with disk_full_midwrite(), pytest.raises(OSError):
        second.save(path)
    loaded = MutexSetTable.load(path)
    assert len(loaded) == len(first)
    assert loaded.get(locked) == frozenset({1, 2})
    assert not list(tmp_path.glob("*.tmp"))
