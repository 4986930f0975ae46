"""Summarising tree builder: loop patterns collapse into few nodes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import Access, accesses_to_records
from repro.itree.builder import TreeBuilder, build_tree


def acc(addr, *, size=8, count=1, stride=0, write=False, pc=1, msid=0,
        atomic=False):
    return Access(addr=addr, size=size, count=count, stride=stride,
                  is_write=write, is_atomic=atomic, pc=pc, msid=msid)


def test_unit_stride_sweep_collapses_to_one_node():
    """The paper's point: an array sweep becomes one summarised node."""
    tree = build_tree(acc(i * 8, write=True) for i in range(1000))
    assert len(tree) == 1
    node = next(iter(tree))
    assert node.count == 1000
    assert node.low == 0
    assert node.stride == 8


def test_interleaved_sites_keep_separate_progressions():
    """a[i] = a[i-1]: read site and write site alternate but each coalesces."""
    events = []
    for i in range(1, 500):
        events.append(acc((i - 1) * 8, pc=10))          # read a[i-1]
        events.append(acc(i * 8, write=True, pc=11))    # write a[i]
    tree = build_tree(events)
    assert len(tree) == 2
    counts = sorted(n.count for n in tree)
    assert counts == [499, 499]


def test_repeated_single_location_is_one_node():
    tree = build_tree(acc(64) for _ in range(100))
    assert len(tree) == 1
    assert next(iter(tree)).count == 1


def test_different_msid_not_coalesced():
    tree = build_tree([acc(0, msid=0), acc(8, msid=1)])
    assert len(tree) == 2


def test_bulk_events_passthrough_and_extend():
    events = [
        acc(0, count=100, stride=8, write=True),
        acc(800, count=100, stride=8, write=True),  # continues progression
        acc(5000, count=10, stride=16, write=True),
    ]
    tree = build_tree(events)
    assert len(tree) == 2
    counts = sorted(n.count for n in tree)
    assert counts == [10, 200]


def test_non_contiguous_breaks_progression():
    tree = build_tree([acc(0), acc(8), acc(16), acc(1000), acc(1008)])
    assert len(tree) == 2
    counts = sorted(n.count for n in tree)
    assert counts == [2, 3]


def test_add_records_filters_non_access_kinds():
    from repro.common.events import make_event, KIND_BARRIER

    b = TreeBuilder()
    records = accesses_to_records([acc(0), acc(8)])
    b.add_records(records)
    barrier_only = np.array([make_event(KIND_BARRIER)], dtype=records.dtype)
    b.add_records(barrier_only)
    tree = b.finish()
    assert len(tree) == 1
    assert b.events_in == 2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 40),        # element index
            st.booleans(),             # write?
            st.sampled_from([1, 2]),   # pc choice
        ),
        min_size=1,
        max_size=200,
    )
)
def test_property_summarisation_preserves_address_multiset(ops):
    """Coalescing must never lose or invent addresses per (site, op)."""
    events = [
        acc(idx * 8, write=w, pc=pc) for idx, w, pc in ops
    ]
    tree = build_tree(events)
    # Addresses per (pc, write) in the tree...
    got: dict = {}
    for iv in tree:
        key = (iv.pc, iv.is_write)
        got.setdefault(key, set()).update(iv.addresses().tolist())
    # ... must equal the union of raw event addresses (sets: duplicates are
    # summarised by design).
    expected: dict = {}
    for e in events:
        key = (e.pc, e.is_write)
        expected.setdefault(key, set()).update(e.addresses().tolist())
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 40),        # element index
            st.booleans(),             # write?
            st.sampled_from([1, 2]),   # pc choice
            st.sampled_from([1, 3]),   # count
        ),
        min_size=1,
        max_size=120,
    ),
    cuts=st.lists(st.integers(1, 119), max_size=8),
)
def test_property_record_slicing_does_not_change_the_tree(ops, cuts):
    """However a record stream is sliced into ``add_records`` calls,
    the builder seals the same tree."""
    records = accesses_to_records(
        acc(idx * 8, write=w, pc=pc, count=n, stride=8 * (n > 1))
        for idx, w, pc, n in ops
    )
    bounds = sorted({0, len(records), *(c for c in cuts if c < len(records))})
    whole, sliced = TreeBuilder(), TreeBuilder()
    whole.add_records(records)
    for lo, hi in zip(bounds, bounds[1:]):
        sliced.add_records(records[lo:hi])
    assert list(sliced.finish()) == list(whole.finish())
