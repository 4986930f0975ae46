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


@st.composite
def access_streams(draw):
    """Accesses of a few sites (all six site fields drawn) over a small
    address range: scalar, bulk, descending, duplicate and mixed runs."""
    sites = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0x10, 0x11, 0x12]),    # pc
                st.booleans(),                          # write
                st.booleans(),                          # atomic
                st.sampled_from([1, 4, 8]),             # size
                st.sampled_from([0, 1]),                # msid
                st.sampled_from([0, 1 << 24]),          # point
            ),
            min_size=1,
            max_size=4,
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sites) - 1),
                st.integers(0, 24),                     # element index
                st.sampled_from([1, 1, 1, 2, 3, 5]),    # count
                st.sampled_from([-8, -4, 4, 8, 16]),    # bulk stride
            ),
            min_size=1,
            max_size=80,
        )
    )
    return [
        Access(
            addr=0x100 + 4 * idx, size=size, count=count,
            stride=stride if count > 1 else 0, is_write=write,
            is_atomic=atomic, pc=pc, msid=msid, task_point=point,
        )
        for s, idx, count, stride in ops
        for pc, write, atomic, size, msid, point in [sites[s]]
    ]


def node_rows(tree):
    return [
        (s.low, s.stride, s.size, s.count, s.is_write, s.is_atomic, s.pc,
         s.msid, s.point)
        for s in tree
    ]


def assert_columns_are_the_nodes(tree):
    cols = tree.columns()
    nodes = list(tree)
    assert len(tree) == len(nodes) == len(cols.low)
    fields = ("low", "stride", "size", "count", "write", "atomic", "pc",
              "msid", "point")
    assert list(zip(*(getattr(cols, f).tolist() for f in fields))) == (
        node_rows(tree)
    )
    highs = [s.high for s in nodes]
    assert cols.high.tolist() == highs
    assert cols.max_high.tolist() == [
        max(highs[: i + 1]) for i in range(len(highs))
    ]


@settings(max_examples=300, deadline=None)
@given(accesses=access_streams(), cuts=st.lists(st.integers(1, 79), max_size=6))
def test_property_batches_build_the_one_record_tree(accesses, cuts):
    """``add_records``, however the stream is cut into batches, seals the
    tree ``add_access`` seals one record at a time: the same nodes in the
    same order, ties included."""
    reference = TreeBuilder()
    for a in accesses:
        reference.add_access(a)
    expected = reference.finish()
    records = accesses_to_records(accesses)
    bounds = sorted({0, len(records), *(c for c in cuts if c < len(records))})
    batched = TreeBuilder()
    for lo, hi in zip(bounds, bounds[1:]):
        batched.add_records(records[lo:hi])
    assert batched.events_in == reference.events_in == len(accesses)
    tree = batched.finish()
    assert node_rows(tree) == node_rows(expected)
    assert_columns_are_the_nodes(tree)
    assert_columns_are_the_nodes(expected)
