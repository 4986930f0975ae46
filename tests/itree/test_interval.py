"""Strided-interval payloads: geometry, coalescing, normalisation."""

import pytest

from repro.common.events import Access
from repro.itree.interval import StridedInterval, interval_from_access


def make(low=0, stride=8, size=4, count=3, **kw):
    defaults = dict(is_write=False, is_atomic=False, pc=1, msid=0)
    defaults.update(kw)
    return StridedInterval(low=low, stride=stride, size=size, count=count, **defaults)


class TestGeometry:
    def test_figure4_style_interval(self):
        # T0 of Fig. 4: base 10, stride 8, size 4, five elements.
        iv = make(low=10, stride=8, size=4, count=5)
        assert iv.last_start == 42
        assert iv.high == 45
        assert iv.next_start == 50
        assert not iv.dense
        addrs = set(iv.addresses())
        assert 10 in addrs and 13 in addrs and 14 not in addrs

    def test_singleton_uses_size_as_stride(self):
        iv = make(count=1, stride=999, size=8)
        assert iv.stride == 8
        assert iv.high == iv.low + 7
        assert iv.dense

    def test_dense_when_stride_le_size(self):
        assert make(stride=4, size=4).dense
        assert make(stride=2, size=4).dense
        assert not make(stride=8, size=4).dense

    def test_extent_overlap(self):
        a = make(low=0, stride=8, size=4, count=2)   # covers [0, 11]
        b = make(low=11, stride=8, size=4, count=1)  # covers [11, 14]
        c = make(low=12, stride=8, size=4, count=1)
        assert a.extent_overlaps(b)
        assert not a.extent_overlaps(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            make(count=0)
        with pytest.raises(ValueError):
            make(size=0)
        with pytest.raises(ValueError):
            StridedInterval(low=0, stride=0, size=4, count=2,
                            is_write=False, is_atomic=False, pc=0, msid=0)


class TestCoalescing:
    def test_singleton_duplicate(self):
        iv = make(count=1, size=8, low=100)
        assert iv.try_extend(100)
        assert iv.count == 1

    def test_singleton_grows_with_any_gap(self):
        iv = make(count=1, size=8, low=100)
        assert iv.try_extend(116)
        assert iv.count == 2
        assert iv.stride == 16
        assert iv.try_extend(132)
        assert iv.count == 3

    def test_progression_rejects_wrong_stride(self):
        iv = make(count=2, stride=8, size=4, low=0)
        assert not iv.try_extend(12)   # expected next start is 16
        assert iv.try_extend(16)
        assert iv.count == 3

    def test_trailing_duplicate_absorbed(self):
        iv = make(count=3, stride=8, size=4, low=0)
        assert iv.try_extend(16)  # == last_start
        assert iv.count == 3

    def test_backward_not_absorbed(self):
        iv = make(count=1, size=8, low=100)
        assert not iv.try_extend(92)

    def test_bulk_append(self):
        iv = make(count=2, stride=8, size=4, low=0)
        assert iv.try_append_bulk(16, count=3, stride=8)
        assert iv.count == 5
        assert not iv.try_append_bulk(100, count=2, stride=4)

    def test_bulk_onto_singleton(self):
        iv = make(count=1, size=4, low=0)
        assert iv.try_append_bulk(8, count=2, stride=8)
        assert iv.count == 3
        assert iv.stride == 8


class TestFromAccess:
    def test_scalar_access(self):
        iv = interval_from_access(
            Access(addr=40, size=8, count=1, stride=0, is_write=True,
                   is_atomic=False, pc=9, msid=2)
        )
        assert iv.low == 40
        assert iv.count == 1
        assert iv.is_write and iv.pc == 9 and iv.msid == 2

    def test_negative_stride_normalised(self):
        iv = interval_from_access(
            Access(addr=100, size=4, count=4, stride=-8, is_write=False,
                   is_atomic=False, pc=1)
        )
        assert iv.low == 76
        assert iv.stride == 8
        assert iv.count == 4
