"""Strided intervals: the payload of SWORD's interval-tree nodes.

A node summarises a run of accesses as an arithmetic progression of byte
addresses: ``count`` elements of ``size`` bytes, starting at ``low``, with
``stride`` bytes between element starts (paper §III-B and Figure 4).  The
paper's node fields — operation type, access size, stride, program counter,
and mutex set — map one-to-one onto the attributes here.

Byte-extent overlap between two nodes is necessary but *not* sufficient for
a shared address (Figure 4's interleaved strided accesses): the exact check
is delegated to :mod:`repro.ilp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.events import Access


@dataclass(slots=True)
class StridedInterval:
    """An arithmetic progression of memory accesses.

    Invariants (enforced on construction):

    * ``count >= 1``; ``size >= 1``;
    * ``stride >= 1`` when ``count > 1`` — strides are normalised positive
      (descending loops are flipped to start at their lowest address);
    * singletons (``count == 1``) use ``stride == size`` by convention.
    """

    low: int
    stride: int
    size: int
    count: int
    is_write: bool
    is_atomic: bool
    pc: int
    msid: int
    #: Execution point (tasking extension): encoded (entity, seq); 0 when
    #: the access came from an implicit task at sequence 0.
    point: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.count == 1:
            self.stride = self.size
        elif self.stride < 1:
            raise ValueError("bulk intervals need a positive stride")

    # -- geometry -------------------------------------------------------------

    @property
    def high(self) -> int:
        """Last byte covered (inclusive)."""
        return self.low + (self.count - 1) * self.stride + self.size - 1

    @property
    def last_start(self) -> int:
        """First byte of the final element."""
        return self.low + (self.count - 1) * self.stride

    @property
    def next_start(self) -> int:
        """Where the progression's next element would begin."""
        return self.low + self.count * self.stride

    @property
    def dense(self) -> bool:
        """True when the progression covers its byte extent without holes."""
        return self.count == 1 or self.stride <= self.size

    def extent_overlaps(self, other: "StridedInterval") -> bool:
        """Byte-extent intersection test ([low, high] as closed ranges)."""
        return self.low <= other.high and other.low <= self.high

    def addresses(self) -> np.ndarray:
        """All byte addresses touched (oracle/test use; O(count*size))."""
        starts = self.low + self.stride * np.arange(self.count, dtype=np.int64)
        offs = np.arange(self.size, dtype=np.int64)
        return (starts[:, None] + offs[None, :]).ravel()

    # -- coalescing -------------------------------------------------------------

    def try_extend(self, addr: int) -> bool:
        """Try to absorb a scalar access at ``addr`` (mutates; True on success).

        Three coalescible shapes, all arising from loop access patterns:

        * duplicate of the last element (re-read of the same location);
        * a singleton growing into a progression (any positive gap fixes
          the stride);
        * the next element of an established progression.
        """
        if self.count == 1:
            if addr == self.low:
                return True  # duplicate singleton
            gap = addr - self.low
            if gap > 0:
                self.stride = gap
                self.count = 2
                return True
            return False
        if addr == self.last_start:
            return True  # duplicate of the trailing element
        if addr == self.next_start:
            self.count += 1
            return True
        return False

    def try_append_bulk(self, addr: int, count: int, stride: int) -> bool:
        """Absorb a bulk access continuing this progression (True on success)."""
        if count == 1:
            return self.try_extend(addr)
        if self.count == 1:
            if stride > 0 and addr == self.low + stride:
                self.stride = stride
                self.count = 1 + count
                return True
            return False
        if stride == self.stride and addr == self.next_start:
            self.count += count
            return True
        return False


def interval_from_access(access: Access) -> StridedInterval:
    """Build a (normalised) strided interval from one access event."""
    a = access.normalized()
    return StridedInterval(
        low=a.addr,
        stride=a.stride if a.count > 1 else a.size,
        size=a.size,
        count=a.count,
        is_write=a.is_write,
        is_atomic=a.is_atomic,
        pc=a.pc,
        msid=a.msid,
        point=a.task_point,
    )
