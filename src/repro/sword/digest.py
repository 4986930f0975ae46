"""Frame-resident access digests: collection-time pair-pruning summaries.

A :class:`FrameDigest` summarises the access footprint of one trace chunk
— the byte bounding box, read/write/atomic composition, pc range, and a
residue-class description of every touched address — computed *while the
frame is still an uncompressed record array* in the logger's buffer, for
all of a flushed buffer's chunks in one pass (:func:`segment_digests`).
The digest rides the chunk's Table-I meta row as a versioned ``d1=...`` token
(covered by the row's durable CRC), so the offline engine can decide most
concurrent interval pairs without ever inflating the compressed payload
bytes (cf. Kini, Mathur & Viswanathan, "Data Race Detection on
Compressed Traces": detection directly over the compressed form).

It is the only access summary in the system: :meth:`FrameDigest.fold`
combines the chunks of one interval and :func:`digests_may_race` decides
— without inflating either side — whether *any* access pair could satisfy
the race condition (cf. Shim et al., "Data Race Satisfiability on Array
Elements": most array-access pairs fall to algebraic filters before any
solver call).

Residue argument.  ``gcd`` divides every bulk stride *and* every access's
low-endpoint offset from ``lo``, hence every touched byte is
``lo + k (mod gcd)`` for some ``k in [0, width)`` — a single residue
window per digest.  Folding two digests reduces ``gcd`` by
``|lo_a - lo_b|`` as well, which re-anchors both windows onto the
combined minimum without widening the residue claim.  For two digests,
reduce both windows modulo ``G = gcd(g_a, g_b)``; if the windows do not
intersect mod ``G``, no byte is shared and the pair cannot race.

Every meta row carries its chunk's digest: a row without a ``d1=``
token, or with a token of any other version, is a malformed row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..common.events import FLAG_ATOMIC, FLAG_WRITE, KIND_ACCESS

#: Version prefix of the meta-row token (``d<version>=...``).  A token of
#: any other version, or one that fails to parse, is a malformed row.
FRAME_DIGEST_VERSION = 1

#: Field order of a digest's ints: the comma-separated token payload,
#: :meth:`FrameDigest.ints`, and the rows of :func:`segment_digests`.
DIGEST_FIELDS = (
    "events", "nodes", "writes", "reads", "all_atomic", "lo", "hi", "gcd",
    "width", "pc_lo", "pc_hi",
)
_TOKEN_FIELDS = len(DIGEST_FIELDS)
#: ``%``-format of the meta-row token over a digest's 11 ints.
DIGEST_TOKEN_FORMAT = f"d{FRAME_DIGEST_VERSION}=" + ",".join(["%d"] * _TOKEN_FIELDS)


@dataclass(frozen=True, slots=True)
class FrameDigest:
    """O(1) access summary of one trace chunk (or a fold of several)."""

    #: All records in the chunk, including structural events.
    events: int
    #: Access records summarised (0 = no accesses; cannot race).
    nodes: int
    writes: int
    reads: int
    #: True when every access is atomic (vacuously true at ``nodes == 0``).
    all_atomic: bool
    #: Byte bounding box, ``hi`` inclusive (undefined when ``nodes == 0``).
    lo: int
    hi: int
    #: Residue class: every touched byte is ``lo + k (mod gcd)`` for some
    #: ``k in [0, width)``; ``gcd == 0`` collapses to the bounding box.
    gcd: int
    width: int
    #: Program-counter range of the access sites (diagnostics/fold only).
    pc_lo: int
    pc_hi: int

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls, events: int = 0) -> "FrameDigest":
        return cls(
            events=events, nodes=0, writes=0, reads=0, all_atomic=True,
            lo=0, hi=0, gcd=0, width=0, pc_lo=0, pc_hi=0,
        )

    @classmethod
    def from_ints(cls, values) -> "FrameDigest":
        """Rebuild a digest from its 11 ints (:data:`DIGEST_FIELDS` order)."""
        (events, nodes, writes, reads, all_atomic, lo, hi, gcd, width,
         pc_lo, pc_hi) = values
        return cls(
            events=events, nodes=nodes, writes=writes, reads=reads,
            all_atomic=bool(all_atomic), lo=lo, hi=hi, gcd=gcd, width=width,
            pc_lo=pc_lo, pc_hi=pc_hi,
        )

    def ints(self) -> tuple[int, ...]:
        """The digest as 11 ints in :data:`DIGEST_FIELDS` order."""
        return (
            self.events, self.nodes, self.writes, self.reads,
            1 if self.all_atomic else 0, self.lo, self.hi, self.gcd,
            self.width, self.pc_lo, self.pc_hi,
        )

    @classmethod
    def from_records(cls, records: np.ndarray) -> "FrameDigest":
        """Digest one EVENT_DTYPE record array (a one-segment kernel call)."""
        (row,) = segment_digests(records, [0], [records.shape[0]])
        return cls.from_ints(row)

    def fold(self, other: "FrameDigest") -> "FrameDigest":
        """Combine two digests into one covering both chunks.

        Sound by the same residue argument: the combined ``gcd`` also
        divides ``|lo_a - lo_b|``, so both windows re-anchor onto the
        combined minimum ``lo`` without losing any congruence claim.
        """
        if other.nodes == 0:
            return self._with_events(self.events + other.events)
        if self.nodes == 0:
            return other._with_events(self.events + other.events)
        return FrameDigest(
            events=self.events + other.events,
            nodes=self.nodes + other.nodes,
            writes=self.writes + other.writes,
            reads=self.reads + other.reads,
            all_atomic=self.all_atomic and other.all_atomic,
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            gcd=math.gcd(self.gcd, other.gcd, abs(self.lo - other.lo)),
            width=max(self.width, other.width),
            pc_lo=min(self.pc_lo, other.pc_lo),
            pc_hi=max(self.pc_hi, other.pc_hi),
        )

    def _with_events(self, events: int) -> "FrameDigest":
        if events == self.events:
            return self
        return FrameDigest(
            events=events, nodes=self.nodes, writes=self.writes,
            reads=self.reads, all_atomic=self.all_atomic, lo=self.lo,
            hi=self.hi, gcd=self.gcd, width=self.width, pc_lo=self.pc_lo,
            pc_hi=self.pc_hi,
        )

    # -- meta-row token --------------------------------------------------------

    def encode(self) -> str:
        """The whitespace-free meta-row token (``d1=...``)."""
        return DIGEST_TOKEN_FORMAT % self.ints()


def segment_digests(records: np.ndarray, starts, ends) -> list[tuple[int, ...]]:
    """Digest ``records[starts[i]:ends[i]]`` for every ``i`` in one pass.

    Returns one 11-int tuple per segment (:data:`DIGEST_FIELDS` order).
    Segments may be empty, hold no access, leave gaps, or overlap: every
    per-segment quantity is a ``reduceat`` over the buffer's access
    records with interleaved ``(start, end)`` indices, of which only the
    even results (the segments themselves) are kept.  The residue gcd
    reduces the bulk strides and the steps between consecutive access
    low endpoints, which generate the same lattice as the offsets from
    the segment minimum.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    nseg = starts.shape[0]
    is_acc = records["kind"] == KIND_ACCESS
    # Access records before each record index: a segment's accesses are
    # acc[below[start]:below[end]].
    below = np.zeros(records.shape[0] + 1, dtype=np.intp)
    np.cumsum(is_acc, out=below[1:])
    a_start = below[starts]
    a_end = below[ends]
    nodes = a_end - a_start
    cols = np.zeros((_TOKEN_FIELDS, nseg), dtype=np.int64)
    cols[0] = ends - starts
    cols[1] = nodes
    cols[4] = 1  # all_atomic holds vacuously for access-free segments
    # pcs are unsigned 64-bit: reduced apart from the int64 columns.
    pc_lo = np.zeros(nseg, dtype=np.uint64)
    pc_hi = np.zeros(nseg, dtype=np.uint64)
    hit = np.flatnonzero(nodes)
    if hit.size:
        acc = records[is_acc]
        addr = acc["addr"].astype(np.int64)
        count = acc["count"].astype(np.int64)
        stride = acc["stride"].astype(np.int64)
        size = acc["size"].astype(np.int64)
        flags = acc["flags"]
        last = addr + (count - 1) * stride
        low = np.minimum(addr, last)
        high = np.maximum(addr, last) + size - 1
        bulk = np.where(count > 1, np.abs(stride), 0)
        steps = np.abs(np.diff(low))
        idx = np.empty(2 * hit.size, dtype=np.intp)
        idx[0::2] = a_start[hit]
        idx[1::2] = a_end[hit]

        def reduce(ufunc, column, at=idx):
            # One padding element keeps an end index == len in range.
            padded = np.concatenate((column, column[:1]))
            return ufunc.reduceat(padded, at)[0::2]

        writes = reduce(np.add, ((flags & FLAG_WRITE) != 0).astype(np.int64))
        cols[2, hit] = writes
        cols[3, hit] = nodes[hit] - writes
        atomic = ((flags & FLAG_ATOMIC) != 0).astype(np.int64)
        cols[4, hit] = reduce(np.minimum, atomic)
        cols[5, hit] = reduce(np.minimum, low)
        cols[6, hit] = reduce(np.maximum, high)
        # Steps inside a segment are steps[start:end - 1]; a one-access
        # segment has none (its reduceat slot would read a neighbour).
        step_idx = idx.copy()
        step_idx[1::2] -= 1
        gaps = reduce(np.gcd, np.concatenate((steps, [0])), step_idx)
        gaps[nodes[hit] == 1] = 0
        cols[7, hit] = np.gcd(reduce(np.gcd, bulk), gaps)
        cols[8, hit] = reduce(np.maximum, size)
        pc = acc["pc"]
        pc_lo[hit] = reduce(np.minimum, pc)
        pc_hi[hit] = reduce(np.maximum, pc)
    out = cols.tolist()
    out[9] = pc_lo.tolist()
    out[10] = pc_hi.tolist()
    return list(zip(*out))


def fold_digests(digests) -> FrameDigest:
    """Fold an iterable of per-chunk digests (no chunk: the empty digest)."""
    total: FrameDigest | None = None
    for digest in digests:
        total = digest if total is None else total.fold(digest)
    return FrameDigest.empty() if total is None else total


def digests_may_race(a: FrameDigest, b: FrameDigest) -> bool:
    """Conservative pair filter: False only when no access pair can race.

    Applies the race condition's necessary conditions at digest level: at
    least one write somewhere, not everything atomic on both sides,
    intersecting byte boxes, and a shared residue class (when the residue
    windows are narrow enough mod ``G`` to be conclusive).
    """
    if a.nodes == 0 or b.nodes == 0:
        return False
    if a.writes == 0 and b.writes == 0:
        return False  # every access pair lacks a write
    if a.all_atomic and b.all_atomic:
        return False  # every access pair is atomic-vs-atomic
    if a.hi < b.lo or b.hi < a.lo:
        return False  # disjoint bounding boxes
    big = math.gcd(a.gcd, b.gcd)
    if big > 0 and a.width + b.width <= big:
        # A's residues mod G are [0, wa) from a.lo; B's are [0, wb) from
        # b.lo.  They intersect iff (b.lo - a.lo) mod G falls in
        # (-wb, wa) mod G; outside that, no shared byte exists.
        d = (b.lo - a.lo) % big
        if a.width <= d <= big - b.width:
            return False
    return True
