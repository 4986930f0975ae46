"""Frame-resident access digests: collection-time pair-pruning summaries.

A :class:`FrameDigest` summarises the access footprint of one trace chunk
— the byte bounding box, read/write/atomic composition, pc range, and a
residue-class description of every touched address — computed *while the
frame is still an uncompressed record array* in the logger's buffer.  The
digest rides the chunk's Table-I meta row as a versioned ``d1=...`` token
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

Digest-less rows (v1 traces, pre-digest v2 traces, tokens from a *newer*
digest version) simply decode to ``digest=None`` and the engine builds
and compares the pair's trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..common.events import FLAG_ATOMIC, FLAG_WRITE, KIND_ACCESS

#: Version prefix of the meta-row token (``d<version>=...``).  Unknown
#: *newer* versions decode to None (fallback to inflation); same-version
#: tokens that fail to parse are malformed rows.
FRAME_DIGEST_VERSION = 1

#: Field order of the comma-separated token payload.
_TOKEN_FIELDS = 11


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
    def from_records(cls, records: np.ndarray) -> "FrameDigest":
        """Digest one EVENT_DTYPE record array in a few vector passes."""
        events = int(records.shape[0])
        acc = records[records["kind"] == KIND_ACCESS]
        n = int(acc.shape[0])
        if n == 0:
            return cls.empty(events)
        addr = acc["addr"].astype(np.int64)
        count = acc["count"].astype(np.int64)
        stride = acc["stride"].astype(np.int64)
        size = acc["size"].astype(np.int64)
        last = addr + (count - 1) * stride
        low = np.minimum(addr, last)
        high = np.maximum(addr, last) + size - 1
        lo = int(low.min())
        flags = acc["flags"]
        writes = int(np.count_nonzero(flags & FLAG_WRITE))
        # gcd over bulk strides, then over every low-endpoint offset from
        # the minimum (the residue-window soundness construction).
        bulk = np.abs(stride[count > 1])
        g = int(np.gcd.reduce(bulk)) if bulk.size else 0
        offsets = low - lo
        if offsets.size:
            g = math.gcd(g, int(np.gcd.reduce(offsets)))
        pc = acc["pc"]
        return cls(
            events=events,
            nodes=n,
            writes=writes,
            reads=n - writes,
            all_atomic=bool(np.all(flags & FLAG_ATOMIC)),
            lo=lo,
            hi=int(high.max()),
            gcd=g,
            width=int(size.max()),
            pc_lo=int(pc.min()),
            pc_hi=int(pc.max()),
        )

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
        return (
            f"d{FRAME_DIGEST_VERSION}="
            f"{self.events},{self.nodes},{self.writes},{self.reads},"
            f"{1 if self.all_atomic else 0},{self.lo},{self.hi},"
            f"{self.gcd},{self.width},{self.pc_lo},{self.pc_hi}"
        )


def fold_digests(digests) -> "FrameDigest | None":
    """Fold an iterable of per-chunk digests; None if any is missing."""
    total: FrameDigest | None = None
    for digest in digests:
        if digest is None:
            return None
        total = digest if total is None else total.fold(digest)
    return total


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


def decode_digest(token: str) -> "FrameDigest | None":
    """Parse one ``d<version>=`` meta-row token.

    Returns None for tokens written by a *newer* digest version (the
    engine compares such pairs in full — forward compatibility); raises
    :class:`ValueError` for anything malformed at a known version.
    """
    head, sep, body = token.partition("=")
    if not sep or len(head) < 2 or head[0] != "d":
        raise ValueError(f"not a digest token: {token!r}")
    version = int(head[1:])
    if version > FRAME_DIGEST_VERSION:
        return None
    parts = body.split(",")
    if len(parts) != _TOKEN_FIELDS:
        raise ValueError(f"digest token has {len(parts)} fields: {token!r}")
    values = [int(p) for p in parts]
    return FrameDigest(
        events=values[0],
        nodes=values[1],
        writes=values[2],
        reads=values[3],
        all_atomic=bool(values[4]),
        lo=values[5],
        hi=values[6],
        gcd=values[7],
        width=values[8],
        pc_lo=values[9],
        pc_hi=values[10],
    )
