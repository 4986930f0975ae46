"""The delta preconditioning filter applied to raw event bytes before zlib.

Trace blocks are arrays of fixed-width :data:`~repro.common.events.EVENT_DTYPE`
records whose ``addr`` and ``pc`` columns are *nearly sorted* within a chunk
(dense loops walk arrays monotonically and revisit a handful of access
sites).  Delta-encoding those two columns turns long arithmetic progressions
into runs of identical small values — exactly what the byte-oriented codecs
(RLE/LZ windows) exploit — without changing the record layout: a filtered
block is still ``n * EVENT_BYTES`` bytes.

Every trace frame is delta-filtered (:func:`repro.sword.traceformat.
encode_payload`); E9 also applies the filter in front of each candidate
codec.  The filter is lossless and self-contained per block:
``delta_decode(delta_encode(x)) == x`` and no state crosses block
boundaries, which keeps the salvage reader's block-at-a-time recovery story
intact (payload CRCs cover the *compressed* bytes and are unaffected).
"""

from __future__ import annotations

import numpy as np

from ...common.errors import CodecError
from ...common.events import EVENT_BYTES, EVENT_DTYPE

#: Columns the delta filter preconditions (unsigned, wrap-around safe).
_DELTA_COLUMNS = ("addr", "pc")


def _check(data: bytes) -> None:
    # The logger encodes record arrays; on decode this validates bytes
    # read back from disk.
    if len(data) % EVENT_BYTES != 0:
        raise CodecError(
            f"filtered block length {len(data)} is not a multiple of "
            f"{EVENT_BYTES}"
        )


def delta_encode(raw: bytes) -> bytes:
    """Delta-filter raw (uncompressed) event bytes."""
    _check(raw)
    if not raw:
        return raw
    rec = np.frombuffer(raw, dtype=EVENT_DTYPE).copy()
    for name in _DELTA_COLUMNS:
        col = rec[name]
        out = col.copy()
        # uint64 subtraction wraps modulo 2**64, so decreasing sequences
        # round-trip exactly through the cumsum inverse.
        np.subtract(col[1:], col[:-1], out=out[1:])
        rec[name] = out
    return rec.tobytes()


def delta_decode(data: bytes) -> bytes:
    """Invert :func:`delta_encode` on decompressed block bytes."""
    _check(data)
    if not data:
        return data
    rec = np.frombuffer(data, dtype=EVENT_DTYPE).copy()
    for name in _DELTA_COLUMNS:
        # cumsum over uint64 is modular, undoing the wrap-around deltas.
        rec[name] = np.cumsum(rec[name], dtype=np.uint64)
    return rec.tobytes()
