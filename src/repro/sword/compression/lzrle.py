"""Byte run-length codec (the "LZO-like" stand-in of the E9 comparison).

Trace records are fixed-width with many zero bytes (high address bits,
padding, small counts), so run-length encoding captures some of the
redundancy LZO would.  Run *detection* is vectorised with NumPy, but the
token stream is emitted by a Python loop over the runs: measured 7-8 MB/s
at ~1.3x on trace records (E9), i.e. ~135 ms for a 1 MB flush buffer —
against ~600 MB/s at 20-40x for zlib level 1.  It was the collector's
codec until that was measured end to end (a quarter of collection time
on dense traces); trace frames are now delta + zlib only
(:func:`repro.sword.traceformat.encode_payload`), and this codec is the
LZO stand-in of the E9 comparison.

Format: a sequence of tokens.

* ``0x00 <varint n> <n literal bytes>`` — literal run;
* ``0x01 <varint n> <byte>``           — ``n`` repeats of ``byte``.

Runs shorter than :data:`MIN_RUN` are folded into literals.
"""

from __future__ import annotations

import numpy as np

from ...common.errors import CodecError
from .base import Codec

#: Minimum repeat length worth a run token (3 header bytes to amortise).
MIN_RUN = 8

_LITERAL = 0x00
_RUN = 0x01


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    value = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


class LzRleCodec(Codec):
    """Run-length codec with vectorised run detection."""

    name = "lzrle"

    def compress(self, data: bytes) -> bytes:
        if not data:
            return b""
        arr = np.frombuffer(data, dtype=np.uint8)
        # Boundaries where the byte value changes.
        change = np.nonzero(np.diff(arr))[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [arr.shape[0]]))
        lengths = ends - starts

        out = bytearray()
        lit_start = 0  # start of the pending literal region
        lit_end = 0
        for i in range(starts.shape[0]):
            s = int(starts[i])
            ln = int(lengths[i])
            if ln >= MIN_RUN:
                if lit_end > lit_start:
                    out.append(_LITERAL)
                    _write_varint(out, lit_end - lit_start)
                    out += data[lit_start:lit_end]
                out.append(_RUN)
                _write_varint(out, ln)
                out.append(int(arr[s]))
                lit_start = lit_end = s + ln
            else:
                lit_end = s + ln
        if lit_end > lit_start:
            out.append(_LITERAL)
            _write_varint(out, lit_end - lit_start)
            out += data[lit_start:lit_end]
        return bytes(out)

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        out = bytearray()
        pos = 0
        n = len(data)
        while pos < n:
            token = data[pos]
            pos += 1
            if token == _LITERAL:
                length, pos = _read_varint(data, pos)
                if pos + length > n:
                    raise CodecError("truncated literal run")
                out += data[pos : pos + length]
                pos += length
            elif token == _RUN:
                length, pos = _read_varint(data, pos)
                if pos >= n:
                    raise CodecError("truncated repeat run")
                out += bytes([data[pos]]) * length
                pos += 1
            else:
                raise CodecError(f"unknown token {token:#x}")
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return bytes(out)
