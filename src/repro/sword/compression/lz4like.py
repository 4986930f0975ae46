"""Simplified LZ4 block codec (pure Python).

Implements the core of the LZ4 block format — greedy hash-chain match
finding, token byte packing literal-length and match-length nibbles, 2-byte
little-endian match offsets — without the frame layer or the end-of-block
restrictions of the reference implementation (blocks here are self-framed by
the trace writer).

This codec exists for the paper's codec-comparison experiment; being pure
Python, it trades speed for faithfulness to the format's *ratio* behaviour.
"""

from __future__ import annotations

from ...common.errors import CodecError
from .base import Codec

_MIN_MATCH = 4
_HASH_LOG = 14
_HASH_SIZE = 1 << _HASH_LOG
_MAX_OFFSET = 0xFFFF


def _hash4(data: bytes, pos: int) -> int:
    """Fibonacci hash of the 4 bytes at ``pos``."""
    v = (
        data[pos]
        | (data[pos + 1] << 8)
        | (data[pos + 2] << 16)
        | (data[pos + 3] << 24)
    )
    return (v * 2654435761 >> (32 - _HASH_LOG)) & (_HASH_SIZE - 1)


def _write_lsic(out: bytearray, value: int) -> None:
    """LZ4's linear small-integer code: 255-saturating continuation bytes."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


class Lz4LikeCodec(Codec):
    """Greedy single-probe LZ4 block compressor."""

    name = "lz4"

    def compress(self, data: bytes) -> bytes:
        n = len(data)
        out = bytearray()
        if n == 0:
            return b""
        table = [-1] * _HASH_SIZE
        pos = 0
        literal_start = 0
        # Last 4 bytes can never start a match (need MIN_MATCH lookahead).
        limit = n - _MIN_MATCH
        while pos <= limit:
            h = _hash4(data, pos)
            candidate = table[h]
            table[h] = pos
            if (
                candidate >= 0
                and pos - candidate <= _MAX_OFFSET
                and data[candidate : candidate + _MIN_MATCH]
                == data[pos : pos + _MIN_MATCH]
            ):
                # Extend the match forward.
                match_len = _MIN_MATCH
                while (
                    pos + match_len < n
                    and data[candidate + match_len] == data[pos + match_len]
                ):
                    match_len += 1
                self._emit_sequence(
                    out,
                    data[literal_start:pos],
                    pos - candidate,
                    match_len,
                )
                pos += match_len
                literal_start = pos
            else:
                pos += 1
        # Trailing literals-only sequence.
        tail = data[literal_start:]
        if tail:
            self._emit_sequence(out, tail, 0, 0)
        return bytes(out)

    @staticmethod
    def _emit_sequence(
        out: bytearray, literals: bytes, offset: int, match_len: int
    ) -> None:
        lit_len = len(literals)
        token_lit = min(lit_len, 15)
        if match_len:
            ml = match_len - _MIN_MATCH
            token_ml = min(ml, 15)
        else:
            ml = 0
            token_ml = 0
        out.append((token_lit << 4) | token_ml)
        if token_lit == 15:
            _write_lsic(out, lit_len - 15)
        out += literals
        if match_len:
            out.append(offset & 0xFF)
            out.append(offset >> 8)
            if token_ml == 15:
                _write_lsic(out, ml - 15)

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        out = bytearray()
        pos = 0
        n = len(data)
        while pos < n:
            token = data[pos]
            pos += 1
            lit_len = token >> 4
            if lit_len == 15:
                while True:
                    if pos >= n:
                        raise CodecError("truncated literal length")
                    b = data[pos]
                    pos += 1
                    lit_len += b
                    if b != 255:
                        break
            if pos + lit_len > n:
                raise CodecError("truncated literals")
            out += data[pos : pos + lit_len]
            pos += lit_len
            if pos >= n:
                break  # final literals-only sequence
            if pos + 2 > n:
                raise CodecError("truncated match offset")
            offset = data[pos] | (data[pos + 1] << 8)
            pos += 2
            if offset == 0:
                # Offset 0 marks a literals-only sequence (our extension).
                continue
            match_len = (token & 0x0F) + _MIN_MATCH
            if (token & 0x0F) == 15:
                while True:
                    if pos >= n:
                        raise CodecError("truncated match length")
                    b = data[pos]
                    pos += 1
                    match_len += b
                    if b != 255:
                        break
            start = len(out) - offset
            if start < 0:
                raise CodecError("match offset before block start")
            for i in range(match_len):  # byte-wise: overlapping copies allowed
                out.append(out[start + i])
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return bytes(out)
