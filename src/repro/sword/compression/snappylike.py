"""Simplified Snappy block codec (pure Python).

Follows Snappy's element layout: a varint uncompressed-length header, then
tag bytes whose two low bits select literal / 1-byte-offset copy /
2-byte-offset copy elements.  Match finding reuses the greedy hashing
approach of the LZ4 codec; the point of carrying a second LZ77-family codec
is the paper's observation that the candidates perform similarly on trace
data (experiment E9).
"""

from __future__ import annotations

from ...common.errors import CodecError
from .base import Codec

_TAG_LITERAL = 0
_TAG_COPY1 = 1  # 3-byte element: offsets < 2048, lengths 4..11
_TAG_COPY2 = 2  # 4-byte element: 16-bit offset, lengths 1..64

_MIN_MATCH = 4
_HASH_LOG = 14
_HASH_SIZE = 1 << _HASH_LOG


def _hash4(data: bytes, pos: int) -> int:
    v = (
        data[pos]
        | (data[pos + 1] << 8)
        | (data[pos + 2] << 16)
        | (data[pos + 3] << 24)
    )
    return (v * 2654435761 >> (32 - _HASH_LOG)) & (_HASH_SIZE - 1)


class SnappyLikeCodec(Codec):
    """Greedy Snappy-format compressor."""

    name = "snappy"

    def compress(self, data: bytes) -> bytes:
        out = bytearray()
        n = len(data)
        # Header: varint uncompressed length (as in Snappy).
        v = n
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        if n == 0:
            return bytes(out)

        table = [-1] * _HASH_SIZE
        pos = 0
        literal_start = 0
        limit = n - _MIN_MATCH
        while pos <= limit:
            h = _hash4(data, pos)
            candidate = table[h]
            table[h] = pos
            if (
                candidate >= 0
                and pos - candidate <= 0xFFFF
                and data[candidate : candidate + _MIN_MATCH]
                == data[pos : pos + _MIN_MATCH]
            ):
                match_len = _MIN_MATCH
                while (
                    pos + match_len < n
                    and data[candidate + match_len] == data[pos + match_len]
                ):
                    match_len += 1
                self._emit_literal(out, data[literal_start:pos])
                self._emit_copies(out, pos - candidate, match_len)
                pos += match_len
                literal_start = pos
            else:
                pos += 1
        self._emit_literal(out, data[literal_start:])
        return bytes(out)

    @staticmethod
    def _emit_literal(out: bytearray, literals: bytes) -> None:
        n = len(literals)
        if n == 0:
            return
        if n <= 60:
            out.append(((n - 1) << 2) | _TAG_LITERAL)
        else:
            # 1..4 length bytes, little endian (tags 60..63).
            nbytes = (n - 1).bit_length() + 7 >> 3
            out.append(((59 + nbytes) << 2) | _TAG_LITERAL)
            out += (n - 1).to_bytes(nbytes, "little")
        out += literals

    @staticmethod
    def _emit_copies(out: bytearray, offset: int, length: int) -> None:
        # Snappy emits lengths > 64 as multiple copy elements.
        while length > 0:
            chunk = min(length, 64)
            if length - chunk in (1, 2, 3):
                # Avoid leaving a remainder below the minimum copy length.
                chunk = length - 4 if chunk == 64 else chunk
            if 4 <= chunk <= 11 and offset < 2048:
                out.append(
                    ((offset >> 8) << 5) | ((chunk - 4) << 2) | _TAG_COPY1
                )
                out.append(offset & 0xFF)
            else:
                out.append(((chunk - 1) << 2) | _TAG_COPY2)
                out.append(offset & 0xFF)
                out.append(offset >> 8)
            length -= chunk

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        pos = 0
        n = len(data)
        # Header varint.
        total = 0
        shift = 0
        while True:
            if pos >= n:
                raise CodecError("truncated length header")
            b = data[pos]
            pos += 1
            total |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        if total != expected_size:
            raise CodecError(
                f"header says {total} bytes, caller expects {expected_size}"
            )
        out = bytearray()
        while pos < n:
            tag = data[pos]
            pos += 1
            kind = tag & 0x03
            if kind == _TAG_LITERAL:
                code = tag >> 2
                if code < 60:
                    length = code + 1
                else:
                    nbytes = code - 59
                    if pos + nbytes > n:
                        raise CodecError("truncated literal length")
                    length = int.from_bytes(data[pos : pos + nbytes], "little") + 1
                    pos += nbytes
                if pos + length > n:
                    raise CodecError("truncated literal body")
                out += data[pos : pos + length]
                pos += length
            elif kind == _TAG_COPY1:
                if pos >= n:
                    raise CodecError("truncated copy1")
                length = ((tag >> 2) & 0x07) + 4
                offset = ((tag >> 5) << 8) | data[pos]
                pos += 1
                self._copy(out, offset, length)
            elif kind == _TAG_COPY2:
                if pos + 2 > n:
                    raise CodecError("truncated copy2")
                length = (tag >> 2) + 1
                offset = data[pos] | (data[pos + 1] << 8)
                pos += 2
                self._copy(out, offset, length)
            else:
                raise CodecError("copy4 elements are not emitted by this codec")
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return bytes(out)

    @staticmethod
    def _copy(out: bytearray, offset: int, length: int) -> None:
        start = len(out) - offset
        if start < 0 or offset == 0:
            raise CodecError("invalid copy offset")
        for i in range(length):
            out.append(out[start + i])
