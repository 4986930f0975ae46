"""Stdlib zlib: the trace frames' codec and E9's C-speed reference."""

from __future__ import annotations

import zlib

from ...common.errors import CodecError
from .base import Codec


class ZlibCodec(Codec):
    """DEFLATE via the standard library (level tuned for trace blocks)."""

    name = "zlib"

    def __init__(self, level: int = 1) -> None:
        # Level 1: trace blocks are flushed on the hot path; the paper's
        # candidates (LZO/Snappy/LZ4) are all speed-oriented codecs.
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes, expected_size: int) -> bytes:
        try:
            out = zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"zlib: {exc}") from exc
        if len(out) != expected_size:
            raise CodecError(
                f"decompressed {len(out)} bytes, expected {expected_size}"
            )
        return out
