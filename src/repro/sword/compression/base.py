"""Codec interface for trace-block compression.

The paper compared LZO, Snappy, and LZ4 on its traces, found "similar
performance and compression ratios", and picked LZO for ease of integration.
We reproduce that comparison (benchmark E9) across four codecs behind one
interface: a byte-oriented RLE codec standing in for LZO, simplified LZ4 and
Snappy block formats, and stdlib zlib as the C-speed reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Codec(ABC):
    """A block compressor.  Implementations must be pure functions of the
    payload (no inter-block state) so blocks stay independently seekable."""

    #: Registry name.
    name: str = "base"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress one block."""

    @abstractmethod
    def decompress(self, data: bytes, expected_size: int) -> bytes:
        """Decompress one block; must yield exactly ``expected_size`` bytes."""
