"""Block compression codecs: the paper's LZO/Snappy/LZ4 comparison (E9).

Trace frames have one encoding, owned by :mod:`repro.sword.traceformat`;
these codecs are the candidates E9 measures against it.
"""

from .base import Codec
from .lz4like import Lz4LikeCodec
from .lzrle import LzRleCodec
from .registry import available, by_name
from .snappylike import SnappyLikeCodec
from .zlibwrap import ZlibCodec

__all__ = [
    "Codec",
    "Lz4LikeCodec",
    "LzRleCodec",
    "SnappyLikeCodec",
    "ZlibCodec",
    "available",
    "by_name",
]
