"""Codec registry: E9's comparison set, looked up by name."""

from __future__ import annotations

from ...common.errors import CodecError
from .base import Codec
from .lz4like import Lz4LikeCodec
from .lzrle import LzRleCodec
from .snappylike import SnappyLikeCodec
from .zlibwrap import ZlibCodec

_CODECS: dict[str, Codec] = {
    codec.name: codec
    for codec in (LzRleCodec(), Lz4LikeCodec(), SnappyLikeCodec(), ZlibCodec())
}


def by_name(name: str) -> Codec:
    """Look a codec up by registry name."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None


def available() -> list[str]:
    """Registered codec names."""
    return sorted(_CODECS)
