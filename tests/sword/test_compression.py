"""E9's compression codecs: registry, roundtrips, malformed input handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.common.events import Access, accesses_to_records
from repro.sword import compression
from repro.sword.compression import available, by_name
from repro.sword.compression.lzrle import LzRleCodec
from repro.sword.compression.lz4like import Lz4LikeCodec
from repro.sword.compression.snappylike import SnappyLikeCodec
from repro.sword.compression.zlibwrap import ZlibCodec

ALL_CODECS = [LzRleCodec(), Lz4LikeCodec(), SnappyLikeCodec(), ZlibCodec()]


def test_registry_has_paper_candidates():
    names = available()
    # lzrle stands in for LZO; lz4 and snappy match the paper's candidates.
    assert {"lzrle", "lz4", "snappy", "zlib"} <= set(names)


def test_registry_lookup_by_name():
    for name in available():
        assert by_name(name).name == name
    with pytest.raises(CodecError):
        by_name("nope")
    # Codecs are looked up by name only: frames carry no codec choice.
    public = {name for name in vars(compression) if not name.startswith("_")}
    submodules = {"base", "filters", "lz4like", "lzrle", "registry",
                  "snappylike", "zlibwrap"}
    assert public - submodules == set(compression.__all__)
    assert not {"by_id", "register"} & public


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundtrips:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b""), 0) == b""

    def test_zeros_compress_well(self, codec):
        data = bytes(8192)
        out = codec.compress(data)
        assert codec.decompress(out, len(data)) == data
        assert len(out) < len(data) / 4

    def test_incompressible_survives(self, codec):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        assert codec.decompress(codec.compress(data), len(data)) == data

    def test_trace_records_roundtrip(self, codec):
        records = accesses_to_records(
            Access(addr=0x100000 + i * 8, size=8, count=1, stride=0,
                   is_write=i % 3 == 0, is_atomic=False, pc=0x1000 + i % 7)
            for i in range(500)
        )
        raw = records.tobytes()
        out = codec.decompress(codec.compress(raw), len(raw))
        assert out == raw

    def test_wrong_expected_size_rejected(self, codec):
        data = b"hello world" * 50
        compressed = codec.compress(data)
        with pytest.raises(CodecError):
            codec.decompress(compressed, len(data) + 1)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=2048))
def test_property_roundtrip(codec, data):
    assert codec.decompress(codec.compress(data), len(data)) == data


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@settings(max_examples=25, deadline=None)
@given(
    pattern=st.binary(min_size=1, max_size=16),
    repeats=st.integers(1, 300),
)
def test_property_repetitive_data(codec, pattern, repeats):
    data = pattern * repeats
    out = codec.compress(data)
    assert codec.decompress(out, len(data)) == data


def test_lzrle_truncated_stream_detected():
    codec = LzRleCodec()
    compressed = codec.compress(b"\x00" * 100)
    with pytest.raises(CodecError):
        codec.decompress(compressed[:-1], 100)


def test_lz4_bad_offset_detected():
    codec = Lz4LikeCodec()
    # token: 0 literals + match; offset 5 with empty output -> invalid.
    bogus = bytes([0x01, 0x05, 0x00])
    with pytest.raises(CodecError):
        codec.decompress(bogus, 10)


def test_snappy_header_mismatch_detected():
    codec = SnappyLikeCodec()
    compressed = codec.compress(b"abcdef")
    with pytest.raises(CodecError):
        codec.decompress(compressed, 7)
