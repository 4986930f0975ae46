"""The one frame encoding: delta filter + zlib, and foreign frames."""

import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.common.config import SwordConfig
from repro.common.errors import CodecError, TraceFormatError
from repro.common.events import EVENT_BYTES, EVENT_DTYPE, Access, accesses_to_records
from repro.faults.harness import collect_trace
from repro.harness.tools import SwordDriver
from repro.sword.compression import LzRleCodec
from repro.sword.compression.filters import delta_decode, delta_encode
from repro.sword.reader import ThreadTraceReader, TraceDir
from repro.sword.traceformat import (
    COMMIT_MAGIC,
    COMMIT_TRAILER,
    FRAME_HEADER,
    FRAME_MAGIC,
    crc32,
    encode_payload,
    log_name,
    unpack_frame_header,
)
from repro.workloads import REGISTRY

WORKLOAD = "figure5-truedep"


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    return accesses_to_records(
        Access(
            addr=int(a),
            size=8,
            count=1,
            stride=0,
            is_write=bool(i % 2),
            is_atomic=False,
            pc=0x4000 + i % 11,
        )
        for i, a in enumerate(rng.integers(0, 2**48, size=n))
    )


def _frame(offset, payload, size, codec_id, filter_id):
    """A committed frame with valid CRCs naming any encoding ids."""
    crc = crc32(payload)
    head = FRAME_HEADER.pack(
        FRAME_MAGIC, offset, len(payload), size, codec_id, filter_id, crc, 0
    )
    head = head[:-4] + struct.pack("<I", crc32(head[:-4]))
    return head + payload + COMMIT_TRAILER.pack(COMMIT_MAGIC, crc)


class TestFilterCodec:
    def test_roundtrip_on_trace_records(self):
        raw = _records(400).tobytes()
        enc = delta_encode(raw)
        assert len(enc) == len(raw)
        assert enc != raw
        assert delta_decode(enc) == raw

    def test_empty(self):
        assert delta_encode(b"") == b""
        assert delta_decode(b"") == b""

    def test_monotone_addresses_become_constant_deltas(self):
        rec = np.zeros(64, dtype=EVENT_DTYPE)
        rec["addr"] = np.arange(0x1000, 0x1000 + 64 * 8, 8, dtype=np.uint64)
        rec["pc"] = 0x42
        enc = np.frombuffer(delta_encode(rec.tobytes()), dtype=EVENT_DTYPE)
        assert set(enc["addr"][1:]) == {8}  # the arithmetic progression
        assert set(enc["pc"][1:]) == {0}  # the repeated site

    def test_unknown_filter_rejected(self):
        """A header naming any encoding but zlib (4) + delta (1) is not
        a frame this format reads, whatever its CRCs say."""
        payload = encode_payload(_records(4).tobytes())
        size = 4 * EVENT_BYTES
        assert unpack_frame_header(_frame(0, payload, size, 4, 1))
        for codec_id, filter_id in ((4, 0), (4, 99), (1, 1), (250, 1)):
            with pytest.raises(TraceFormatError, match="unknown frame encoding"):
                unpack_frame_header(_frame(0, payload, size, codec_id, filter_id))

    def test_misaligned_length_rejected(self):
        with pytest.raises(CodecError):
            delta_encode(b"x" * (EVENT_BYTES + 1))
        with pytest.raises(CodecError):
            delta_decode(b"x" * (EVENT_BYTES - 1))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**16))
def test_property_filter_roundtrip(n, seed):
    raw = _records(n, seed=seed).tobytes()
    assert delta_decode(delta_encode(raw)) == raw


@pytest.fixture
def tmp_traces():
    paths = []

    def make(prefix="trace-"):
        path = tempfile.mkdtemp(prefix=prefix)
        paths.append(path)
        return path

    yield make
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


def _blocks(trace: Path, gid: int) -> list[tuple]:
    """``(ref, raw bytes, on-disk payload)`` of every frame of one log."""
    data = (trace / log_name(gid)).read_bytes()
    with ThreadTraceReader(trace, gid) as reader:
        return [
            (
                ref,
                reader._block_bytes(i),
                data[ref.file_offset : ref.file_offset + ref.compressed_size],
            )
            for i, ref in enumerate(reader._blocks)
        ]


class TestFilteredTraces:
    def test_filtered_trace_reads_back_identically(self, tmp_traces):
        """Decoding a frame and encoding it again gives the bytes on
        disk: the reader inverts exactly what the logger wrote."""
        trace = Path(tmp_traces())
        collect_trace(WORKLOAD, trace, nthreads=2, buffer_events=64)
        manifest = TraceDir(trace).manifest
        assert manifest["codec"] == SwordConfig.codec == "zlib"
        events = 0
        for gid in manifest["thread_gids"]:
            blocks = _blocks(trace, gid)
            assert len(blocks) >= 2
            for _, raw, payload in blocks:
                assert encode_payload(raw) == payload
                events += len(raw) // EVENT_BYTES
        assert events == manifest["events"]

    def test_filter_never_costs_bytes_on_a_dense_trace(self, tmp_traces):
        """The filter's reason to exist, measured on the blocks the
        logger flushes: zlib over the delta-filtered records of the trace
        is no larger than zlib over the raw ones."""
        trace = Path(tmp_traces())
        SwordDriver().run(
            REGISTRY.get("c_arraysweep"),
            nthreads=2,
            seed=0,
            sword_config=SwordConfig(buffer_events=512, static_prescreen=False),
            trace_dir=str(trace),
            keep_trace=True,
            run_offline=False,
            n=1024,
            sweeps=2,
        )
        raws = [
            raw
            for gid in TraceDir(trace).thread_gids
            for _, raw, _ in _blocks(trace, gid)
        ]
        assert len(raws) > 2
        filtered = sum(len(zlib.compress(delta_encode(raw), 1)) for raw in raws)
        assert filtered <= sum(len(zlib.compress(raw, 1)) for raw in raws)

    def test_foreign_frame_encoding_is_a_frame_defect(self, tmp_traces):
        """A properly framed lzrle/unfiltered frame and a frame naming an
        unknown codec id both fail strict open; salvage keeps exactly the
        frames before the first of them."""
        trace = Path(tmp_traces())
        collect_trace(WORKLOAD, trace, nthreads=2, buffer_events=64)
        gid = TraceDir(trace).thread_gids[0]
        blocks = _blocks(trace, gid)
        assert len(blocks) >= 4, "need several blocks to plant bad frames"
        out = bytearray()
        for i, (ref, raw, payload) in enumerate(blocks):
            ids = (4, 1)
            if i == 1:  # a legacy lzrle frame, no filter
                payload, ids, bad_at = LzRleCodec().compress(raw), (1, 0), len(out)
            elif i == 2:  # an id no codec ever had
                ids = (250, 1)
            out += _frame(
                ref.uncompressed_offset, payload, ref.uncompressed_size, *ids
            )
        (trace / log_name(gid)).write_bytes(bytes(out))

        strict = TraceDir(trace)
        with pytest.raises(
            TraceFormatError,
            match=rf"thread {gid}, block 1 at byte {bad_at}: unknown frame "
            r"encoding: codec id 1, filter id 0",
        ):
            strict.reader(gid)
        with pytest.raises(TraceFormatError):
            api.analyze(trace)

        salvage = TraceDir(trace, integrity="salvage")
        with salvage.reader(gid) as reader:
            assert len(reader._blocks) == 1
            assert reader.uncompressed_bytes == blocks[0][0].uncompressed_size
            assert reader._block_bytes(0) == blocks[0][1]
        result = api.analyze(trace, integrity="salvage")
        thread = result.integrity.thread(gid)
        assert thread.chunks_recovered == 1
        assert thread.chunks_dropped == 1
        assert "unknown frame encoding" in thread.errors[0]
