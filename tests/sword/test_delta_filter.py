"""Delta preconditioning filter: roundtrips, framed traces, mixed frames."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.common.config import SwordConfig
from repro.common.errors import CodecError
from repro.common.events import EVENT_BYTES, EVENT_DTYPE, Access, accesses_to_records
from repro.faults.harness import collect_trace
from repro.harness.tools import SwordDriver
from repro.sword.compression import by_id, filters
from repro.sword.reader import ThreadTraceReader, TraceDir
from repro.sword.traceformat import log_name, pack_frame
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


class TestFilterCodec:
    def test_roundtrip_on_trace_records(self):
        raw = _records(400).tobytes()
        enc = filters.encode(filters.FILTER_DELTA, raw)
        assert len(enc) == len(raw)
        assert enc != raw
        assert filters.decode(filters.FILTER_DELTA, enc) == raw

    def test_none_is_identity(self):
        raw = _records(16).tobytes()
        assert filters.encode(filters.FILTER_NONE, raw) == raw
        assert filters.decode(filters.FILTER_NONE, raw) == raw

    def test_empty(self):
        assert filters.encode(filters.FILTER_DELTA, b"") == b""
        assert filters.decode(filters.FILTER_DELTA, b"") == b""

    def test_monotone_addresses_become_constant_deltas(self):
        rec = np.zeros(64, dtype=EVENT_DTYPE)
        rec["addr"] = np.arange(0x1000, 0x1000 + 64 * 8, 8, dtype=np.uint64)
        rec["pc"] = 0x42
        enc = np.frombuffer(
            filters.encode(filters.FILTER_DELTA, rec.tobytes()), dtype=EVENT_DTYPE
        )
        assert set(enc["addr"][1:]) == {8}  # the arithmetic progression
        assert set(enc["pc"][1:]) == {0}  # the repeated site

    def test_unknown_filter_rejected(self):
        with pytest.raises(CodecError):
            filters.encode(99, b"")
        with pytest.raises(CodecError):
            filters.decode(99, b"")

    def test_misaligned_length_rejected(self):
        with pytest.raises(CodecError):
            filters.encode(filters.FILTER_DELTA, b"x" * (EVENT_BYTES + 1))
        with pytest.raises(CodecError):
            filters.decode(filters.FILTER_DELTA, b"x" * (EVENT_BYTES - 1))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**16))
def test_property_filter_roundtrip(n, seed):
    raw = _records(n, seed=seed).tobytes()
    assert filters.decode(
        filters.FILTER_DELTA, filters.encode(filters.FILTER_DELTA, raw)
    ) == raw


def _blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


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


class TestFilteredTraces:
    def test_filtered_trace_reads_back_identically(self, tmp_traces):
        # Both encodings are named: neither side is "whatever the default
        # happens to be".
        plain_dir, filt_dir = tmp_traces(), tmp_traces()
        collect_trace(
            WORKLOAD, plain_dir, nthreads=2, buffer_events=64,
            codec="lzrle", delta_filter=False,
        )
        collect_trace(
            WORKLOAD, filt_dir, nthreads=2, buffer_events=64,
            codec="zlib", delta_filter=True,
        )
        plain, filt = TraceDir(plain_dir), TraceDir(filt_dir)
        assert plain.manifest["delta_filter"] is False
        assert filt.manifest["delta_filter"] is True
        for gid in plain.thread_gids:
            with plain.reader(gid) as a, filt.reader(gid) as b:
                assert a.uncompressed_bytes == b.uncompressed_bytes
                assert (
                    a.frame_at(0, a.uncompressed_bytes).events().tobytes()
                    == b.frame_at(0, b.uncompressed_bytes).events().tobytes()
                )
        assert _blob(api.analyze(filt).races) == _blob(api.analyze(plain).races)

    def test_filter_never_costs_bytes_on_a_dense_trace(self):
        """The filter's reason to exist, measured where it is written:
        same dense workload, same (default) codec, filter on vs off."""
        workload = REGISTRY.get("c_arraysweep")

        def collect(delta_filter):
            return SwordDriver().run(
                workload,
                nthreads=2,
                seed=0,
                sword_config=SwordConfig(
                    delta_filter=delta_filter,
                    buffer_events=512,
                    static_prescreen=False,
                ),
                run_offline=False,
                n=1024,
                sweeps=2,
            ).stats

        on, off = collect(True), collect(False)
        assert on["events"] == off["events"] > 2 * 1024
        assert on["bytes_uncompressed"] == off["bytes_uncompressed"]
        assert on["flushes"] == off["flushes"] > 2
        assert on["bytes_compressed"] <= off["bytes_compressed"]

    def test_mixed_version_dir_analyzes_in_both_modes(self, tmp_traces):
        """One log mixing unfiltered and delta-filtered frames."""
        trace = tmp_traces()
        collect_trace(
            WORKLOAD, trace, nthreads=2, buffer_events=64, delta_filter=True
        )
        gold = _blob(api.analyze(TraceDir(trace)).races)
        gid = TraceDir(trace).thread_gids[0]
        _mix_frame_encodings(Path(trace), gid)
        for mode in ("strict", "salvage"):
            result = api.analyze(trace, integrity=mode)
            assert _blob(result.races) == gold
        report = api.analyze(trace, integrity="salvage").integrity
        assert report is not None and not report.thread(gid).errors


def _mix_frame_encodings(trace: Path, gid: int) -> None:
    """Rewrite one thread log, alternating frame encodings per index:
    unfiltered, delta-filtered."""
    with ThreadTraceReader(trace, gid) as reader:
        blocks = [
            (ref, reader._block_bytes(i)) for i, ref in enumerate(reader._blocks)
        ]
    assert len(blocks) >= 2, "need several blocks to mix encodings"
    out = bytearray()
    for i, (ref, data) in enumerate(blocks):
        codec = by_id(ref.codec_id)
        if i % 2 == 0:  # no filter
            payload = codec.compress(data)
            out += pack_frame(
                ref.uncompressed_offset, payload, len(data), ref.codec_id
            )
        else:  # delta-filtered
            payload = codec.compress(filters.encode(filters.FILTER_DELTA, data))
            out += pack_frame(
                ref.uncompressed_offset,
                payload,
                len(data),
                ref.codec_id,
                filter_id=filters.FILTER_DELTA,
            )
    (trace / log_name(gid)).write_bytes(bytes(out))
