"""Failure injection: corrupted traces fail loudly, never silently."""

import json
import re
import struct

import pytest

from repro.common.config import RunConfig, SwordConfig
from repro.common.errors import CodecError, TraceFormatError
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool, TraceDir
from repro.sword.digest import FrameDigest
from repro.sword.traceformat import MANIFEST_NAME, crc32, log_name, meta_name


@pytest.fixture
def collected(trace_dir):
    tool = SwordTool(SwordConfig(log_dir=trace_dir, buffer_events=32))
    rt = OpenMPRuntime(RunConfig(nthreads=2), tool=tool)

    def program(m):
        a = m.alloc_array("a", 128)

        def body(ctx):
            for i in ctx.for_range(128):
                ctx.write(a, i, float(i))
        m.parallel(body)

    rt.run(program)
    return trace_dir


def _first_log(trace):
    gid = trace.thread_gids[0]
    return trace.path / log_name(gid), gid


def test_missing_manifest_detected(collected):
    trace = TraceDir(collected)
    (trace.path / MANIFEST_NAME).unlink()
    with pytest.raises(TraceFormatError):
        TraceDir(collected)


def test_truncated_log_detected(collected):
    trace = TraceDir(collected)
    path, gid = _first_log(trace)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TraceFormatError):
        trace.reader(gid)


def test_corrupted_block_magic_detected(collected):
    trace = TraceDir(collected)
    path, gid = _first_log(trace)
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError):
        trace.reader(gid)


def test_corrupted_payload_detected_on_read(collected):
    trace = TraceDir(collected)
    path, gid = _first_log(trace)
    data = bytearray(path.read_bytes())
    # Flip bytes in the middle of the first payload (past the 32 B v2
    # frame header) — the payload CRC catches this at read time.
    for i in range(40, 50):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))
    reader = trace.reader(gid)
    with pytest.raises((CodecError, TraceFormatError)):
        for row in reader.rows:
            reader.frame_at(row.data_begin, row.size).events()
    reader.close()


def test_corrupted_frame_header_detected(collected):
    trace = TraceDir(collected)
    path, gid = _first_log(trace)
    data = bytearray(path.read_bytes())
    data[8] ^= 0xFF  # uncompressed-offset field: header CRC must catch it
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="header CRC"):
        trace.reader(gid)


def test_garbage_meta_row_detected(collected):
    trace = TraceDir(collected)
    gid = trace.thread_gids[0]
    meta_path = trace.path / meta_name(gid)
    meta_path.write_text(meta_path.read_text() + "not a row at all\n")
    with pytest.raises(TraceFormatError):
        trace.reader(gid)


def test_chunk_pointing_past_log_detected(collected):
    trace = TraceDir(collected)
    gid = trace.thread_gids[0]
    meta_path = trace.path / meta_name(gid)
    # Append a plausible-looking row whose data_begin is beyond the log.
    meta_path.write_text(
        meta_path.read_text()
        + f"1 - 0 0 2 1 99999960 40 {FrameDigest.empty(5).encode()}\n"
    )
    reader = trace.reader(gid)
    bad_row = reader.rows[-1]
    with pytest.raises(TraceFormatError):
        reader.frame_at(bad_row.data_begin, bad_row.size).events()
    reader.close()


def test_unknown_codec_id_detected(collected):
    trace = TraceDir(collected)
    path, gid = _first_log(trace)
    data = bytearray(path.read_bytes())
    data[20] = 200  # codec-id byte of the first frame header
    # Re-seal the header CRC so the bogus codec id survives the checksum
    # and is caught by the encoding check when the log is indexed.
    data[28:32] = struct.pack("<I", crc32(bytes(data[:28])))
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="block 0 at byte 0: unknown"):
        trace.reader(gid)


def test_manifest_thread_list_must_match_files(collected):
    trace = TraceDir(collected)
    manifest = json.loads((trace.path / MANIFEST_NAME).read_text())
    manifest["thread_gids"].append(12345)
    (trace.path / MANIFEST_NAME).write_text(json.dumps(manifest))
    trace2 = TraceDir(collected)
    missing = f"{trace2.path / log_name(12345)}: missing"
    with pytest.raises(TraceFormatError, match=re.escape(missing)):
        trace2.reader(12345)
