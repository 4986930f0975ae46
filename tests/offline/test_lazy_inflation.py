"""Digest-pruned lazy analysis is byte-identical to full inflation.

The compressed-trace property: with the frame-digest prune on, the
race set must equal the eager reference analysis (``reference_analyze``:
build and compare every pair) byte-for-byte across the
corpus — clean traces and salvage recovery of torn ones — while race-free
regular workloads decompress zero payload bytes.  A row without a
``d1=`` digest is malformed: strict analysis raises, salvage drops it.
"""

import json

import numpy as np
import pytest

from conftest import run_program
from repro import api
from repro.common.config import SwordConfig
from repro.common.errors import TraceFormatError
from repro.offline.analyzer import reference_analyze
from repro.offline.intervals import IntervalInventory
from repro.offline.options import AnalysisOptions
from repro.sword import SwordTool, TraceDir


def disjoint_program(m):
    """Race-free: each thread owns a residue class of the array."""
    a = m.alloc_array("a", 64)

    def body(ctx):
        for i in range(ctx.tid, 64, ctx.nthreads):
            ctx.write(a, i, float(i))
        ctx.barrier()
        for i in range(ctx.tid, 64, ctx.nthreads):
            ctx.read(a, i)

    m.parallel(body)


def racy_program(m):
    """One unsynchronised scalar write per thread (a seeded race)."""
    a = m.alloc_array("a", 64)
    s = m.alloc_array("s", 1)

    def body(ctx):
        for i in range(ctx.tid, 64, ctx.nthreads):
            ctx.write(a, i, float(i))
        ctx.write(s, 0, float(ctx.tid))

    m.parallel(body)


def collect(program, trace_dir, *, durable=False):
    tool = SwordTool(
        SwordConfig(log_dir=str(trace_dir), buffer_events=32, durable=durable)
    )
    run_program(program, nthreads=4, tool=tool)


def analyze(trace_dir, *, lazy=True, integrity="strict"):
    if not lazy:
        return reference_analyze(str(trace_dir), integrity=integrity)
    options = AnalysisOptions(integrity=integrity)
    return api.analyze(str(trace_dir), options=options)


def race_bytes(result) -> bytes:
    return json.dumps(result.races.to_json(), sort_keys=True).encode()


def tear(trace_dir) -> None:
    """Truncate one thread log mid-frame (a killed run)."""
    log = sorted(trace_dir.glob("thread_*.log"))[0]
    data = log.read_bytes()
    assert len(data) > 3
    log.write_bytes(data[: 2 * len(data) // 3])


@pytest.mark.parametrize("program", [disjoint_program, racy_program])
def test_lazy_eager_parity(tmp_path, program):
    collect(program, tmp_path)
    lazy = analyze(tmp_path, lazy=True)
    eager = analyze(tmp_path, lazy=False)
    assert race_bytes(lazy) == race_bytes(eager)
    assert eager.stats.bytes_inflated >= lazy.stats.bytes_inflated


def test_lazy_eager_parity_on_salvaged_torn_trace(tmp_path):
    collect(racy_program, tmp_path, durable=True)
    tear(tmp_path)
    lazy = analyze(tmp_path, lazy=True, integrity="salvage")
    eager = analyze(tmp_path, lazy=False, integrity="salvage")
    assert race_bytes(lazy) == race_bytes(eager)
    assert lazy.integrity is not None


def test_pruned_pairs_inflate_zero_bytes(tmp_path):
    collect(disjoint_program, tmp_path)
    result = analyze(tmp_path, lazy=True)
    stats = result.stats
    assert len(result.races) == 0
    assert stats.concurrent_pairs > 0
    assert stats.pairs_pruned == stats.concurrent_pairs
    assert stats.frames_pruned > 0
    # The lazy-inflation claim itself: no payload byte was decompressed.
    assert stats.bytes_inflated == 0
    assert stats.frames_inflated == 0
    assert stats.trees_built == 0
    # The eager path pays for every frame on the same trace.
    eager = analyze(tmp_path, lazy=False)
    assert eager.stats.bytes_inflated > 0
    assert eager.stats.frames_inflated > 0


def test_racy_trace_inflates_only_what_it_compares(tmp_path):
    collect(racy_program, tmp_path)
    lazy = analyze(tmp_path, lazy=True)
    eager = analyze(tmp_path, lazy=False)
    assert len(lazy.races) > 0
    assert lazy.stats.bytes_inflated > 0  # racing frames must inflate
    assert race_bytes(lazy) == race_bytes(eager)


def test_interval_digests_ride_the_inventory(tmp_path):
    collect(disjoint_program, tmp_path)
    inventory = IntervalInventory(TraceDir(tmp_path))
    assert len(inventory) > 0
    for data in inventory.intervals.values():
        assert len(data.digests) == len(data.chunks)
        assert all(d is not None for d in data.digests)


def rewrite_first_digest(trace_dir, head) -> None:
    """Give thread 0's first meta row (a plain, non-durable row) the
    digest head ``head`` in place of ``d1``, or no token when None."""
    meta = trace_dir / "thread_0.meta"
    header, first, *rest = meta.read_text().splitlines()
    body, _, token = first.rpartition(" ")
    assert token.startswith("d1=")
    if head is not None:
        body = f"{body} {head}{token[2:]}"
    meta.write_text("\n".join([header, body, *rest]) + "\n")


@pytest.mark.parametrize("head", [None, "d0", "d-3", "d2", "d9"])
@pytest.mark.parametrize("program", [disjoint_program, racy_program])
def test_row_without_a_d1_digest_is_malformed(tmp_path, program, head):
    """A missing token or any digest version but ``d1`` is a malformed
    row, like a torn one: strict raises, salvage drops and counts it."""
    collect(program, tmp_path)
    rewrite_first_digest(tmp_path, head)
    with pytest.raises(TraceFormatError, match="malformed meta row"):
        analyze(tmp_path)
    with pytest.raises(TraceFormatError, match="malformed meta row"):
        analyze(tmp_path, lazy=False)
    lazy = analyze(tmp_path, integrity="salvage")
    eager = analyze(tmp_path, lazy=False, integrity="salvage")
    assert lazy.integrity.rows_dropped == eager.integrity.rows_dropped == 1
    assert race_bytes(lazy) == race_bytes(eager)
