"""Salvage-mode analysis: the kill-anywhere guarantee.

Property under test (the durability headline): for ANY fault point in a
trace, salvage analysis completes — no crash — and its race set is a
subset of the clean run's.  Plus the unit-level behaviours: CRC-mismatch
truncation, torn/duplicated/deleted meta records, missing run-wide
files, and retired v1 frames read as defects.
"""

import json
import shutil
import struct
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import Killed, kill_after

from repro import api
from repro.common.errors import TraceFormatError
from repro.faults.harness import (
    apply_kill_point,
    collect_trace,
    frame_kill_points,
    kill_sweep,
)
from repro.offline import (
    AnalysisEngine,
    AnalysisOptions,
    FastPathOptions,
    IntervalInventory,
)
from repro.sword import TraceDir
from repro.sword.traceformat import (
    COMMIT_TRAILER_BYTES,
    FRAME_CODEC_ID,
    FRAME_HEADER_BYTES,
    MANIFEST_NAME,
    MUTEXSETS_NAME,
    REGIONS_JOURNAL_NAME,
    REGIONS_NAME,
    TASKS_NAME,
    log_name,
    meta_name,
    unpack_frame_header,
)

WORKLOAD = "antidep1-orig-yes"


@pytest.fixture
def clean_trace(tmp_path):
    trace = tmp_path / "clean"
    collect_trace(WORKLOAD, trace, nthreads=2, seed=0, buffer_events=64)
    return trace


def _salvage(trace_dir):
    return api.analyze(trace_dir, integrity="salvage")


@pytest.fixture
def in_every_mode(monkeypatch):
    """``in_every_mode(trace_dir)`` -> {mode: salvage result}; the
    parallel mode's service runs its shards on in-process threads."""
    monkeypatch.setattr(
        "repro.serve.pool.ProcessPoolExecutor",
        lambda max_workers: ThreadPoolExecutor(max_workers=max_workers),
    )

    def analyze(trace_dir):
        return {
            mode: api.analyze(
                trace_dir, mode=mode, integrity="salvage",
                options=AnalysisOptions(workers=2),
            )
            for mode in ("serial", "streaming", "parallel")
        }

    return analyze


def _assert_modes_agree(results, context=None):
    serial = results["serial"]
    for mode, result in results.items():
        assert result.races.to_json() == serial.races.to_json(), (mode, context)
        assert result.integrity.to_json() == serial.integrity.to_json(), (
            mode, context,
        )


# -- the property test ---------------------------------------------------------


def test_kill_point_sweep_subset_property():
    """Truncate at every enumerated kill point; salvage must always
    complete with a subset of the clean race set (and be byte-identical
    at the clean end-of-file point)."""
    result = kill_sweep(WORKLOAD, nthreads=2, seed=0, buffer_events=64)
    assert result.points, "sweep enumerated no kill points"
    assert result.clean_races >= 1, "workload must be racy for a real check"
    failures = [p.to_json() for p in result.failures]
    assert result.ok, f"kill-anywhere violated: {failures}"
    kinds = {p.point.kind for p in result.points}
    assert {"mid-header", "mid-payload", "pre-commit", "boundary",
            "clean-end", "pre-finalise"} <= kinds


@pytest.mark.parametrize(
    "workload, nthreads, params",
    [
        (WORKLOAD, 2, {}),
        # Torn threads whose surviving intervals are still compared.
        ("hpccg", 4, {"n": 256, "iters": 4}),
        # Explicit tasks: a run killed before finalising has no task graph.
        ("task-fib", 4, {}),
    ],
    ids=["antidep1", "hpccg", "task-fib"],
)
def test_kill_point_subset_property_in_every_mode(
    tmp_path, in_every_mode, workload, nthreads, params
):
    """At every kill point, streaming and parallel salvage give serial
    salvage's races and integrity report byte for byte: the same subset
    of the clean race set."""
    clean = tmp_path / "clean"
    collect_trace(workload, clean, nthreads=nthreads, seed=0, **params)
    clean_pairs = api.analyze(clean).races.pc_pairs()
    work = tmp_path / "work"
    for point in frame_kill_points(clean):
        apply_kill_point(clean, work, point)
        results = in_every_mode(work)
        assert results["serial"].races.pc_pairs() <= clean_pairs, point
        _assert_modes_agree(results, point)


def test_sweep_reports_loss_where_expected():
    result = kill_sweep(WORKLOAD, nthreads=2, seed=0, buffer_events=64)
    assert "pre-finalise" in {p.point.kind for p in result.points}
    for p in result.points:
        if p.point.kind == "clean-end":
            assert p.identical
        else:
            assert p.integrity, "lossy point must carry an integrity report"
            assert not p.integrity["clean"]
            assert p.integrity["races_possibly_missed"]


# -- unit-level salvage behaviours ---------------------------------------------


def test_salvage_on_clean_trace_is_byte_identical(clean_trace):
    strict = api.analyze(clean_trace)
    salvaged = _salvage(clean_trace)
    assert salvaged.races.to_json() == strict.races.to_json()
    assert salvaged.integrity is not None
    assert salvaged.integrity.clean
    assert not salvaged.integrity.races_possibly_missed
    assert strict.integrity is None


def test_payload_crc_mismatch_truncates_in_salvage(clean_trace):
    trace = TraceDir(clean_trace)
    gid = trace.thread_gids[0]
    log_path = clean_trace / log_name(gid)
    data = bytearray(log_path.read_bytes())
    header = unpack_frame_header(bytes(data[:FRAME_HEADER_BYTES]))
    data[FRAME_HEADER_BYTES + 2] ^= 0xFF  # corrupt the first payload
    log_path.write_bytes(bytes(data))
    # Strict verifies payload CRCs lazily, at read time.
    reader = TraceDir(clean_trace).reader(gid)
    try:
        with pytest.raises(TraceFormatError, match="payload CRC"):
            for row in reader.rows:
                reader.frame_at(row.data_begin, row.size).events()
    finally:
        reader.close()
    result = _salvage(clean_trace)
    thread = result.integrity.threads[gid]
    assert thread.chunks_dropped >= 1
    assert thread.chunks_recovered == 0  # first frame bad -> nothing before it
    assert any("payload CRC mismatch" in e for e in thread.errors)
    assert header.compressed_size > 0


def test_strict_error_names_thread_block_offset(clean_trace):
    trace = TraceDir(clean_trace)
    gid = trace.thread_gids[-1]
    log_path = clean_trace / log_name(gid)
    log_path.write_bytes(log_path.read_bytes()[:-3])  # torn commit marker
    with pytest.raises(TraceFormatError, match=rf"thread {gid}, block \d+ at byte \d+"):
        trace.reader(gid)


def test_torn_meta_record_dropped_individually(clean_trace):
    gid = TraceDir(clean_trace).thread_gids[0]
    meta_path = clean_trace / meta_name(gid)
    text = meta_path.read_text()
    n_rows = len(
        [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    )
    meta_path.write_text(text + "1 - 0 0 2 1 999\n")  # torn tail row
    result = _salvage(clean_trace)
    thread = result.integrity.threads[gid]
    assert thread.rows_dropped == 1
    assert thread.rows_recovered == n_rows


def test_duplicate_meta_row_deduplicated(clean_trace):
    gid = TraceDir(clean_trace).thread_gids[0]
    meta_path = clean_trace / meta_name(gid)
    lines = meta_path.read_text().splitlines(keepends=True)
    row_lines = [l for l in lines if l.strip() and not l.startswith("#")]
    lines.append(row_lines[0])  # duplicate the first data row
    meta_path.write_text("".join(lines))
    result = _salvage(clean_trace)
    thread = result.integrity.threads[gid]
    assert thread.rows_dropped == 1
    assert any("duplicate row" in e for e in thread.errors)


def test_deleted_middle_meta_record_loses_only_that_record(clean_trace):
    strict_races = api.analyze(clean_trace).races.pc_pairs()
    gid = TraceDir(clean_trace).thread_gids[0]
    meta_path = clean_trace / meta_name(gid)
    lines = meta_path.read_text().splitlines(keepends=True)
    data_idx = [
        i for i, l in enumerate(lines) if l.strip() and not l.startswith("#")
    ]
    assert len(data_idx) >= 2, "need multiple rows to delete a middle one"
    del lines[data_idx[len(data_idx) // 2]]
    meta_path.write_text("".join(lines))
    result = _salvage(clean_trace)
    thread = result.integrity.threads[gid]
    # Durable rows validate independently: the remaining rows all parse.
    assert thread.rows_dropped == 0
    assert result.races.pc_pairs() <= strict_races


def test_rows_past_truncation_reconciled_away(clean_trace):
    gid = TraceDir(clean_trace).thread_gids[0]
    log_path = clean_trace / log_name(gid)
    # Keep only the first frame's bytes.
    data = log_path.read_bytes()
    header = unpack_frame_header(data[:FRAME_HEADER_BYTES])
    first_end = (
        FRAME_HEADER_BYTES + header.compressed_size + COMMIT_TRAILER_BYTES
    )
    log_path.write_bytes(data[:first_end])
    result = _salvage(clean_trace)
    thread = result.integrity.threads[gid]
    assert thread.chunks_recovered == 1
    assert thread.bytes_recovered == header.uncompressed_size
    # Every surviving row fits inside the recovered extent.
    reader = TraceDir(clean_trace, integrity="salvage").reader(gid)
    try:
        for row in reader.rows:
            assert row.data_begin + row.size <= header.uncompressed_size
    finally:
        reader.close()


def test_missing_manifest_salvaged_from_disk(clean_trace):
    (clean_trace / MANIFEST_NAME).unlink()
    with pytest.raises(TraceFormatError):
        TraceDir(clean_trace)  # strict still fails fast
    result = _salvage(clean_trace)
    assert MANIFEST_NAME in result.integrity.missing_files
    trace = TraceDir(clean_trace, integrity="salvage")
    assert trace.thread_gids  # reconstructed by globbing thread logs


def test_missing_regions_recovered_from_journal(clean_trace):
    assert (clean_trace / REGIONS_JOURNAL_NAME).exists()  # durable trace
    strict_races = api.analyze(clean_trace).races.pc_pairs()
    (clean_trace / REGIONS_NAME).unlink()
    result = _salvage(clean_trace)
    assert REGIONS_NAME in result.integrity.missing_files
    assert any(REGIONS_JOURNAL_NAME in n for n in result.integrity.notes)
    # The journal holds the full fork structure: nothing is lost.
    assert result.races.pc_pairs() == strict_races


def test_missing_regions_and_journal_skips_intervals(clean_trace):
    (clean_trace / REGIONS_NAME).unlink()
    (clean_trace / REGIONS_JOURNAL_NAME).unlink()
    result = _salvage(clean_trace)
    assert result.integrity.intervals_skipped > 0
    assert result.races.pc_pairs() == set()  # under-report, never invent


def test_a_lost_thread_leaves_its_teammates_paired(tmp_path, in_every_mode):
    """One thread's meta file is gone: its teammates' groups never seal,
    yet every mode still pairs the survivors."""
    trace = tmp_path / "trace"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    lost = TraceDir(trace).thread_gids[-1]
    survivors = sum(
        lost not in (a.key.gid, b.key.gid)
        for a, b in IntervalInventory(TraceDir(trace)).concurrent_pairs()
    )
    clean_pairs = api.analyze(trace).races.pc_pairs()
    (trace / meta_name(lost)).unlink()
    results = in_every_mode(trace)
    _assert_modes_agree(results)
    for result in results.values():
        assert result.stats.concurrent_pairs == survivors > 0
        assert result.races.pc_pairs() <= clean_pairs
        assert not result.integrity.clean
        assert meta_name(lost) in result.integrity.missing_files


def test_figure2_nested_without_thread_0_meta_is_not_clean(
    tmp_path, in_every_mode
):
    """A lost thread meta file loses races: the report must say so."""
    trace = tmp_path / "trace"
    collect_trace("figure2-nested", trace, nthreads=4, seed=0)
    intact = api.analyze(trace).races.pc_pairs()
    (trace / meta_name(0)).unlink()
    results = in_every_mode(trace)
    _assert_modes_agree(results)
    for result in results.values():
        assert result.races.pc_pairs() <= intact
        integrity = result.integrity.to_json()
        assert integrity["clean"] is False
        assert integrity["races_possibly_missed"] is True
        assert integrity["threads"]["0"]["errors"]


@pytest.mark.parametrize("workload", ["task-fib", "task-farm"])
def test_task_fib_without_tasks_json(tmp_path, in_every_mode, workload):
    """Without its task graph a tasking trace cannot order its explicit
    tasks: strict refuses it, and salvage abandons the pairs that need
    the graph instead of judging them by the barrier rule."""
    trace = tmp_path / "trace"
    collect_trace(workload, trace, nthreads=4, seed=0)
    intact = api.analyze(trace).races.pc_pairs()
    (trace / TASKS_NAME).unlink()
    with pytest.raises(TraceFormatError, match=TASKS_NAME):
        TraceDir(trace)
    results = in_every_mode(trace)
    _assert_modes_agree(results)
    for result in results.values():
        assert result.races.pc_pairs() <= intact
        assert result.integrity.missing_files == [TASKS_NAME]
        assert not result.integrity.clean
        assert result.integrity.pairs_skipped > 0


def test_abandoned_pairs_read_alike_in_every_mode(
    tmp_path, in_every_mode, monkeypatch
):
    """The engine abandons a pair whose comparison raises, whichever
    driver handed it over; every mode notes the abandoned pairs in the
    serial driver's pair order."""
    trace = tmp_path / "trace"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    faulty = TraceDir(trace).thread_gids[-1]
    compare = AnalysisEngine.compare_trees

    def failing(self, tree_a, tree_b, ia, ib, *args, **kwargs):
        if faulty in (ia.key.gid, ib.key.gid):
            raise RuntimeError("compare fell over")
        return compare(self, tree_a, tree_b, ia, ib, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "compare_trees", failing)
    results = in_every_mode(trace)
    _assert_modes_agree(results)
    integrity = results["serial"].integrity
    assert integrity.pairs_skipped == len(integrity.notes) >= 2
    assert all("compare fell over" in note for note in integrity.notes)
    # Killed after any k comparisons, a rerun through the result cache
    # resumes to the same report: abandoned pairs are not cached, so the
    # rerun abandons them again, in order.
    stats = results["serial"].stats
    for mode in ("serial", "streaming"):
        for k in range(stats.concurrent_pairs - stats.pairs_pruned):
            options = AnalysisOptions(
                integrity="salvage",
                fastpath=FastPathOptions(
                    result_cache=True,
                    cache_dir=str(tmp_path / f"cache-{mode}-{k}"),
                ),
            )
            with pytest.MonkeyPatch.context() as patch:
                kill_after(patch, k)
                with pytest.raises(Killed):
                    api.analyze(trace, mode=mode, options=options)
            resumed = api.analyze(trace, mode=mode, options=options)
            assert resumed.integrity.to_json() == integrity.to_json()
            assert resumed.races.to_json() == results[mode].races.to_json()


def test_missing_mutexsets_under_reports(clean_trace):
    strict_races = api.analyze(clean_trace).races.pc_pairs()
    (clean_trace / MUTEXSETS_NAME).unlink()
    result = _salvage(clean_trace)
    assert MUTEXSETS_NAME in result.integrity.missing_files
    assert result.races.pc_pairs() <= strict_races


def test_integrity_report_json_round_trip(clean_trace, tmp_path):
    torn, deleted = tmp_path / "torn", tmp_path / "deleted"
    shutil.copytree(clean_trace, torn)
    shutil.copytree(clean_trace, deleted)
    log_path = torn / log_name(TraceDir(torn).thread_gids[0])
    log_path.write_bytes(log_path.read_bytes()[:-5])
    # The only loss is a deleted file: the summary must count it.
    (deleted / TASKS_NAME).unlink()
    for trace, missing in ((torn, 0), (deleted, 1)):
        report = _salvage(trace).integrity
        payload = report.to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["clean"] is False and not report.clean
        assert len(payload["missing_files"]) == missing
        assert "salvaged with loss" in report.summary()
        assert f"— {missing} file(s) missing" in report.summary()


def test_analysis_result_json_carries_integrity_key(clean_trace):
    strict_payload = api.analyze(clean_trace).to_json()
    assert "integrity" not in strict_payload
    salvage_payload = _salvage(clean_trace).to_json()
    assert salvage_payload["integrity"]["mode"] == "salvage"
    assert salvage_payload["integrity"]["clean"] is True


# -- retired v1 frames ----------------------------------------------------------


def test_v1_blocks_are_frame_defects(clean_trace):
    """Format v1's unchecksummed 24-byte ``SWBL`` headers are no longer
    read: strict names the first one as a bad frame, salvage keeps
    nothing of a log that starts with one."""
    v1_header = struct.Struct("<4sQIIB3x")
    for gid in TraceDir(clean_trace).thread_gids:
        with TraceDir(clean_trace).reader(gid) as reader:
            blocks = reader._blocks
        log_path = clean_trace / log_name(gid)
        data = log_path.read_bytes()
        log_path.write_bytes(b"".join(
            v1_header.pack(
                b"SWBL", ref.uncompressed_offset, ref.compressed_size,
                ref.uncompressed_size, FRAME_CODEC_ID,
            )
            + data[ref.file_offset : ref.file_offset + ref.compressed_size]
            for ref in blocks
        ))
    with pytest.raises(
        TraceFormatError,
        match=r"thread \d+, block 0 at byte 0: bad frame magic b'SWBL'",
    ):
        api.analyze(clean_trace)
    result = _salvage(clean_trace)
    assert result.races.to_json() == []
    assert result.integrity.chunks_dropped >= 1
