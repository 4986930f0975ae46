"""The job write-ahead log: append/replay roundtrip and torn tails."""

import json

import pytest

from repro.serve import JobWal, replay_wal
from repro.serve.wal import NULL_WAL, WAL_VERSION, WalReplay
from repro.sword.traceformat import parse_journal


def write_lifecycle(wal, job="job-000001", shards=2):
    wal.append(
        "submitted",
        job,
        tenant="acme",
        trace="/tmp/trace",
        integrity="strict",
        trace_id="t1",
    )
    wal.append("planned", job, shards=shards, pairs=8, pruned=0)
    for i in range(shards):
        wal.append("shard-done", job, shard=i, races=1, pairs=4)
    wal.append("merged", job, races=2)
    wal.append("finalized", job, state="done", races=2)


def test_append_replay_roundtrip(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal)
        assert wal.appended == 6
    replay = replay_wal(path)
    assert replay.records == 6
    assert replay.orphaned == 0
    job = replay.jobs["job-000001"]
    assert job.tenant == "acme"
    assert job.trace_path == "/tmp/trace"
    assert job.shards_total == 2
    assert job.shards_done == {0, 1}
    assert job.final_state == "done"
    assert job.finished
    assert replay.unfinished == []


def test_unfinished_jobs_in_submission_order(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal, job="job-000001")  # finished
        wal.append("submitted", "job-000002", tenant="b", trace="x")
        wal.append("submitted", "job-000003", tenant="c", trace="y")
        wal.append("planned", "job-000003", shards=1, pairs=2)
    replay = replay_wal(path)
    assert [j.job_id for j in replay.unfinished] == ["job-000002", "job-000003"]
    assert replay.max_seq() == 3


def test_torn_tail_line_is_dropped_not_fatal(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal)
        wal.append("submitted", "job-000002", tenant="b", trace="x")
    data = path.read_bytes()
    # Cut the last record mid-line: the torn tail a mid-append kill leaves.
    last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
    torn = data[: last_line_start + (len(data) - last_line_start) // 2]
    path.write_bytes(torn)
    replay = replay_wal(path)
    # The unacknowledged submission vanished; the finished job survived.
    assert "job-000002" not in replay.jobs
    assert replay.jobs["job-000001"].finished


def test_corrupt_crc_line_is_dropped(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal)
    lines = path.read_text().splitlines(keepends=True)
    # Flip a payload byte in shard 1's "shard-done" record; its CRC no
    # longer matches.
    bad = lines[3].replace("shard-done", "shard-dXne", 1)
    path.write_text("".join(lines[:3] + [bad] + lines[4:]))
    replay = replay_wal(path)
    job = replay.jobs["job-000001"]
    assert job.shards_done == {0}  # the damaged record was dropped
    assert job.final_state == "done"  # later records still parse


def test_orphaned_records_counted_not_fatal(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal)
    lines = path.read_text().splitlines(keepends=True)
    # Simulate a log whose head was truncated away: drop "submitted".
    path.write_text("".join(lines[1:]))
    replay = replay_wal(path)
    assert replay.jobs == {}
    assert replay.orphaned == 5


def test_fields_replay_does_not_read_are_ignored(tmp_path):
    """A log written when ``planned`` and ``shard-done`` still named
    per-shard tokens replays like a current one."""
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        wal.append("submitted", "job-000001", tenant="a", trace="x")
        wal.append("planned", "job-000001", shards=2, pairs=4, tokens=["a", "b"])
        wal.append("shard-done", "job-000001", shard=1, token="b", races=0, pairs=2)
    job = replay_wal(path).jobs["job-000001"]
    assert (job.shards_total, job.shards_done, job.finished) == (2, {1}, False)


def test_future_version_records_skipped(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        wal.append("submitted", "job-000001", tenant="a", trace="x")
    from repro.sword.traceformat import journal_line

    future = journal_line(
        {
            "v": WAL_VERSION + 1,
            "ts": 0.0,
            "kind": "finalized",
            "job": "job-000001",
            "state": "done",
        }
    )
    with open(path, "a") as fh:
        fh.write(future)
    replay = replay_wal(path)
    # A downgraded service must not misread records it cannot understand.
    assert not replay.jobs["job-000001"].finished


def test_null_wal_is_disabled_noop():
    assert NULL_WAL.enabled is False
    assert NULL_WAL.append("submitted", "job-000001") == {}
    assert NULL_WAL.appended == 0


def test_real_wal_rejects_unknown_kind(tmp_path):
    with JobWal(tmp_path / "wal.jsonl") as wal:
        with pytest.raises(ValueError):
            wal.append("exploded", "job-000001")


def test_none_fields_are_omitted(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        wal.append(
            "submitted", "job-000001", tenant="a", trace="x", deadline_s=None
        )
    record = parse_journal(path.read_text(), salvage=True)[0]
    assert "deadline_s" not in record


def test_missing_file_replays_empty(tmp_path):
    replay = replay_wal(tmp_path / "never-written.jsonl")
    assert isinstance(replay, WalReplay)
    assert replay.jobs == {}
    assert replay.records == 0


def test_max_seq_ignores_foreign_ids(tmp_path):
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        wal.append("submitted", "job-000007", tenant="a", trace="x")
        wal.append("submitted", "imported-job", tenant="a", trace="y")
    assert replay_wal(path).max_seq() == 7


def test_records_match_checked_in_schema(tmp_path):
    from pathlib import Path as _P

    from repro.obs.schema import validate

    schema_path = (
        _P(__file__).resolve().parents[2] / "schemas" / "wal-record.schema.json"
    )
    path = tmp_path / "wal.jsonl"
    with JobWal(path) as wal:
        write_lifecycle(wal)
    records = parse_journal(path.read_text(), salvage=True)
    schema = json.loads(schema_path.read_text())
    assert validate(records, schema) == []
    planned = next(r for r in records if r["kind"] == "planned")
    # ``planned`` requires its counts, and carries nothing replay ignores.
    for bad in (
        {k: v for k, v in planned.items() if k != "pairs"},
        {**planned, "tokens": []},
    ):
        assert validate([bad], schema)
