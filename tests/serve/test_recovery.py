"""Durable recovery: WAL resume through the result cache, degradation,
deadlines."""

import json
import shutil
import threading
import time

import pytest

from repro import api
from repro.faults import sabotage
from repro.faults.chaos import shard_pair_entries
from repro.faults.harness import collect_trace
from repro.serve import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    RESULT_STATES,
    JobFailedError,
    ServeConfig,
    Service,
    TenantQuota,
    replay_wal,
)
from repro.common.store import ContentStore
from repro.obs import live
from repro.offline.cache import CACHE_FORMAT
from repro.serve.config import CACHE_NAME
from repro.serve.wal import WAL_NAME
from repro.sword.traceformat import parse_journal


#: Pair shards in ``racy_trace``'s plan under ``durable_service``: 12
#: concurrent pairs, 6 decided by the plan-time digest prune, the 6
#: survivors two to a shard.  The fault tests poison by index, so the
#: count is pinned (``sabotage`` refuses an index the plan lacks).
SHARDS = 3


@pytest.fixture(scope="module")
def racy_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "racy"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    return trace


def durable_service(state_dir, obs=None, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("shard_pairs", 2)
    kwargs.setdefault("quota", TenantQuota(max_pending=8))
    return Service(ServeConfig(state_dir=str(state_dir), **kwargs), obs=obs)


def truncate_wal(state_dir, drop_kinds, drop=lambda record: False):
    """Drop raw WAL lines of the given kinds (and those ``drop``
    accepts), byte-exact for the rest."""
    wal = state_dir / WAL_NAME
    kept = []
    for line in wal.read_text(encoding="utf-8").splitlines(keepends=True):
        records = parse_journal(line, salvage=True)
        if records and (records[0].get("kind") in drop_kinds or drop(records[0])):
            continue
        kept.append(line)
    wal.write_text("".join(kept), encoding="utf-8")


def test_restart_resumes_job_through_the_result_cache(
    tmp_path, racy_trace, compares
):
    """Killed after all but the last shard was logged done: the resumed
    job replays every pair of the logged shards from the state-dir
    result cache and compares only the lost shard's pairs again."""
    state = tmp_path / "state"
    with durable_service(state) as svc:
        job_id = svc.submit(racy_trace)
        reference = svc.result(job_id, timeout=60).races.to_json()
    lost = SHARDS - 1
    truncate_wal(
        state,
        {"merged", "finalized"},
        lambda r: r["kind"] == "shard-done" and r["shard"] == lost,
    )
    entries = shard_pair_entries(racy_trace, shard_pairs=2)
    for name in entries[lost]:
        (state / CACHE_NAME / "pairs" / name).unlink()
    done = replay_wal(state / WAL_NAME).jobs[job_id].shards_done
    assert done == set(range(SHARDS)) - {lost}
    durable = sum(len(entries[index]) for index in done)
    del compares[:]
    with durable_service(state) as svc:
        result = svc.result(job_id, timeout=60)  # same pre-crash id works
        status = svc.status(job_id)
        stats = svc.stats()
        # The id sequence continues past the replayed maximum.
        fresh = svc.submit(racy_trace)
        svc.result(fresh, timeout=60)
    assert result.races.to_json() == reference  # byte-identical completion
    assert status["resumed"] is True
    assert status["state"] == DONE
    # Every pair of a logged shard replayed; only the lost ones ran.
    resumed = result.stats
    assert resumed.pair_cache_hits == durable
    assert len(compares) == len(entries[lost])
    assert (
        resumed.pairs_pruned + resumed.pair_cache_hits + len(compares)
        == resumed.concurrent_pairs
    )
    assert stats["jobs_resumed"] == 1
    assert fresh != job_id


def test_salvage_job_resumes_to_the_uninterrupted_result(
    tmp_path, racy_trace, compares
):
    """A salvage job shards like a strict one, so it resumes like one:
    killed with half its pair entries written, the restarted service
    returns the uninterrupted races and integrity report."""
    torn = tmp_path / "torn"
    shutil.copytree(racy_trace, torn)
    log = sorted(torn.glob("thread_*.log"))[-1]
    log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
    state = tmp_path / "state"
    with durable_service(state, shard_pairs=1) as svc:
        job_id = svc.submit(torn, integrity="salvage")
        reference = svc.result(job_id, timeout=60)
        assert svc.status(job_id)["shards_total"] > 1
    truncate_wal(state, {"shard-done", "merged", "finalized"})
    entries = sorted((state / CACHE_NAME / "pairs").glob("*.json"))
    for entry in entries[::2]:
        entry.unlink()
    del compares[:]
    with durable_service(state, shard_pairs=1) as svc:
        result = svc.result(job_id, timeout=60)
        status = svc.status(job_id)
    stats = result.stats
    assert status["resumed"] is True
    assert stats.pair_cache_hits == len(entries) - len(entries[::2]) > 0
    assert (
        stats.pairs_pruned + stats.pair_cache_hits + len(compares)
        == stats.concurrent_pairs
    )
    assert result.races.to_json() == reference.races.to_json()
    assert result.integrity.to_json() == reference.integrity.to_json()
    assert result.races.to_json() == api.analyze(
        torn, integrity="salvage"
    ).races.to_json()


def test_a_durable_service_requires_its_result_cache(tmp_path):
    """A resumed job replays its decided pairs from the result cache; a
    state dir without one would silently recompute every resumed job."""
    config = ServeConfig(state_dir=str(tmp_path / "state"), result_cache=False)
    with pytest.raises(ValueError, match="result_cache"):
        config.validate()
    with pytest.raises(ValueError, match="result_cache"):
        Service(config)
    assert not (tmp_path / "state").exists()


def test_restart_with_no_planned_record_replans_from_scratch(
    tmp_path, racy_trace
):
    state = tmp_path / "state"
    with durable_service(state) as svc:
        job_id = svc.submit(racy_trace)
        reference = svc.result(job_id, timeout=60).races.to_json()
    # Kill straight after admission: only the submitted record survives.
    truncate_wal(state, {"planned", "shard-done", "merged", "finalized"})
    shutil.rmtree(state / CACHE_NAME)
    with durable_service(state) as svc:
        result = svc.result(job_id, timeout=60)
    assert result.races.to_json() == reference


def test_degraded_job_returns_partial_result(tmp_path, racy_trace):
    state = tmp_path / "state"
    artifacts = tmp_path / "artifacts"
    with durable_service(state) as svc:
        clean = svc.result(svc.submit(racy_trace), timeout=60).races.to_json()
    with durable_service(
        tmp_path / "state2", trace_dir=str(artifacts)
    ) as svc:
        sabotage(svc, poison=(1,))
        job_id = svc.submit(racy_trace)
        result = svc.result(job_id, timeout=60)  # DEGRADED still returns
        status = svc.status(job_id)
        assert svc.stats()["jobs_degraded"] == 1
    assert status["state"] == DEGRADED
    assert status["state"] in RESULT_STATES
    assert status["shards_total"] == SHARDS
    assert status["shards_quarantined"] == 1
    report = status["degradation"]
    assert report["shards_quarantined"] == [1]
    assert 0.0 < report["pair_coverage"] < 1.0
    assert report["quarantined"][0]["causes"]  # the cause chain survives
    # Partial coverage yields a subset of the full answer.
    degraded = result.races.to_json()
    assert set(map(str, degraded)) <= set(map(str, clean))
    # The structured report landed as an artifact next to the job trace.
    assert (artifacts / f"{job_id}.degradation.json").exists()
    # And the WAL's terminal record agrees.
    replay = replay_wal(tmp_path / "state2" / WAL_NAME)
    assert replay.jobs[job_id].final_state == DEGRADED


def test_all_shards_quarantined_fails_job(tmp_path, racy_trace):
    with durable_service(tmp_path / "state") as svc:
        sabotage(svc, poison=tuple(range(SHARDS)))
        job_id = svc.submit(racy_trace)
        with pytest.raises(JobFailedError) as exc:
            svc.result(job_id, timeout=60)
        assert exc.value.state == FAILED
        assert "chaos" in svc.status(job_id)["error"]


def test_quarantine_disabled_fails_job_directly(tmp_path, racy_trace):
    with durable_service(tmp_path / "state", quarantine=False) as svc:
        sabotage(svc, poison=(1,))
        job_id = svc.submit(racy_trace)
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=60)
        status = svc.status(job_id)
        assert status["state"] == FAILED
        assert "poisoned shard 1" in status["error"]  # not a refused target


def test_sabotage_refuses_a_shard_the_plan_does_not_have(tmp_path, racy_trace):
    # Plans hold only pairs that survive the plan-time prune; a scenario
    # whose target vanished must fail loudly, not finish DONE unharmed.
    with durable_service(tmp_path / "state") as svc:
        sabotage(svc, poison=(SHARDS,))
        job_id = svc.submit(racy_trace)
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=60)
        error = svc.status(job_id)["error"]
    assert "chaos: no shard" in error and f"{SHARDS} shard(s)" in error


def test_job_deadline_fails_job_not_service(tmp_path, racy_trace):
    quota = TenantQuota(max_pending=8, deadline_s=0.05)
    with durable_service(tmp_path / "state", quota=quota) as svc:
        gate = threading.Event()
        original = svc.pool._execute

        def slow(spec):
            gate.wait(timeout=10.0)
            return original(spec)

        svc.pool._execute = slow
        job_id = svc.submit(racy_trace)
        time.sleep(0.1)  # blow the deadline while shards sit gated
        gate.set()
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=60)
        status = svc.status(job_id)
        assert status["state"] == FAILED
        assert "deadline" in status["error"].lower()
        # The service keeps serving afterwards.
        svc.pool._execute = original
        follow_up = svc.submit(racy_trace, tenant="other")
        svc.result(follow_up, timeout=60)


def test_cancel_racing_finalization_cancel_wins(tmp_path, racy_trace):
    # Interpose at the exact boundary: the final shard has executed and
    # its outcome is in hand, but the terminal state is not yet chosen.
    # A cancel landing there must win (the caller walked away) and the
    # WAL must agree.  One worker serializes the shard callbacks.
    with durable_service(tmp_path / "state", workers=1) as svc:
        original = svc.scheduler._on_shard
        cancelled_at_boundary = []
        box = {}

        def racing(job, outcome, error, task=None):
            if (
                job.job_id == box.get("job_id")
                and not cancelled_at_boundary
                and job.shards_done == job.shards_total - 1
            ):
                cancelled_at_boundary.append(svc.cancel(job.job_id))
            original(job, outcome, error, task)

        svc.scheduler._on_shard = racing
        box["job_id"] = svc.submit(racy_trace)
        with pytest.raises(JobFailedError) as exc:
            svc.result(box["job_id"], timeout=60)
        assert cancelled_at_boundary == [True]  # the job was still active
        assert exc.value.state == CANCELLED
        status = svc.status(box["job_id"])
        assert status["state"] == CANCELLED
        assert svc.cancel(box["job_id"]) is False  # terminal is terminal
    replay = replay_wal(tmp_path / "state" / WAL_NAME)
    assert replay.jobs[box["job_id"]].final_state == CANCELLED


@pytest.mark.parametrize("which", ["first", "last"])
def test_a_raising_merge_fails_the_job_not_the_pool(
    tmp_path, racy_trace, which
):
    # A merge that raised used to unwind the pool thread running the
    # shard callback: on the last shard the job stayed RUNNING forever,
    # on an earlier one it finished DONE without that shard's races.
    # Every wait is bounded so a regression fails instead of hanging.
    svc = durable_service(tmp_path / "state").start()
    try:
        original = svc.scheduler._merge
        raised = []

        def merge_once(job, outcome):
            last = job.shards_done == job.shards_total
            if not raised and (which == "first" or last):
                raised.append(job.job_id)
                raise RuntimeError("merge blew up")
            original(job, outcome)

        svc.scheduler._merge = merge_once
        job_id = svc.submit(racy_trace)
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=30)
        status = svc.status(job_id)
        assert status["state"] == FAILED
        assert "merge blew up" in status["error"]
        follow_up = svc.submit(racy_trace, tenant="other")
        svc.result(follow_up, timeout=30)
        assert svc.status(follow_up)["state"] == DONE
    finally:
        svc.close(drain=False)


def test_cancel_after_finalization_is_a_stable_no(tmp_path, racy_trace):
    state = tmp_path / "state"
    with durable_service(state) as svc:
        job_id = svc.submit(racy_trace)
        svc.result(job_id, timeout=60)
        before = svc.status(job_id)["state"]
        assert svc.cancel(job_id) is False
        assert svc.status(job_id)["state"] == before
    assert replay_wal(state / WAL_NAME).jobs[job_id].final_state == before


@pytest.fixture(scope="module")
def qsomp_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "qsomp"
    collect_trace("cpp_qsomp1", trace, nthreads=4, seed=0, n=256)
    return trace, api.analyze(trace).races.to_json()


def _edit(text, **fields):
    return json.dumps({**json.loads(text), **fields})


#: A race report as a pair entry stores it.
REPORT = {
    "pc_a": 1, "pc_b": 2, "address": 4096, "write_a": True,
    "write_b": False, "gid_a": 0, "gid_b": 1, "pid_a": 3, "pid_b": 3,
    "bid_a": 0, "bid_b": 0,
}

#: Pair-entry bodies a torn write or a tamperer leaves behind.
TAMPERED = {
    "torn": lambda text: text[:20],
    "not-an-object": lambda text: "[]",
    "two-field-row": lambda text: _edit(text, reports=[[1, 2]]),
    "string-field": lambda text: _edit(
        text, reports=[{**REPORT, "address": "0x1000"}]
    ),
    "missing-field": lambda text: _edit(
        text, reports=[{k: v for k, v in REPORT.items() if k != "pc_b"}]
    ),
    "reports-shape": lambda text: _edit(text, reports=7),
    "format-2": lambda text: _edit(text, format=2),
}


@pytest.mark.parametrize("body", TAMPERED)
def test_resume_over_tampered_pair_entries(tmp_path, qsomp_trace, body):
    """A pair entry is outside input.  A resumed job whose every entry
    does not decode evicts them, counts the evictions and recomputes
    the pairs; another ``format`` is a plain miss, overwritten."""
    trace, reference = qsomp_trace
    state = tmp_path / "state"
    with durable_service(state) as svc:
        job_id = svc.submit(trace)
        svc.result(job_id, timeout=30)
    truncate_wal(state, {"merged", "finalized"})
    entries = sorted((state / CACHE_NAME / "pairs").glob("*.json"))
    assert entries
    for path in entries:
        path.write_text(TAMPERED[body](path.read_text()))
    with durable_service(state, obs=live()) as svc:
        result = svc.result(job_id, timeout=30)
        job = svc._job(job_id)
        assert job.resumed and job.state == DONE
    assert result.races.to_json() == reference
    assert result.stats.pair_cache_hits == 0
    evictions = job.worker_metrics["counters"].get(
        "offline.pair_cache_corrupt_evictions", 0
    )
    assert evictions == (0 if body == "format-2" else len(entries))
    store = ContentStore(state / CACHE_NAME / "pairs", CACHE_FORMAT)
    for path in entries:
        assert store.load(path.stem, lambda payload: payload["reports"]) is not None
