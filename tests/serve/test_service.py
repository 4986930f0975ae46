"""Service-level behavior: parity, cache reuse, crashes, cancellation."""

import dataclasses
import threading
import time

import pytest

import repro.api as api
from repro.common.config import RunConfig, SwordConfig
from repro.common.errors import ConfigError
from repro.faults import FaultySinkFactory, SinkFaultSpec
from repro.faults.harness import collect_trace
from repro.omp import OpenMPRuntime
from repro.serve import (
    DEGRADED,
    DONE,
    FAILED,
    IngestionQueue,
    JobFailedError,
    JobNotFoundError,
    ServeConfig,
    Service,
    TenantQuota,
)
from repro.sword import SwordTool
from repro.workloads import REGISTRY


@pytest.fixture(scope="module")
def racy_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "racy"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    return trace


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "clean"
    collect_trace("atomic-orig-no", trace, nthreads=2, seed=0)
    return trace


@pytest.fixture(scope="module")
def torn_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "torn"
    collect_trace("antidep1-orig-yes", trace, nthreads=2, seed=0)
    log = sorted(trace.glob("thread_*.log"))[0]
    data = log.read_bytes()
    log.write_bytes(data[: len(data) // 2])
    return trace


def thread_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("shard_pairs", 4)
    return Service(ServeConfig(**kwargs))


def test_results_byte_identical_to_single_shot(racy_trace):
    baseline = api.analyze(racy_trace)
    with thread_service() as svc:
        job_id = svc.submit(racy_trace)
        result = svc.result(job_id, timeout=30)
    assert result.races.to_json() == baseline.races.to_json()
    assert result.stats.concurrent_pairs == baseline.stats.concurrent_pairs


def test_clean_trace_completes_with_no_races(clean_trace):
    with thread_service() as svc:
        job_id = svc.submit(clean_trace)
        result = svc.result(job_id, timeout=30)
        status = svc.status(job_id)
    assert len(result.races) == 0
    assert status["state"] == DONE
    assert status["ttfr_seconds"] is None  # TTFR only exists for racy jobs


def test_cross_job_cache_hits_on_resubmission(racy_trace):
    with thread_service() as svc:
        first = svc.submit(racy_trace, tenant="acme")
        svc.result(first, timeout=30)
        second = svc.submit(racy_trace, tenant="globex")
        svc.result(second, timeout=30)
        assert svc.status(second)["cache_hits"] > 0
        # Both tenants converged on identical races.
        assert (
            svc._job(first).races.to_json() == svc._job(second).races.to_json()
        )


def test_cache_dir_that_is_a_file_is_refused(tmp_path):
    """Resubmissions would report no cache hits: refused at boot."""
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    with pytest.raises(ConfigError, match="not a directory"):
        thread_service(cache_dir=str(not_a_dir))


def test_salvage_job_carries_integrity_report(torn_trace):
    baseline = api.analyze(torn_trace, integrity="salvage")
    with thread_service() as svc:
        job_id = svc.submit(torn_trace, integrity="salvage")
        result = svc.result(job_id, timeout=30)
    assert result.integrity is not None
    assert result.integrity.mode == "salvage"
    assert result.races.to_json() == baseline.races.to_json()
    # The salvage shard's ledger reaches the job through the ordinary
    # merge: everything but the clocks equals the single-shot run.
    clocks = ("plan_seconds", "build_seconds", "compare_seconds")
    assert dataclasses.replace(
        result.stats, **dict.fromkeys(clocks, 0.0)
    ) == dataclasses.replace(baseline.stats, **dict.fromkeys(clocks, 0.0))


def test_strict_torn_trace_fails_job_not_service(torn_trace, racy_trace):
    with thread_service() as svc:
        bad = svc.submit(torn_trace, integrity="strict")
        with pytest.raises(JobFailedError):
            svc.result(bad, timeout=30)
        assert svc.status(bad)["state"] == FAILED
        assert svc.status(bad)["error"]
        # The service keeps serving after a failed job.
        good = svc.submit(racy_trace)
        assert len(svc.result(good, timeout=30).races) == 2


def test_worker_crash_mid_shard_via_faulty_sink(tmp_path, racy_trace):
    # A trace collected through a permanently failing sink is torn on
    # disk mid-write -- the serve-side worker then crashes mid-shard in
    # strict mode.  The job must fail cleanly and the pool survive.
    trace = tmp_path / "crashy"
    factory = FaultySinkFactory(SinkFaultSpec(fail_at=5, permanent=True))
    tool = SwordTool(
        SwordConfig(
            log_dir=str(trace),
            buffer_events=16,
            flush_degraded="drop-oldest",
        ),
        sink_factory=factory,
    )
    workload = REGISTRY.get("plusplus-orig-yes")
    OpenMPRuntime(RunConfig(nthreads=4), tool=tool).run(
        lambda master: workload.run_program(master)
    )
    assert factory.failures > 0
    with thread_service() as svc:
        job_id = svc.submit(trace, integrity="strict")
        status = None
        try:
            svc.result(job_id, timeout=30)
            status = svc.status(job_id)["state"]
        except JobFailedError:
            status = FAILED
        # Degradation policy may have produced a readable (shrunk) trace;
        # it analyzes, fails as a job, or quarantines the poison shards
        # and finishes degraded -- never hangs or kills the service.
        assert status in (DONE, FAILED, DEGRADED)
        follow_up = svc.submit(racy_trace)
        assert len(svc.result(follow_up, timeout=30).races) == 2


def test_cancel_while_running(racy_trace):
    with thread_service(workers=1, shard_pairs=1) as svc:
        # Gate the single worker so the job's shards sit queued long
        # enough to cancel deterministically.
        gate = threading.Event()
        original_execute = svc.pool._execute

        def gated_execute(spec):
            gate.wait(timeout=10.0)
            return original_execute(spec)

        svc.pool._execute = gated_execute
        job_id = svc.submit(racy_trace)
        time.sleep(0.05)  # let the scheduler fan the shards out
        assert svc.cancel(job_id) is True
        gate.set()
        with pytest.raises(JobFailedError) as exc:
            svc.result(job_id, timeout=30)
        assert exc.value.state == "cancelled"
        assert svc.cancel(job_id) is False  # already terminal


def test_draining_close_does_not_spin_the_scheduler(racy_trace, monkeypatch):
    gets = []
    original_get = IngestionQueue.get

    def counting_get(self, timeout=None):
        gets.append(timeout)
        return original_get(self, timeout=timeout)

    monkeypatch.setattr(IngestionQueue, "get", counting_get)
    with thread_service(workers=1, shard_pairs=64) as svc:
        started = threading.Event()
        original_execute = svc.pool._execute

        def slow_execute(spec):
            started.set()
            time.sleep(0.5)
            return original_execute(spec)

        svc.pool._execute = slow_execute
        job_id = svc.submit(racy_trace)
        assert started.wait(timeout=10.0)
        del gets[:]
        svc.close(drain=True)
        assert svc.status(job_id)["state"] == DONE
    # The queue is closed for the whole drain: one get() sees that.
    assert len(gets) < 100


def test_quota_released_after_completion(racy_trace):
    with thread_service(quota=TenantQuota(max_pending=1)) as svc:
        first = svc.submit(racy_trace, tenant="acme")
        svc.result(first, timeout=30)
        # Quota returned at terminal state: a second submit succeeds.
        second = svc.submit(racy_trace, tenant="acme")
        svc.result(second, timeout=30)


def test_unknown_job_raises():
    with thread_service() as svc:
        with pytest.raises(JobNotFoundError):
            svc.status("job-999999")


def test_service_stats_shape(racy_trace):
    with thread_service() as svc:
        job_id = svc.submit(racy_trace)
        svc.result(job_id, timeout=30)
        stats = svc.stats()
    assert stats["jobs_finished"] == 1
    assert stats["jobs_per_second"] > 0
    assert stats["shards_executed"] > 0
    assert stats["ttfr_p99_seconds"] is not None


def test_api_exports_service():
    assert api.Service is Service
    assert api.ServeConfig is ServeConfig
