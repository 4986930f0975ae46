"""End-to-end job tracing: context, worker bundles, trace stitching."""

import json
import pickle

import pytest

from repro.faults.harness import collect_trace
from repro.obs import NULL_OBS, NullTracer, get_obs, live, prometheus_text
from repro.serve import (
    FAILED,
    JobFailedError,
    ObsConfig,
    ServeConfig,
    Service,
    TraceContext,
)
from repro.serve.tracing import coord_span


@pytest.fixture(scope="module")
def racy_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "racy"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    return trace


@pytest.fixture(scope="module")
def torn_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "torn"
    collect_trace("antidep1-orig-yes", trace, nthreads=2, seed=0)
    log = sorted(trace.glob("thread_*.log"))[0]
    data = log.read_bytes()
    log.write_bytes(data[: len(data) // 2])
    return trace


def live_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("shard_pairs", 4)
    return Service(ServeConfig(**kwargs), obs=live())


def x_events(trace: dict) -> list[dict]:
    return [e for e in trace["traceEvents"] if e["ph"] == "X"]


def row_names(trace: dict) -> dict[int, str]:
    """tid -> row name from the thread_name metadata events."""
    return {
        e["tid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


# -- the context and the recipe ----------------------------------------------------


def test_trace_context_mint_and_child():
    root = TraceContext.mint()
    assert len(root.trace_id) == 32
    assert len(root.span_id) == 16
    assert root.parent_id == ""
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    assert TraceContext.mint().trace_id != root.trace_id
    assert child.to_json()["parent_id"] == root.span_id


def test_obs_config_none_when_dark():
    assert ObsConfig.from_obs(NULL_OBS) is None


def test_obs_config_round_trips_through_pickle():
    config = ObsConfig.from_obs(live())
    assert config is not None
    assert config.metrics and config.tracing
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config


def test_obs_config_builds_live_bundle_with_null_journal():
    bundle = ObsConfig.from_obs(live()).build()
    assert bundle.registry.enabled
    assert not isinstance(bundle.tracer, NullTracer)
    assert not bundle.journal.enabled  # the coordinator journals lifecycle


def test_coord_span_clamps_and_elides():
    span = coord_span("plan", 10.0, 9.0, shards=3, error=None)
    assert span["dur"] == 0.0  # never negative
    assert span["args"] == {"shards": 3}  # None values elided
    assert "args" not in coord_span("merge", 1.0, 2.0, note=None)


# -- the stitched trace ------------------------------------------------------------


def test_process_pool_job_stitches_one_trace(racy_trace):
    with live_service(use_processes=True) as svc:
        job_id = svc.submit(racy_trace, tenant="acme")
        svc.result(job_id, timeout=60)
        status = svc.status(job_id)
        stitched = svc.trace(job_id)

    # Well-formed Chrome trace-event JSON (and json-serialisable).
    json.dumps(stitched)
    assert stitched["metadata"]["job_id"] == job_id
    assert stitched["metadata"]["tenant"] == "acme"
    assert stitched["metadata"]["state"] == "done"
    assert stitched["metadata"]["trace_id"] == status["trace_id"] != ""

    rows = row_names(stitched)
    assert rows[0] == "coordinator"
    worker_tids = [tid for tid, name in rows.items() if name.startswith("worker pid ")]
    assert worker_tids  # at least one process-worker row

    events = x_events(stitched)
    assert events and all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
    # Every span carries the job's trace id.
    assert all(e["args"]["trace_id"] == status["trace_id"] for e in events)

    coord = [e for e in events if e["tid"] == 0]
    coord_names = {e["name"] for e in coord}
    assert {"job", "triage", "queue-wait", "plan", "merge"} <= coord_names

    # The enclosing "job" bar contains the control-plane spans that start
    # at or after submission (triage runs just before the clock starts).
    job_bar = next(e for e in coord if e["name"] == "job")
    job_end = job_bar["ts"] + job_bar["dur"]
    for event in coord:
        if event["name"] in ("queue-wait", "plan", "merge"):
            assert event["ts"] >= job_bar["ts"] - 1.0  # µs tolerance
            assert event["ts"] + event["dur"] <= job_end + 1.0

    # The plan span accounts for every concurrent pair: decided at plan
    # time (pruned) or shipped in one of the shards it counts.
    plan = next(e for e in coord if e["name"] == "plan")["args"]
    assert plan["pairs"] == status["pairs_planned"] == 12
    assert plan["pruned"] == status["pairs_pruned"] == 6
    assert plan["shards"] == status["shards_total"] == 2
    assert status["pairs_shipped"] == plan["pairs"] - plan["pruned"]

    # Worker rows: one shard span per shipped shard, carrying its pair
    # count -- and no per-shard metadata scan: the planner did the one.
    worker = [e for e in events if e["tid"] in worker_tids]
    shard_spans = [e for e in worker if e["name"] == "shard"]
    assert len(shard_spans) == plan["shards"]
    assert (
        sum(s["args"]["pairs"] for s in shard_spans) == status["pairs_shipped"]
    )
    assert not [e for e in worker if e["name"] == "scan"]
    # The engine's own spans still nest inside the shard that ran them.
    compares = [e for e in worker if e["name"] == "pair-compare"]
    assert compares
    for compare in compares:
        assert any(
            s["tid"] == compare["tid"]
            and s["ts"] - 1.0 <= compare["ts"]
            and compare["ts"] + compare["dur"] <= s["ts"] + s["dur"] + 1.0
            for s in shard_spans
        )


def test_trace_id_stable_from_queue_to_merge(racy_trace):
    with live_service() as svc:
        job_id = svc.submit(racy_trace, tenant="acme")
        svc.result(job_id, timeout=30)
        trace_id = svc.status(job_id)["trace_id"]
        events = svc.obs.journal.events(job=job_id)
    kinds = [e["kind"] for e in events]
    # The lifecycle reads in order on the flight recorder...
    assert kinds.index("job-submit") < kinds.index("job-dequeue")
    assert kinds.index("job-dequeue") < kinds.index("shard-start")
    assert kinds.index("shard-start") < kinds.index("job-complete")
    # ...and every event that names a trace carries the same one.
    tagged = [e for e in events if "trace_id" in e]
    assert tagged and all(e["trace_id"] == trace_id for e in tagged)


def test_retry_attempts_become_retry_and_backoff_spans(racy_trace):
    with live_service(shard_backoff_seconds=0.001) as svc:
        flakes = [OSError("simulated trace I/O flake") for _ in range(2)]
        original = svc.pool._execute

        def flaky(spec):
            try:
                exc = flakes.pop()  # atomic under the GIL
            except IndexError:
                return original(spec)
            raise exc

        svc.pool._execute = flaky
        job_id = svc.submit(racy_trace)
        result = svc.result(job_id, timeout=30)
        stitched = svc.trace(job_id)
        retries = svc.obs.journal.events(kind="shard-retry")

    assert len(result.races) == 2  # the job still converged
    assert svc.pool.retries == 2
    assert len(retries) == 2
    names = [e["name"] for e in x_events(stitched)]
    assert names.count("shard-retry") == 2
    # A failed attempt followed by another attempt leaves a backoff gap.
    assert "shard-backoff" in names


def test_worker_metric_deltas_merge_into_job(racy_trace):
    with live_service() as svc:
        job_id = svc.submit(racy_trace)
        svc.result(job_id, timeout=30)
        job = svc._job(job_id)
    counters = job.worker_metrics.get("counters", {})
    assert counters.get("offline.events_read", 0) > 0


# -- per-tenant telemetry ----------------------------------------------------------


def test_per_tenant_histograms_with_exemplars(racy_trace):
    with live_service() as svc:
        for tenant in ("acme", "globex"):
            svc.result(svc.submit(racy_trace, tenant=tenant), timeout=30)
        snapshot = svc.obs.registry.snapshot()
        stats = svc.stats()

    histograms = snapshot["histograms"]
    for tenant in ("acme", "globex"):
        labeled = histograms[f'serve.ttfr_seconds{{tenant="{tenant}"}}']
        assert labeled["count"] == 1
        assert labeled["exemplars"]  # trace-id exemplar on some bucket
        assert f'serve.queue_wait_seconds{{tenant="{tenant}"}}' in histograms
        assert f'serve.shard_seconds{{tenant="{tenant}"}}' in histograms
    # The unlabeled aggregate still sees every observation.
    assert histograms["serve.ttfr_seconds"]["count"] == 2

    text = prometheus_text(snapshot)
    assert '# {trace_id="' in text
    assert 'repro_serve_ttfr_seconds_bucket{tenant="acme",le="' in text
    assert 'repro_serve_ttfr_seconds_p50{tenant="acme"}' in text
    assert 'repro_serve_ttfr_seconds_p99{tenant="globex"}' in text

    tenants = stats["tenants"]
    assert set(tenants) == {"acme", "globex"}
    for slo in tenants.values():
        assert slo["finished"] == slo["submitted"] == 1
        assert slo["ttfr_p50_seconds"] is not None
        assert slo["queue_wait_p50_seconds"] is not None
    assert stats["journal"]["recorded"] > 0


def test_stats_line_is_one_compact_line(racy_trace):
    with live_service() as svc:
        svc.result(svc.submit(racy_trace), timeout=30)
        line = svc.stats_line()
    assert line.startswith("[serve] jobs=1/1")
    assert "\n" not in line
    assert "ttfr_p50=" in line


# -- artifacts ---------------------------------------------------------------------


def test_trace_artifacts_written_per_job(tmp_path, racy_trace):
    trace_dir = tmp_path / "traces"
    with live_service(trace_dir=str(trace_dir)) as svc:
        job_id = svc.submit(racy_trace)
        svc.result(job_id, timeout=30)
    artifact = trace_dir / f"{job_id}.trace.json"
    assert artifact.exists()
    stitched = json.loads(artifact.read_text())
    assert stitched["metadata"]["job_id"] == job_id
    assert x_events(stitched)


def test_failed_job_dumps_its_journal_slice(tmp_path, torn_trace):
    trace_dir = tmp_path / "traces"
    with live_service(trace_dir=str(trace_dir)) as svc:
        job_id = svc.submit(torn_trace, integrity="strict")
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=30)
        assert svc.status(job_id)["state"] == FAILED
    slice_path = trace_dir / f"{job_id}.journal.jsonl"
    assert slice_path.exists()
    events = [json.loads(line) for line in slice_path.read_text().splitlines()]
    assert events and all(e["job"] == job_id for e in events)
    assert {"job-submit", "job-complete"} <= {e["kind"] for e in events}


def test_dark_service_records_no_worker_spans(racy_trace):
    # NULL_OBS service: coordinator wall-clock spans still exist (they
    # are plain dicts, no tracer involved) but shards run dark -- no
    # worker rows, no journal, and stats() still answers.
    with Service(ServeConfig(workers=2, use_processes=False, shard_pairs=4)) as svc:
        job_id = svc.submit(racy_trace)
        svc.result(job_id, timeout=30)
        job = svc._job(job_id)
        stitched = svc.trace(job_id)
        stats = svc.stats()
    assert job.worker_spans == []
    assert job.worker_metrics == {}
    # Regression: thread-mode live services earlier in this module must
    # not have leaked their per-shard bundles into the process ambient.
    assert get_obs() is NULL_OBS
    assert all(not n.startswith("worker") for n in row_names(stitched).values())
    assert stats["journal"] == {}
    assert stats["tenants"]["default"]["finished"] == 1
