"""Plan once, ship what survives: the shard planner's digest prune.

``plan_shards`` is the only place a job's metadata is parsed.  It applies
the engine's own frame-digest test to every concurrent pair, counts the
pruned ones on the plan, and ships each shard the ``IntervalData`` of its
surviving pairs.  The contract checked here: whatever the planner decides,
the service and ``mode="parallel"`` return the serial race set byte for
byte and account for every pair exactly once, and no worker ever scans
the meta files again.
"""

import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import pytest

import repro.api as api
from repro.common.errors import TraceFormatError
from repro.faults.harness import collect_trace
from repro.offline.analyzer import reference_analyze
from repro.offline.engine import TREE_CACHE_CAPACITY
from repro.offline.intervals import IntervalInventory
from repro.offline.options import AnalysisOptions, FastPathOptions
from repro.serve import DONE, JobFailedError, ServeConfig, Service, replay_wal
from repro.serve.shards import plan_shards
from repro.serve.wal import WAL_NAME
from repro.sword import TraceDir
from repro.sword.traceformat import parse_journal

NTHREADS = 4

#: The four ``serve_mixed`` shapes at the benchmark's smoke size, then
#: the trace whose verdicts come from the static table alone.
SHAPES = {
    "qsomp": ("cpp_qsomp1", {"n": 256}),
    "lu": ("c_lu", {"n": 16}),
    "hpccg": ("hpccg", {"n": 256, "iters": 4}),
    "lulesh": ("lulesh", {"steps": 4}),
    # Every event elided, two DEFINITE_RACE sites: one synthesised race
    # and no pair that survives the plan.
    "wshift": ("staticlab_wshift", {}),
}
#: (concurrent pairs, pruned at plan time) per shape, at seed 0.
PLANNED = {
    "qsomp": (18, 12),
    "lu": (102, 16),
    "hpccg": (186, 114),
    "lulesh": (408, 408),
    "wshift": (12, 12),
}
#: Per-pair work is a function of the pair alone, so these must equal the
#: serial analysis however the pairs are cut into shards.  ``trees_built``
#: is not one of them: each shard builds the trees of its own pairs
#: (:func:`planned_builds`), so it is a function of the plan.
PAIR_COUNTERS = (
    "concurrent_pairs", "pairs_pruned", "frames_pruned",
    "overlap_candidates", "ilp_solves",
)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("plan-prune")
    paths = {}
    for label, (workload, params) in SHAPES.items():
        paths[label] = root / label
        collect_trace(
            workload, paths[label], nthreads=NTHREADS, seed=0, **params
        )
    # Malformed rows: thread 0's meta rows lose their d1= token (plain
    # rows, so no CRC to keep in step).
    stripped = paths["stripped"] = root / "stripped"
    collect_trace(
        "c_lu", stripped, nthreads=NTHREADS, seed=0, durable=False, n=16
    )
    meta = stripped / "thread_0.meta"
    lines = []
    for line in meta.read_text().splitlines():
        if not line.startswith("#"):
            line, _, token = line.rpartition(" ")
            assert token.startswith("d1=")
        lines.append(line)
    meta.write_text("\n".join(lines) + "\n")
    # A torn copy for the salvage job.
    torn = paths["torn"] = root / "torn"
    shutil.copytree(paths["hpccg"], torn)
    log = sorted(torn.glob("thread_*.log"))[0]
    log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
    # No concurrency at all: one thread, zero pairs.
    paths["solo"] = root / "solo"
    collect_trace("c_lu", paths["solo"], nthreads=1, seed=0, n=16)
    return paths


def cached(cache_dir, **fastpath) -> AnalysisOptions:
    return AnalysisOptions(
        fastpath=FastPathOptions(
            result_cache=True, cache_dir=str(cache_dir), **fastpath
        )
    )


def service(tmp_path, **kwargs) -> Service:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("cache_dir", str(tmp_path / "service-cache"))
    return Service(ServeConfig(**kwargs))


def counters(stats, names=PAIR_COUNTERS) -> dict:
    return {name: getattr(stats, name) for name in names}


def planned_builds(trace, workers) -> int:
    """The trees a cold job builds: each shard's engine builds every
    distinct interval of its pairs once, since a shard's <= 32 pairs
    touch at most 64 intervals, all of which its in-memory LRU holds."""
    plan = plan_shards(trace, shard_pairs=32, min_shards=workers)
    builds = 0
    for spec in plan.shards:
        keys = {interval.key for pair in spec.pairs for interval in pair}
        assert len(keys) <= TREE_CACHE_CAPACITY
        builds += len(keys)
    return builds


@pytest.fixture
def inventories(monkeypatch):
    """Thread names that constructed an ``IntervalInventory``."""
    seen = []
    original = IntervalInventory.__init__

    def spy(self, trace):
        seen.append(threading.current_thread().name)
        original(self, trace)

    monkeypatch.setattr(IntervalInventory, "__init__", spy)
    return seen


# -- the plan ----------------------------------------------------------------------


@pytest.mark.parametrize("label", SHAPES)
@pytest.mark.parametrize("grain,min_shards", [(32, 2), (4, 1)])
def test_plan_prunes_counts_and_ships_the_rest(traces, label, grain, min_shards):
    plan = plan_shards(traces[label], shard_pairs=grain, min_shards=min_shards)
    pairs, pruned = PLANNED[label]
    assert (plan.stats.concurrent_pairs, plan.stats.pairs_pruned) == (pairs, pruned)
    surviving = pairs - pruned
    assert plan.pairs_shipped == surviving
    if surviving and min_shards > 1:
        grain = min(grain, -(-surviving // min_shards))
    assert len(plan.shards) == -(-surviving // grain)  # ceil
    assert all(0 < spec.npairs <= grain for spec in plan.shards)
    # A shard's pairs are self-contained and in plan order: keys are
    # derived from the shipped intervals, never stored beside them.
    inventory = IntervalInventory(TraceDir(traces[label]))
    survivors = [pair for spec in plan.shards for pair in spec.pairs]
    assert [
        (a.key, b.key) for a, b in survivors
    ] == [key for spec in plan.shards for key in spec.pair_keys]
    for ia, ib in survivors:
        assert ia == inventory.intervals[ia.key]
        assert ib == inventory.intervals[ib.key]
    # Same trace, same options -> the same plan (what resume relies on).
    again = plan_shards(traces[label], shard_pairs=grain, min_shards=min_shards)
    assert [s.pair_keys for s in again.shards] == [
        s.pair_keys for s in plan.shards
    ]


def test_digestless_rows_fail_a_strict_job_and_drop_in_salvage(
    tmp_path, traces
):
    """A row without a digest is malformed: the strict planner raises
    and the job fails; a salvage job drops every such row and counts
    it, as the serial salvage analysis does."""
    stripped = traces["stripped"]
    with pytest.raises(TraceFormatError, match="malformed meta row"):
        plan_shards(stripped)
    meta = (stripped / "thread_0.meta").read_text().splitlines()
    rows = sum(not line.startswith("#") for line in meta)
    serial = api.analyze(
        stripped, options=AnalysisOptions(integrity="salvage")
    )
    assert serial.integrity.rows_dropped == rows > 0
    with service(tmp_path) as svc:
        with pytest.raises(JobFailedError, match="malformed meta row"):
            svc.result(svc.submit(stripped), timeout=60)
        job = svc.submit(stripped, integrity="salvage")
        result = svc.result(job, timeout=60)
    assert result.integrity.rows_dropped == rows
    assert result.races.to_json() == serial.races.to_json()


def test_salvage_plan_shards_like_a_strict_plan(traces):
    """A salvage plan prunes and slices like a strict one and carries
    the open-time integrity report."""
    salvage = AnalysisOptions(integrity="salvage")
    serial = api.analyze(traces["torn"], integrity="salvage")
    plan = plan_shards(traces["torn"], options=salvage, shard_pairs=1)
    assert len(plan.shards) == plan.pairs_shipped > 1
    assert counters(plan.stats, ("concurrent_pairs", "pairs_pruned")) == (
        counters(serial.stats, ("concurrent_pairs", "pairs_pruned"))
    )
    assert plan.stats.pairs_pruned > 0
    # No pair of this trace is abandoned: the plan's report is the result's.
    assert plan.integrity.to_json() == serial.integrity.to_json()
    assert not plan.integrity.clean
    assert plan_shards(traces["hpccg"]).integrity is None
    strict, salvaged = (
        plan_shards(traces["hpccg"], options=options, shard_pairs=1).shards
        for options in (AnalysisOptions(), salvage)
    )
    assert [s.pair_keys for s in strict] == [s.pair_keys for s in salvaged]


def test_strict_job_on_a_torn_trace_fails_over_a_salvage_warmed_cache(
    tmp_path, traces
):
    """The two modes share one result cache: the pair entries a salvage
    job of a torn trace leaves there never let a strict job of the same
    trace pass."""
    with service(tmp_path, shard_pairs=1) as svc:
        salvaged = svc.submit(traces["torn"], integrity="salvage")
        svc.result(salvaged, timeout=60)
        assert svc.status(salvaged)["state"] == DONE
        assert any((tmp_path / "service-cache" / "pairs").glob("*.json"))
        strict = svc.submit(traces["torn"])
        with pytest.raises(JobFailedError):
            svc.result(strict, timeout=60)
        assert svc.status(strict)["state"] == "failed"


# -- service and parallel mode against serial --------------------------------------


@pytest.mark.parametrize("label", SHAPES)
def test_service_equals_serial_on_a_cold_cache(
    tmp_path, traces, inventories, label
):
    serial = api.analyze(
        traces[label], mode="serial", options=cached(tmp_path / "serial")
    )
    builds = planned_builds(traces[label], workers=1)
    del inventories[:]
    with service(tmp_path, workers=1) as svc:
        job_id = svc.submit(traces[label])
        result = svc.result(job_id, timeout=60)
        status = svc.status(job_id)
    names = PAIR_COUNTERS + ("races_found",)
    assert result.races.to_json() == serial.races.to_json()
    assert counters(result.stats, names) == counters(serial.stats, names)
    assert result.stats.trees_built == builds
    assert result.stats.pair_cache_hits == status["cache_hits"] == 0
    surviving = status["pairs_planned"] - status["pairs_pruned"]
    assert status["pairs_shipped"] == surviving
    assert status["shards_total"] == -(-surviving // 32)
    assert status["state"] == DONE
    # The planner parsed the metadata, once; no worker did.
    assert inventories == ["serve-scheduler"]


@pytest.mark.parametrize("label", ["qsomp", "hpccg", "lulesh", "wshift"])
def test_process_pool_service_equals_serial(tmp_path, traces, label):
    serial = api.analyze(traces[label], mode="serial")
    with service(tmp_path, use_processes=True) as svc:
        cold = svc.result(svc.submit(traces[label]), timeout=60)
        warm_id = svc.submit(traces[label])
        warm = svc.result(warm_id, timeout=60)
        status = svc.status(warm_id)
    for result in (cold, warm):
        assert result.races.to_json() == serial.races.to_json()
    assert counters(cold.stats) == counters(serial.stats)
    # Warm: pruned pairs are pruned again at plan time (they never touch
    # the cache); exactly the surviving pairs replay from it.
    pairs, pruned = PLANNED[label]
    assert warm.stats.pairs_pruned == pruned
    assert warm.stats.pair_cache_hits == pairs - pruned
    assert warm.stats.trees_built == warm.stats.ilp_solves == 0
    assert status["cache_hits"] == pairs - pruned


@pytest.mark.parametrize("label", SHAPES)
def test_parallel_mode_equals_serial_on_a_cold_cache(
    tmp_path, traces, inventories, monkeypatch, label
):
    serial = api.analyze(
        traces[label], mode="serial", options=cached(tmp_path / "serial")
    )
    builds = planned_builds(traces[label], workers=2)
    del inventories[:]
    # The shard code path in-process, where the spy sees every thread.
    monkeypatch.setattr(
        "repro.serve.pool.ProcessPoolExecutor", ThreadPoolExecutor
    )
    parallel = api.analyze(
        traces[label],
        mode="parallel",
        options=cached(tmp_path / "parallel").copy(workers=2),
    )
    names = PAIR_COUNTERS + ("races_found",)
    assert parallel.races.to_json() == serial.races.to_json()
    assert counters(parallel.stats, names) == counters(serial.stats, names)
    assert parallel.stats.trees_built == builds
    # Parallel mode is a one-job service: its planner thread parsed the
    # metadata, once; no worker did.
    assert inventories == ["serve-scheduler"]


def test_cold_process_service_ledger_is_a_function_of_the_plan(
    tmp_path, traces
):
    """Two cold runs of a two-process-worker service build the same
    trees and hit the cache as often, however the shards interleave."""
    ledgers = []
    for run in ("first", "second"):
        with service(
            tmp_path, use_processes=True, cache_dir=str(tmp_path / run)
        ) as svc:
            job_id = svc.submit(traces["hpccg"])
            result = svc.result(job_id, timeout=60)
            status = svc.status(job_id)
        ledgers.append((result.stats.trees_built, status["cache_hits"]))
    assert ledgers[0] == ledgers[1] == (
        planned_builds(traces["hpccg"], workers=2), 0,
    )


def test_parallel_mode_across_processes(traces):
    for label in ("hpccg", "lulesh"):
        serial = api.analyze(traces[label], mode="serial")
        parallel = api.analyze(
            traces[label], mode="parallel", options=AnalysisOptions(workers=2)
        )
        assert parallel.races.to_json() == serial.races.to_json()
        assert counters(parallel.stats) == counters(serial.stats)


@pytest.mark.parametrize("label", SHAPES)
def test_pruned_plan_keeps_the_reference_race_set(tmp_path, traces, label):
    """What the planner prunes could never race: a job over the
    surviving pairs reports the unpruned reference analysis's races."""
    reference = reference_analyze(traces[label])
    with service(tmp_path) as svc:
        result = svc.result(svc.submit(traces[label]), timeout=60)
    assert result.races.to_json() == reference.races.to_json()
    assert result.stats.concurrent_pairs == reference.stats.concurrent_pairs
    # The reference prunes only the pairs the planner counts (an empty
    # side), and hits no cache.
    inventory = IntervalInventory(TraceDir(traces[label]))
    inventory.concurrent_pairs()
    assert reference.stats.pairs_pruned == inventory.pairs_counted
    assert reference.stats.pair_cache_hits == 0


def test_salvage_job_shards_and_matches_salvage_analyze(tmp_path, traces):
    baseline = api.analyze(traces["torn"], integrity="salvage")
    with service(tmp_path, shard_pairs=1) as svc:
        job_id = svc.submit(traces["torn"], integrity="salvage")
        result = svc.result(job_id, timeout=60)
        status = svc.status(job_id)
    surviving = baseline.stats.concurrent_pairs - baseline.stats.pairs_pruned
    assert status["shards_total"] == surviving > 1
    assert result.races.to_json() == baseline.races.to_json()
    assert result.integrity.to_json() == baseline.integrity.to_json()
    assert counters(result.stats) == counters(baseline.stats)
    assert status["pairs_pruned"] == baseline.stats.pairs_pruned > 0


@pytest.mark.parametrize("mode", ["serial", "streaming", "parallel", "service"])
def test_every_pair_is_decided_exactly_once(
    tmp_path, traces, compares, monkeypatch, mode
):
    """pruned + cache hits + compared == concurrent pairs, cold and warm."""
    monkeypatch.setattr(
        "repro.serve.pool.ProcessPoolExecutor", ThreadPoolExecutor
    )
    trace = traces["hpccg"]
    pairs, pruned = PLANNED["hpccg"]
    with ExitStack() as stack:
        if mode == "service":
            svc = stack.enter_context(
                service(tmp_path, cache_dir=str(tmp_path / "cache"))
            )

            def analyze():
                return svc.result(svc.submit(trace), timeout=60)
        else:
            options = cached(tmp_path / "cache").copy(workers=2)

            def analyze():
                return api.analyze(trace, mode=mode, options=options)

        for hits in (0, pairs - pruned):  # cold, then warm
            del compares[:]
            stats = analyze().stats
            assert stats.concurrent_pairs == pairs
            assert stats.pairs_pruned == pruned
            assert stats.pair_cache_hits == hits
            assert len(compares) == pairs - pruned - hits


# -- zero-shard jobs finish at plan time -------------------------------------------


@pytest.mark.parametrize("use_processes", [False, True])
def test_zero_shard_jobs_finish_at_plan_time(tmp_path, traces, use_processes):
    """Regression: the empty-plan branch finalized under ``job.lock``,
    which ``_finalize`` takes again -- the scheduler thread, and with it
    the service, wedged on the first trace with no concurrent pair."""
    state = tmp_path / "state"
    with service(
        tmp_path, use_processes=use_processes, state_dir=str(state)
    ) as svc:
        for label in ("solo", "lulesh", "wshift"):
            job_id = svc.submit(traces[label])
            result = svc.result(job_id, timeout=10)
            status = svc.status(job_id)
            baseline = api.analyze(traces[label])
            assert status["state"] == DONE
            assert status["shards_total"] == status["pairs_shipped"] == 0
            assert status["elapsed_seconds"] < 1.0  # no worker involved
            assert result.races.to_json() == baseline.races.to_json()
            assert result.stats.races_found == len(baseline.races)
            assert counters(result.stats) == counters(baseline.stats)
        # The scheduler thread survived: a job with real shards follows.
        follow_up = svc.submit(traces["qsomp"])
        assert len(svc.result(follow_up, timeout=60).races) == 8
        assert svc.stats()["jobs_finished"] == 4
    # The WAL tells the same story in order: planned (no shards) before
    # merged before finalized.
    records = parse_journal((state / WAL_NAME).read_text(), salvage=True)
    first = [r for r in records if r["job"] == "job-000001"]
    assert [r["kind"] for r in first] == [
        "submitted", "planned", "merged", "finalized",
    ]
    assert first[1]["shards"] == 0 and "tokens" not in first[1]
    lulesh = next(
        r for r in records if r["job"] == "job-000002" and r["kind"] == "planned"
    )
    assert (lulesh["pairs"], lulesh["pruned"]) == PLANNED["lulesh"]


def test_cancel_during_an_all_pruned_plan_is_honoured(tmp_path, traces):
    with service(tmp_path) as svc:
        plan_job = svc.scheduler._plan

        def cancel_then_plan(job):
            svc.cancel(job.job_id)
            return plan_job(job)

        svc.scheduler._plan = cancel_then_plan
        job_id = svc.submit(traces["lulesh"])
        with pytest.raises(JobFailedError):
            svc.result(job_id, timeout=10)
        assert svc.status(job_id)["state"] == "cancelled"


# -- the plan is a pure function of trace bytes + options --------------------------


def test_resume_at_the_planned_boundary_replans_the_same_tokens(
    tmp_path, traces, compares
):
    """The resumed job re-plans the same shards, whose pairs address the
    same result-cache tokens: every pair the first run decided replays."""
    state = tmp_path / "state"
    config = dict(state_dir=str(state), shard_pairs=8)
    with service(tmp_path, **config) as svc:
        job_id = svc.submit(traces["hpccg"])
        reference = svc.result(job_id, timeout=60).races.to_json()
    # Kill right after the plan was logged; the cache keeps every entry.
    wal = state / WAL_NAME
    kept = []
    for line in wal.read_text().splitlines(keepends=True):
        kept.append(line)
        if parse_journal(line, salvage=True)[0]["kind"] == "planned":
            break
    wal.write_text("".join(kept))
    before = replay_wal(wal).jobs[job_id]
    pairs, pruned = PLANNED["hpccg"]
    assert before.shards_total == -(-(pairs - pruned) // 8)
    assert not before.shards_done
    del compares[:]
    with service(tmp_path, **config) as svc:
        result = svc.result(job_id, timeout=60)
        status = svc.status(job_id)
    assert result.races.to_json() == reference
    assert status["resumed"] and status["shards_total"] == before.shards_total
    assert result.stats.pair_cache_hits == pairs - pruned
    assert not compares and result.stats.trees_built == 0
    planned = [
        r
        for r in parse_journal(wal.read_text(), salvage=True)
        if r["kind"] == "planned"
    ]
    assert len(planned) == 2
    for key in ("shards", "pairs", "pruned"):
        assert planned[0][key] == planned[1][key]
