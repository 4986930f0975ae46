"""Service observability overhead: traced vs. dark shard execution.

The tracing tentpole promises the service tier can run with full
telemetry — per-shard worker bundles recording spans and metric deltas,
the flight recorder, per-tenant histograms — at production cost:
<= 5% throughput loss against the same work run dark (ambient
``NULL_OBS``, where shards carry no ObsConfig and every signal is a
no-op).

The gate measures where service time actually goes: :func:`run_shard`
over every shard of the full mixed corpus (clean and salvage), executed
serially so the comparison is deterministic.
End-to-end burst wall times on a shared CI box bounce +-20% run to run
from scheduler and GIL noise — far above the 5% signal — so the burst
is reported for context (jobs/s, table row) but bounded only loosely
against catastrophic regression.  Both measurements interleave their
repeats (dark, traced, dark, ...) and keep the minimum, the least
noisy location statistic for a single-process workload.

Two assertions guard the shard row.  The relative one states the
headline promise (<= 5%, with an absolute cushion because the corpus
shards are ~1.5 ms micro-jobs where per-span costs cannot amortize the
way they do against production-sized shards).  The absolute one is the
noise-robust gate: telemetry's per-shard cost — spans, metric deltas,
the end-of-shard snapshot — must stay within a fixed budget, which a
hot-path regression trips regardless of what the box's scheduler is
doing to the baseline that day.
"""

import tempfile
import time
from pathlib import Path

from repro.harness.tables import Table
from repro.obs import live
from repro.offline.options import AnalysisOptions
from repro.serve import ObsConfig, ServeConfig, Service
from repro.serve.loadgen import build_corpus, run_load
from repro.serve.shards import plan_shards
from repro.serve.workers import run_shard

REPEATS = 7
SUBMISSIONS = 12
TARGET_OVERHEAD = 0.05  # the headline promise: <= 5% with telemetry on
ABS_SLACK_SECONDS = 0.01  # per-suite cushion against timer noise
PER_SHARD_BUDGET_SECONDS = 0.001  # absolute telemetry cost per shard
BURST_SANITY_FACTOR = 1.5  # end-to-end smoke bound (noise >> 5% here)


def _corpus_shards(corpus, obs_config):
    shards = []
    for entry in corpus:
        plan = plan_shards(
            entry.path,
            job_id=f"bench-{entry.flavor}",
            options=AnalysisOptions(integrity=entry.integrity),
            shard_pairs=8,
            min_shards=2,
            cache_dir=None,
            tenant="bench",
            trace_id="ab" * 16,
            obs_config=obs_config,
        )
        shards.extend(plan.shards)
    return shards


def _time_shards(shards) -> float:
    t0 = time.perf_counter()
    for spec in shards:
        run_shard(spec)
    return time.perf_counter() - t0


def _one_burst(corpus, obs) -> float:
    config = ServeConfig(
        workers=2, use_processes=False, shard_pairs=8, result_cache=False
    )
    t0 = time.perf_counter()
    with Service(config, obs=obs) as service:
        report = run_load(
            service,
            corpus,
            submissions=SUBMISSIONS,
            tenants=3,
            check_parity=False,
        )
    assert report.jobs_finished == SUBMISSIONS
    return time.perf_counter() - t0


def test_serve_obs_overhead(benchmark, save_result):
    def run_suite():
        with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as root:
            corpus = build_corpus(Path(root), nthreads=4, seeds=(0,))
            dark_shards = _corpus_shards(corpus, None)
            traced_shards = _corpus_shards(
                corpus, ObsConfig.from_obs(live())
            )
            for spec in dark_shards + traced_shards:  # warm-up
                run_shard(spec)
            dark = traced = float("inf")
            for _ in range(REPEATS):
                dark = min(dark, _time_shards(dark_shards))
                traced = min(traced, _time_shards(traced_shards))
            _one_burst(corpus, None)  # warm the service stack
            burst_dark = burst_traced = float("inf")
            for _ in range(3):
                burst_dark = min(burst_dark, _one_burst(corpus, None))
                burst_traced = min(burst_traced, _one_burst(corpus, live()))
        return len(dark_shards), dark, traced, burst_dark, burst_traced

    nshards, dark, traced, burst_dark, burst_traced = benchmark.pedantic(
        run_suite, rounds=1, iterations=1
    )
    overhead = traced / dark - 1.0
    per_shard = (traced - dark) / nshards
    table = Table(
        "Service observability overhead (traced vs. dark)",
        ["measurement", "dark (s)", "traced (s)", "overhead"],
    )
    table.add(
        f"shard execution ({nshards} shards)",
        f"{dark:.4f}", f"{traced:.4f}", f"{overhead:+.1%}",
    )
    table.add(
        f"service burst ({SUBMISSIONS} jobs)",
        f"{burst_dark:.4f}", f"{burst_traced:.4f}",
        f"{burst_traced / burst_dark - 1.0:+.1%}",
    )
    table.note(
        f"interleaved min of {REPEATS} repeats; telemetry adds "
        f"{per_shard * 1e3:.3f} ms per shard (budget "
        f"{PER_SHARD_BUDGET_SECONDS * 1e3:.1f} ms).  The corpus shards "
        f"are sub-2ms micro-jobs, so the relative column overstates "
        f"production overhead; the per-shard absolute is the stable "
        f"gate.  Burst row is informational — scheduler noise swamps "
        f"{TARGET_OVERHEAD:.0%} at that scale."
    )
    save_result("serve_obs_overhead", table.render())

    # The headline gate: <= 5% plus an absolute cushion, because the
    # corpus shards finish in ~1.5 ms each and a 5% relative bound at
    # that scale is below this box's run-to-run timer noise.
    assert traced <= dark * (1.0 + TARGET_OVERHEAD) + ABS_SLACK_SECONDS, (
        f"per-shard telemetry overhead {overhead:+.1%} exceeds "
        f"{TARGET_OVERHEAD:.0%}"
    )
    # The stable signal at micro-shard scale: the absolute telemetry
    # cost per shard (spans + metric deltas + snapshot) stays bounded.
    # A hot-path regression (say, spans growing 10x dearer) trips this
    # long before it shows over the machine noise in the ratio above.
    assert per_shard <= PER_SHARD_BUDGET_SECONDS, (
        f"telemetry costs {per_shard * 1e3:.3f} ms per shard, over the "
        f"{PER_SHARD_BUDGET_SECONDS * 1e3:.1f} ms budget"
    )
    # The smoke bound: a traced burst must never cost multiples of dark.
    assert burst_traced <= burst_dark * BURST_SANITY_FACTOR + 0.1, (
        f"traced burst {burst_traced:.3f}s vs dark {burst_dark:.3f}s — "
        f"beyond scheduler noise; telemetry likely regressed"
    )
