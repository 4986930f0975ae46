"""Service throughput benchmark: sustained mixed load through `repro serve`.

Boots the fleet-tier analysis service (DESIGN.md §3.7) and drives a
multi-tenant burst from the standard mixed corpus — clean traces and one
torn trace submitted in salvage mode — measuring what the service is
judged on in production:

* **jobs/sec** — terminal jobs over the wall time of the burst;
* **p50/p99 time-to-first-race** — submission (queue wait included) to
  the first race merged at the coordinator;
* **parity** — every job's race set byte-identical to single-shot
  ``repro.api.analyze`` of the same trace;
* **cross-job cache hits** — shards served from the shared
  content-hashed result cache instead of recomputed (> 0 is the
  acceptance bar: repeat submissions of the same trace must dedup).

The pool runs thread workers (``use_processes=False``) so the number
isolates scheduler + shard machinery rather than process-boot cost; the
CI ``serve-smoke`` job exercises the process-pool path separately.
"""

import shutil
import tempfile

from repro.serve import ServeConfig, TenantQuota
from repro.serve.loadgen import build_corpus, run_load
from repro.serve.service import Service

WORKERS = 4
SUBMISSIONS = 24
TENANTS = 3
NTHREADS = 4
MIN_JOBS_PER_SECOND = 0.5  # generous floor; the record is the report


def _fmt_ms(value):
    return f"{value * 1000:.1f}ms" if value is not None else "-"


def test_serve_throughput(benchmark, save_result):
    corpus_root = tempfile.mkdtemp(prefix="bench-serve-corpus-")
    try:
        corpus = build_corpus(corpus_root, nthreads=NTHREADS)

        def run_burst():
            config = ServeConfig(
                workers=WORKERS,
                use_processes=False,
                quota=TenantQuota(max_pending=SUBMISSIONS),
                shard_pairs=16,
            )
            with Service(config) as service:
                return run_load(
                    service,
                    corpus,
                    submissions=SUBMISSIONS,
                    tenants=TENANTS,
                    check_parity=True,
                )

        report = benchmark.pedantic(run_burst, rounds=1, iterations=1)

        lines = [
            "Serve throughput "
            f"({WORKERS} thread workers, {SUBMISSIONS} submissions, "
            f"{TENANTS} tenants, corpus of {len(corpus)}):",
            f"  jobs:      {report.jobs_finished}/{report.jobs_submitted} "
            f"finished in {report.elapsed_seconds:.2f}s = "
            f"{report.jobs_per_second:.1f} jobs/s",
            f"  ttfr:      p50={_fmt_ms(report.ttfr_p50)} "
            f"p99={_fmt_ms(report.ttfr_p99)} "
            f"over {len(report.ttfr_seconds)} racy job(s)",
            f"  pairs:     {report.pairs_planned} planned, "
            f"{report.pairs_pruned} pruned, "
            f"{report.pairs_shipped} shipped to shards",
            f"  cache:     {report.cache_hits} cross-job hit(s)",
            f"  steals:    {report.shard_steals}",
            f"  parity:    "
            f"{'byte-identical' if report.parity_ok else 'MISMATCH'} "
            f"({report.parity_checked} job(s) checked)",
        ]
        for flavor, counts in sorted(report.flavors.items()):
            lines.append(
                f"  {flavor + ':':10} {counts['finished']} job(s), "
                f"{counts['races']} race report(s)"
            )
        save_result("serve_throughput", "\n".join(lines))

        # Correctness before speed.
        assert report.parity_ok, "merged race sets diverged from single-shot"
        assert report.jobs_finished == SUBMISSIONS
        assert report.jobs_failed == 0
        # The corpus repeats within the burst, so the shared cache must
        # serve repeat shards — the cross-job dedup acceptance bar.
        assert report.cache_hits > 0
        # Salvage jobs went through the service, not around it.
        assert report.flavors.get("salvage", {}).get("finished", 0) > 0
        assert report.ttfr_p99 is not None

        assert report.jobs_per_second >= MIN_JOBS_PER_SECOND, (
            f"service managed only {report.jobs_per_second:.2f} jobs/s "
            f"(floor {MIN_JOBS_PER_SECOND})"
        )
    finally:
        shutil.rmtree(corpus_root, ignore_errors=True)
