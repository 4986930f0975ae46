"""``python -m repro serve`` — boot the analysis service under load.

The subcommand is a self-driving harness: it builds a mixed trace corpus
(clean traces and one damaged trace submitted in salvage mode), boots a
:class:`~repro.serve.service.Service`, drives a sustained
multi-tenant submission burst through it, and reports the fleet
numbers — jobs/sec, p50/p99 time-to-first-race, cross-job cache hits,
and a parity check against single-shot ``repro analyze``.

Exit status follows :mod:`repro.common.exitcodes` with the service
twist: the burst *expects* races (the corpus contains racy workloads),
so ``1`` means races were found and everything held, ``0`` means the
corpus was race-free, and ``2`` means the service itself misbehaved —
parity broke, or every job failed.  A burst where any job completed
DEGRADED (poison shards quarantined, partial pair coverage) also exits
``1``, with ``exit_meaning: "degraded"`` in the JSON payload — the
result set is real but incomplete, which a CI gate must not read as
clean.

``--state-dir`` makes the service durable: the job WAL and the result
cache live there, and a later run pointed at the same directory resumes
unfinished jobs before accepting the new burst (``--watch`` shows
``resumed=``/``resuming=`` while replayed jobs drain).  A resumed job
replays every pair the killed run decided from that cache, so
``--state-dir`` with ``--no-cache`` is refused (exit 2).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .. import obs as obslib
from ..common.errors import ConfigError
from ..common.exitcodes import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_RACES,
    exit_meaning,
)
from ..obs import prometheus_text, write_json
from .config import ServeConfig, TenantQuota
from .loadgen import LoadReport, generate_and_run


def add_serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=2, help="shard pool width")
    p.add_argument(
        "--in-process",
        action="store_true",
        help="thread workers instead of a process pool (fast boot)",
    )
    p.add_argument("--queue-capacity", type=int, default=16)
    p.add_argument(
        "--shard-pairs",
        type=int,
        default=32,
        help="max concurrent pairs per shard (the scheduling grain)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="per-tenant in-flight job quota",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="shared cross-job result cache root (default: a temp dir)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared result cache",
    )
    p.add_argument(
        "--state-dir",
        metavar="DIR",
        help="durable state root (job WAL + result cache); a restart "
        "pointed here resumes unfinished jobs (needs the cache)",
    )
    p.add_argument(
        "--submissions", type=int, default=24, help="jobs in the load burst"
    )
    p.add_argument(
        "--tenants", type=int, default=3, help="tenant ids to spread load over"
    )
    p.add_argument(
        "--threads", type=int, default=4, help="threads per collected trace"
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        help="collect the trace corpus here (default: a temp dir)",
    )
    p.add_argument(
        "--keep-corpus",
        action="store_true",
        help="leave the collected corpus on disk",
    )
    p.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the byte-identical check against single-shot analyze",
    )
    p.add_argument(
        "--report",
        metavar="PATH",
        help="write the load report JSON artifact",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="print a live service stats line at this interval",
    )
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="write one stitched Chrome trace JSON per job here "
        "(plus the journal slice for failed jobs)",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the service metrics snapshot (JSON; .prom for "
        "Prometheus text exposition)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="dump the service flight-recorder ring as JSONL after the burst",
    )


def serve_exit_code(report: LoadReport) -> int:
    if not report.parity_ok:
        return EXIT_ERROR
    if report.jobs_finished == 0 and report.jobs_submitted > 0:
        return EXIT_ERROR
    if report.jobs_degraded:
        # Partial coverage is never "clean", even if no race surfaced.
        return EXIT_RACES
    races = sum(f.get("races", 0) for f in report.flavors.values())
    return EXIT_RACES if races else EXIT_CLEAN


def serve_exit_verdict(report: LoadReport) -> tuple[int, str]:
    """Exit code plus its meaning string for the JSON payload.

    Degradation dominates the meaning: an exit-1 burst with quarantined
    shards reports ``"degraded"`` rather than ``"races found"`` so a
    consumer can tell "found races over full coverage" from "finished
    with holes".
    """
    code = serve_exit_code(report)
    if code == EXIT_RACES and report.jobs_degraded:
        return code, "degraded"
    return code, exit_meaning(code)


def _fmt_seconds(value) -> str:
    return f"{value * 1000:.1f}ms" if value is not None else "-"


def _serve_obs(args: argparse.Namespace) -> "obslib.Instrumentation":
    """A live bundle when any observability output was requested."""
    if (
        args.json
        or args.metrics
        or args.trace_dir
        or args.journal
        or args.watch is not None
    ):
        return obslib.live()
    return obslib.get_obs()


def run_serve_command(args: argparse.Namespace) -> int:
    obs = _serve_obs(args)
    config = ServeConfig(
        workers=args.workers,
        use_processes=not args.in_process,
        queue_capacity=args.queue_capacity,
        quota=TenantQuota(max_pending=args.max_pending),
        shard_pairs=args.shard_pairs,
        result_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        trace_dir=args.trace_dir,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = generate_and_run(
        config=config,
        submissions=args.submissions,
        tenants=args.tenants,
        nthreads=args.threads,
        corpus_dir=args.corpus,
        keep_corpus=args.keep_corpus,
        check_parity=not args.no_parity,
        obs=obs,
        watch_every=None if args.json else args.watch,
    )
    if args.metrics:
        if args.metrics.endswith(".prom"):
            Path(args.metrics).write_text(
                prometheus_text(obs.registry.snapshot())
            )
        else:
            write_json(obs.registry.snapshot(), args.metrics)
    if args.journal:
        Path(args.journal).write_text(obs.journal.to_jsonl())
    code, meaning = serve_exit_verdict(report)
    payload = report.to_json()
    payload["exit_code"] = code
    payload["exit_meaning"] = meaning
    if args.report:
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
    if args.json:
        from .. import api

        payload["schema_version"] = api.JSON_SCHEMA_VERSION
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    print(
        f"serve: {report.jobs_finished}/{report.jobs_submitted} jobs in "
        f"{report.elapsed_seconds:.2f}s = {report.jobs_per_second:.1f} jobs/s "
        f"(workers={config.workers}, "
        f"{'processes' if config.use_processes else 'threads'})"
    )
    print(
        f"ttfr: p50={_fmt_seconds(report.ttfr_p50)} "
        f"p99={_fmt_seconds(report.ttfr_p99)} over "
        f"{len(report.ttfr_seconds)} racy job(s)"
    )
    print(
        f"cache: {report.cache_hits} cross-job hit(s); "
        f"steals: {report.shard_steals}; "
        f"rejected: {report.rejected_quota} quota, "
        f"{report.rejected_backpressure} backpressure"
    )
    print(
        f"pairs: {report.pairs_planned} planned, "
        f"{report.pairs_pruned} pruned, "
        f"{report.pairs_shipped} shipped to shards"
    )
    for flavor, counts in sorted(report.flavors.items()):
        print(
            f"  {flavor}: {counts['finished']} job(s), "
            f"{counts['races']} race report(s)"
        )
    for tenant, slo in sorted(report.service_stats.get("tenants", {}).items()):
        print(
            f"  {tenant}: {slo['finished']}/{slo['submitted']} job(s), "
            f"ttfr p50={_fmt_seconds(slo['ttfr_p50_seconds'])} "
            f"p99={_fmt_seconds(slo['ttfr_p99_seconds'])}, "
            f"queue p50={_fmt_seconds(slo['queue_wait_p50_seconds'])}"
        )
    journal = report.service_stats.get("journal") or {}
    if journal:
        print(
            f"journal: {journal['recorded']} event(s) recorded, "
            f"{journal['retained']} retained, {journal['dropped']} dropped"
        )
    if not args.no_parity:
        verdict = "byte-identical" if report.parity_ok else "MISMATCH"
        print(
            f"parity vs single-shot analyze: {verdict} "
            f"({report.parity_checked} job(s) checked)"
        )
    if report.jobs_degraded:
        print(
            f"degraded jobs: {report.jobs_degraded} "
            f"(quarantined shards; races cover surviving pairs only)"
        )
    resumed = report.service_stats.get("jobs_resumed", 0)
    if resumed:
        print(f"resumed jobs: {resumed} replayed from the WAL")
    if report.jobs_failed:
        print(f"failed jobs: {report.jobs_failed}")
    return code
