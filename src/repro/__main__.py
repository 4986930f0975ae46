"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-workloads [--suite S]``      — show the benchmark registry;
* ``check <workload> [options]``      — run one workload under a tool and
  print race reports and overheads;
* ``watch <workload> [options]``      — run one workload with the streaming
  analyzer attached, printing races as they are confirmed mid-run;
* ``experiment <id> [--fast]``        — regenerate one paper table/figure
  (E1..E10, see DESIGN.md);
* ``analyze <trace-dir> [--mode M]``  — offline-analyze an existing
  SWORD trace directory (``--salvage`` recovers what it can from a
  corrupt or truncated trace and reports the loss);
* ``faults inject|sweep``             — deterministic fault injection:
  mutate a trace from a seeded plan, or run the kill-point sweep that
  proves salvage analysis completes at every truncation point;
* ``serve [options]``                 — boot the fleet analysis service
  and drive a load-generator burst through it (jobs/sec, p99
  time-to-first-race, cross-job cache hits, parity check).

Exit codes are uniform (:mod:`repro.common.exitcodes`): ``0`` clean,
``1`` races found, ``2`` error (OOM, torn trace in strict mode, sweep
property violation).  ``--json`` payloads repeat the code under
``"exit_code"``/``"exit_meaning"``.

Every subcommand routes through :mod:`repro.api` and accepts ``--json``
for a machine-readable report (the shared races/stats schema, versioned
by a top-level ``"schema_version"`` key — see DESIGN.md; runs include
the metrics snapshot under the ``"metrics"`` key).  ``check``,
``watch``, and ``analyze`` additionally take ``--metrics <path>`` (write
the metrics snapshot as JSON, or Prometheus text with a ``.prom``
suffix) and ``--trace-events <path>`` (write a Chrome trace-event file
of the run's nested phases — open it at ``chrome://tracing`` or
https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import api
from . import obs as obslib
from .common.config import SwordConfig
from .common.errors import ReproError
from .common.exitcodes import (
    EXIT_CLEAN,
    EXIT_ERROR,
    exit_meaning,
    race_exit_code,
)
from .harness.tables import fmt_bytes, fmt_seconds
from .harness.tools import TOOL_NAMES
from .obs import prometheus_text, write_json
from .offline.options import AnalysisOptions, FastPathOptions
from .workloads import REGISTRY


def _make_obs(args: argparse.Namespace) -> "obslib.Instrumentation":
    """A live bundle when any machine-readable output was requested;
    the ambient (null by default) bundle otherwise."""
    if (
        args.json
        or args.metrics
        or args.trace_events
        or getattr(args, "stats_every", None) is not None
    ):
        return obslib.live()
    return obslib.get_obs()


def _export_obs(args: argparse.Namespace, obs: "obslib.Instrumentation") -> None:
    """Honour ``--metrics`` / ``--trace-events`` after a run."""
    if args.metrics:
        if args.metrics.endswith(".prom"):
            from pathlib import Path

            Path(args.metrics).write_text(
                prometheus_text(obs.registry.snapshot())
            )
        else:
            write_json(obs.registry.snapshot(), args.metrics)
    if args.trace_events:
        obs.tracer.write_chrome(args.trace_events)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the metrics snapshot (JSON; .prom for Prometheus text)",
    )
    p.add_argument(
        "--trace-events",
        metavar="PATH",
        help="write Chrome trace-event JSON of the run's phases",
    )


def _stats_bytes_inflated(stats: dict | None) -> int:
    """Sum ``bytes_inflated`` over a run's nested per-mode stats dicts."""
    if not isinstance(stats, dict):
        return 0
    total = 0
    for value in stats.values():
        if isinstance(value, dict):
            if "bytes_inflated" in value:
                total += int(value.get("bytes_inflated") or 0)
            else:
                total += _stats_bytes_inflated(value)
    return total


def _print_json(payload: dict, exit_code: int | None = None) -> None:
    payload["schema_version"] = api.JSON_SCHEMA_VERSION
    if exit_code is not None:
        payload["exit_code"] = exit_code
        payload["exit_meaning"] = exit_meaning(exit_code)
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_list_workloads(args: argparse.Namespace) -> int:
    workloads = REGISTRY.suite(args.suite) if args.suite else list(REGISTRY)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": w.name,
                        "suite": w.suite,
                        "racy": w.racy,
                        "seeded_races": w.seeded_races,
                        "archer_misses": w.archer_misses,
                    }
                    for w in workloads
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{'name':30s} {'suite':14s} {'racy':5s} {'seeded':>6s} {'archer misses':>13s}")
    for w in workloads:
        print(
            f"{w.name:30s} {w.suite:14s} {'yes' if w.racy else 'no':5s} "
            f"{w.seeded_races:>6d} {w.archer_misses:>13d}"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    obs = _make_obs(args)
    options = None
    if getattr(args, "salvage", False):
        options = AnalysisOptions(integrity="salvage")
    sword_config = None
    if getattr(args, "no_static", False):
        sword_config = SwordConfig(static_prescreen=False)
    result = api.detect(
        args.workload,
        tool=args.tool,
        nthreads=args.threads,
        seed=args.seed,
        obs=obs,
        options=options,
        sword_config=sword_config,
    )
    _export_obs(args, obs)
    if args.json:
        payload = {
            "workload": result.workload,
            "tool": result.tool,
            "nthreads": result.nthreads,
            "oom": result.oom,
            "races": (
                result.races.to_json()
                if result.races is not None
                else None
            ),
            "dynamic_seconds": result.dynamic_seconds,
            "offline_seconds": result.offline_seconds,
            "app_bytes": result.app_bytes,
            "tool_bytes": result.tool_bytes,
            "stats": result.stats,
            "bytes_inflated": _stats_bytes_inflated(result.stats),
            "metrics": result.metrics,
        }
        if result.integrity is not None:
            payload["integrity"] = result.integrity.to_json()
        code = (
            EXIT_ERROR if result.oom else race_exit_code(result.race_count)
        )
        _print_json(payload, exit_code=code)
        return code
    if result.oom:
        print(f"{args.tool} ran OUT OF MEMORY on the simulated node")
        return EXIT_ERROR
    print(
        f"tool={args.tool} threads={args.threads} "
        f"dynamic={fmt_seconds(result.dynamic_seconds)} "
        f"offline={fmt_seconds(result.offline_seconds)} "
        f"app={fmt_bytes(result.app_bytes)} tool-mem={fmt_bytes(result.tool_bytes)}"
    )
    if result.races is None:
        print("(baseline: race checking disabled)")
        return EXIT_CLEAN
    if result.integrity is not None:
        print(result.integrity.summary())
    print(f"races: {result.race_count}")
    for race in result.races:
        print(" ", race.describe())
    return race_exit_code(result.race_count)


def cmd_watch(args: argparse.Namespace) -> int:
    obs = _make_obs(args)

    def live_feed(report) -> None:
        if not args.json:
            print(f"  [live] {report.describe()}", flush=True)

    result = api.watch(
        args.workload,
        nthreads=args.threads,
        seed=args.seed,
        on_race=live_feed,
        obs=obs,
        stats_every=args.stats_every,
        on_stats=(lambda line: None) if args.json else print,
    )
    _export_obs(args, obs)
    if args.json:
        code = (
            EXIT_ERROR if result.oom else race_exit_code(result.race_count)
        )
        payload = result.to_json()
        payload["bytes_inflated"] = _stats_bytes_inflated(payload.get("stats"))
        _print_json(payload, exit_code=code)
        return code
    if result.oom:
        print("watch ran OUT OF MEMORY on the simulated node")
        return EXIT_ERROR
    ttfr = (
        fmt_seconds(result.time_to_first_race)
        if result.time_to_first_race is not None
        else "-"
    )
    print(
        f"watched {result.workload} threads={result.nthreads} "
        f"elapsed={fmt_seconds(result.elapsed_seconds)} "
        f"first-race={ttfr} pairs={result.pairs_analyzed}"
    )
    print(f"races: {result.race_count}")
    for race in result.races:
        print(" ", race.describe())
    return race_exit_code(result.race_count)


def cmd_experiment(args: argparse.Namespace) -> int:
    import repro.harness.experiments as E

    experiments = {
        "E1": E.drb.main,
        "E2": E.ompscr_races.main,
        "E3": E.ompscr_overhead.main,
        "E4": E.ompscr_offline.main,
        "E5": E.hpc_races.main,
        "E6": E.hpc_overhead.main,
        "E7": E.amg_scaling.main,
        "E8": E.hb_masking.main,
        "E9": E.codec_compare.main,
        "E10": E.examples_demo.main,
    }
    main = experiments.get(args.id.upper())
    if main is None:
        print(f"unknown experiment {args.id!r}; known: {sorted(experiments)}")
        return 1
    main()
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    obs = _make_obs(args)
    options = AnalysisOptions(
        workers=args.workers,
        integrity="salvage" if args.salvage else "strict",
        fastpath=FastPathOptions(
            result_cache=bool(args.cache or args.cache_dir),
            cache_dir=args.cache_dir,
        ),
    )
    with obs.tracer.span("analyze", category="run"):
        result = api.analyze(
            args.trace_dir, mode=args.mode, options=options, obs=obs
        )
    _export_obs(args, obs)
    if args.json:
        payload = result.to_json()
        payload["bytes_inflated"] = result.stats.bytes_inflated
        payload["metrics"] = obs.registry.snapshot()
        code = race_exit_code(result.race_count)
        _print_json(payload, exit_code=code)
        return code
    stats = result.stats
    print(
        f"intervals={stats.intervals} concurrent_pairs={stats.concurrent_pairs} "
        f"trees={stats.trees_built} nodes={stats.tree_nodes} "
        f"time={fmt_seconds(stats.total_seconds)}"
    )
    if result.integrity is not None:
        print(result.integrity.summary())
    print(f"races: {result.race_count}")
    for race in result.races:
        print(" ", race.describe())
    return race_exit_code(result.race_count)


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults.cli import run_faults_command

    return run_faults_command(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SWORD reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-workloads", help="show the benchmark registry")
    p.add_argument("--suite", choices=["dataracebench", "ompscr", "hpc"])
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_list_workloads)

    p = sub.add_parser("check", help="run one workload under one tool")
    p.add_argument("workload")
    p.add_argument("--tool", choices=TOOL_NAMES, default="sword")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate trace damage during the offline phase and report "
        "what was lost (sword only)",
    )
    p.add_argument(
        "--no-static",
        action="store_true",
        help="disable the static pre-screening pass: instrument every "
        "access site instead of eliding PROVEN_FREE ones (sword only)",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "watch", help="run one workload with live streaming race analysis"
    )
    p.add_argument("workload")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--stats-every",
        type=float,
        metavar="SECONDS",
        help="print a live stats line at most this often (needs metrics on)",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("experiment", help="regenerate one paper table/figure")
    p.add_argument("id", help="E1..E10 (see DESIGN.md)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("analyze", help="offline-analyze a trace directory")
    p.add_argument("trace_dir")
    p.add_argument(
        "--mode",
        choices=list(api.ANALYSIS_MODES),
        default="auto",
        help="analysis strategy (auto: parallel when --workers > 1)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--cache",
        action="store_true",
        help="persist pair verdicts next to the trace (a rerun resumes from them)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result-cache location (implies --cache)",
    )
    p.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate trace damage: truncate at torn frames, analyze "
        "what survives, and attach an integrity report",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "serve",
        help="boot the fleet analysis service and drive a load burst",
    )
    from .serve.cli import add_serve_arguments, run_serve_command

    add_serve_arguments(p)
    p.set_defaults(func=lambda a: run_serve_command(a))

    p = sub.add_parser(
        "faults",
        help="fault-injection harness (inject faults into a trace, or "
        "sweep kill points over a workload)",
    )
    from .faults.cli import add_faults_subcommands

    add_faults_subcommands(p)
    p.set_defaults(func=cmd_faults)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Uniform error surface: a torn trace in strict mode, a missing
        # directory, a bad config -- report, don't traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
