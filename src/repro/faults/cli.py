"""``python -m repro faults`` — the fault-injection CLI.

Two subcommands:

* ``inject <trace-dir>`` — apply a seeded
  :class:`~repro.faults.plan.FaultPlan` to an existing trace directory
  (in place; run it on a copy).  Prints the mutations; ``--plan-out``
  saves the plan JSON for replay.
* ``sweep <workload>`` — the kill-anywhere property check: collect a
  clean durable trace, truncate at every frame kill point, and verify
  that salvage analysis completes with a subset race set.  ``--out``
  writes the full report (per-point integrity reports included) as a
  JSON artifact; exit status 2 when any point violates the property
  (sweep failure is an *error*, not a race verdict — see
  :mod:`repro.common.exitcodes`).
* ``chaos`` — the service-tier chaos check: the resume sweep (restart
  a durable service at every WAL boundary with only the result-cache
  entries the WAL proves durable, require byte-identical completion
  with no pair of a logged-done shard compared again) plus the
  poison-shard degradation scenario.  ``--out DIR`` writes the WAL,
  its parsed records (schema-validated against
  ``schemas/wal-record.schema.json``), and both reports as artifacts;
  exit status 2 when either property is violated.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from ..common.exitcodes import EXIT_CLEAN, EXIT_ERROR, exit_meaning
from .harness import kill_sweep
from .plan import FaultPlan


def add_faults_subcommands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="faults_command", required=True)

    p = sub.add_parser(
        "inject", help="apply a seeded fault plan to a trace directory"
    )
    p.add_argument("trace_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--actions", type=int, default=3, help="mutations to generate"
    )
    p.add_argument(
        "--plan-out", metavar="PATH", help="save the applied plan as JSON"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "sweep",
        help="kill-point sweep: verify salvage analysis at every truncation",
    )
    p.add_argument("workload", nargs="?", default="antidep1-orig-yes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument(
        "--buffer-events",
        type=int,
        default=64,
        help="small buffers -> many frames -> many kill points",
    )
    p.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="subsample the kill points evenly (smoke runs)",
    )
    p.add_argument(
        "--out", metavar="PATH", help="write the sweep report JSON artifact"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "chaos",
        help="service chaos: WAL resume sweep + poison-shard degradation",
    )
    p.add_argument("workload", nargs="?", default="plusplus-orig-yes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads",
        type=int,
        default=4,
        help="threads per trace; the poison scenario needs >= 2 shards "
        "to survive the plan-time prune (the default workload has 1 at 2)",
    )
    p.add_argument(
        "--jobs", type=int, default=2, help="submissions in the reference run"
    )
    p.add_argument(
        "--shard-pairs",
        type=int,
        default=8,
        help="small shards -> many WAL boundaries to restart at",
    )
    p.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="subsample the restart points evenly (smoke runs)",
    )
    p.add_argument(
        "--out",
        metavar="DIR",
        help="artifact directory: WAL, parsed records, both reports",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _cmd_inject(args: argparse.Namespace) -> int:
    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"not a trace directory: {trace_dir}")
        return EXIT_ERROR
    plan = FaultPlan.random(trace_dir, seed=args.seed, actions=args.actions)
    applied = plan.apply(trace_dir)
    if args.plan_out:
        Path(args.plan_out).write_text(json.dumps(plan.to_json(), indent=2))
    if args.json:
        payload = plan.to_json()
        payload["exit_code"] = EXIT_CLEAN
        payload["exit_meaning"] = exit_meaning(EXIT_CLEAN)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_CLEAN
    if not applied:
        print("no applicable faults (empty trace?)")
        return 0
    for line in applied:
        print(f"injected: {line}")
    print(
        f"{len(applied)} fault(s) applied (seed {args.seed}); analyze with "
        f"--salvage to see the integrity report"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = kill_sweep(
        args.workload,
        nthreads=args.threads,
        seed=args.seed,
        buffer_events=args.buffer_events,
        max_points=args.max_points,
    )
    code = EXIT_CLEAN if result.ok else EXIT_ERROR
    payload = result.to_json()
    payload["exit_code"] = code
    payload["exit_meaning"] = exit_meaning(code)
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.summary())
        for point in result.failures:
            print(
                f"  FAILED {point.point.describe()}: "
                f"{point.error or 'race set not a subset'}"
            )
    return code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..obs.schema import validate
    from ..serve.wal import WAL_NAME, replay_wal
    from ..sword.traceformat import parse_journal
    from .chaos import poison_degradation, resume_sweep

    sweep = resume_sweep(
        args.workload,
        jobs=args.jobs,
        nthreads=args.threads,
        seed=args.seed,
        shard_pairs=args.shard_pairs,
        max_points=args.max_points,
    )
    # Keep the poison run's root so its WAL survives as an artifact.
    poison_root = Path(tempfile.mkdtemp(prefix="sword-chaos-artifacts-"))
    schema_errors: list[str] = []
    try:
        scenario = poison_degradation(
            args.workload,
            nthreads=args.threads,
            seed=args.seed,
            shard_pairs=max(2, args.shard_pairs // 2),
            keep_root=poison_root,
        )
        wal_src = poison_root / "poison-state" / WAL_NAME
        records = []
        if wal_src.exists():
            records = parse_journal(
                wal_src.read_text(encoding="utf-8"), salvage=True
            )
            schema_path = (
                Path(__file__).resolve().parents[3]
                / "schemas"
                / "wal-record.schema.json"
            )
            if schema_path.exists():
                schema_errors = validate(
                    records, json.loads(schema_path.read_text())
                )
        else:
            schema_errors = [f"poison run left no WAL at {wal_src}"]
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            if wal_src.exists():
                shutil.copy2(wal_src, out / WAL_NAME)
            (out / "wal-records.json").write_text(
                json.dumps(records, indent=2, sort_keys=True)
            )
            (out / "resume-sweep.json").write_text(
                json.dumps(sweep.to_json(), indent=2, sort_keys=True)
            )
            (out / "degradation-report.json").write_text(
                json.dumps(scenario.to_json(), indent=2, sort_keys=True)
            )
    finally:
        shutil.rmtree(poison_root, ignore_errors=True)
    ok = sweep.ok and scenario.ok and not schema_errors
    code = EXIT_CLEAN if ok else EXIT_ERROR
    if args.json:
        payload = {
            "resume_sweep": sweep.to_json(),
            "degradation": scenario.to_json(),
            "wal_schema_errors": schema_errors,
            "exit_code": code,
            "exit_meaning": exit_meaning(code),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(sweep.summary())
        for point in sweep.failures:
            print(
                f"  FAILED restart@{point.records}"
                f"{'+torn' if point.torn else ''}: "
                f"{point.error or 'parity/reuse violated'}"
            )
        print(scenario.summary())
        if scenario.error:
            print(f"  ERROR {scenario.error}")
        for err in schema_errors:
            print(f"  WAL SCHEMA {err}")
    return code


def run_faults_command(args: argparse.Namespace) -> int:
    if args.faults_command == "inject":
        return _cmd_inject(args)
    if args.faults_command == "sweep":
        return _cmd_sweep(args)
    if args.faults_command == "chaos":
        return _cmd_chaos(args)
    raise ValueError(f"unknown faults command {args.faults_command!r}")
