"""One benchmark for the whole pipeline.

From the repository root::

    python3 benchmarks/bench/run.py                # every workload, both runs
    python3 benchmarks/bench/run.py --workload solve_heavy --seed 1
    python3 benchmarks/bench/run.py --workload serve_mixed --seed 3 \\
        --seconds 20 --trace 0                     # one run, JSON last line

(``PYTHONPATH=src python -m benchmarks.bench.run`` is the same program.)

Each run of a workload happens in a fresh child process — its own
interpreter, affinity and ``ru_maxrss``.  An untraced run (``--trace 0``)
yields the end-to-end metrics, a traced run (``--trace 1``) the per-layer
ones; with ``--trace`` left out both are made and written to one result
file.  Metric names, units and bounds are declared once, in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.bench.measure import per_round  # noqa: E402
from benchmarks.bench.workloads import WORKLOADS  # noqa: E402

#: Fresh processes whose set-up time is sampled in one untraced run.
SETUP_RUNS = 5
#: A child that has not finished by then is killed (contract: 180 s).
CHILD_TIMEOUT_S = 170


# -- child --------------------------------------------------------------------


def child_main(args) -> int:
    """Set up, measure one workload once, print one JSON line."""
    from benchmarks.bench import measure

    spec = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    ctx = measure.setup(spec, args.seed, args.smoke, scratch)
    setup_s = time.time() - args.t0
    if args.setup_only:
        measure.teardown(ctx)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        from benchmarks.bench.traced import traced_run

        metrics, tally, rec = traced_run(ctx, args.seed, args.seconds)
        if args.trace_out:
            out = Path(args.trace_out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{spec.name}.trace.json").write_text(
                json.dumps(rec.chrome_trace())
            )
    else:
        metrics, tally = measure.untraced_run(ctx, args.seed, args.seconds)
    import numpy

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "metrics": metrics,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "verdicts": tally.verdicts,
                "verdicts_ok": tally.verdicts_ok,
                "env": {
                    "numpy": numpy.__version__,
                    "affinity": {
                        "pinned_phases": [ctx.pin_cpu],
                        "unpinned_phases": sorted(ctx.all_cpus),
                        "pinned_workload": spec.pinned,
                    },
                },
            }
        )
    )
    return 0


# -- parent -------------------------------------------------------------------


def spawn(args, workload: str, trace: int, scratch: Path, setup_only: bool):
    """Run one child to completion; returns its parsed last stdout line."""
    scratch.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scratch", str(scratch),
        "--t0", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if args.trace_out:
        command += ["--trace-out", str(Path(args.trace_out).resolve())]
    # Everything the program writes to "temporary" files (the service's
    # result cache, trace directories) stays inside the checkout.
    env = dict(os.environ, TMPDIR=str(scratch))
    # Its own process group, so that the service's worker processes can
    # be stopped with it whatever happens to the child.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"benchmark child for {workload} exceeded {CHILD_TIMEOUT_S} s"
        )
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already ended
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if child.returncode != 0:
        raise SystemExit(
            f"benchmark child for {workload} exited {child.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(args, workload: str, trace: int) -> dict:
    """One run of one workload: the contract's unit of measurement."""
    tmp = Path.cwd() / ".bench_tmp"
    base = tmp / f"{workload}-{os.getpid()}"
    try:
        setups = []
        if not trace:
            # Set-up is sampled in fresh processes of its own: imports
            # happen once per interpreter, so one child cannot repeat it.
            for i in range(0 if args.smoke else SETUP_RUNS - 1):
                setups.append(
                    spawn(args, workload, trace, base / f"setup{i}", True)[
                        "setup_s"
                    ]
                )
        child = spawn(args, workload, trace, base / "run", False)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()
    setups.append(child["setup_s"])
    metrics = child["metrics"]
    if not trace:
        metrics["setup_s"] = per_round(setups, "s")
    correct = (
        child["failed"] == 0 and child["verdicts_ok"] == child["verdicts"]
    )
    return {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "env": child["env"],
    }


def check_names(result: dict, trace: int, bench: dict) -> None:
    """The run must report exactly the metrics BENCHMARK.json declares."""
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, undeclared {sorted(got - want)}"
        )


def print_table(workload: str, trace: int, result: dict) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print(f"\n== {workload}: {kind}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(f"{'metric':<40} {'unit':<8} {'value':>14} {'q1':>12} "
          f"{'q3':>12} {'n':>5}")
    for name, m in result["metrics"].items():
        q1 = f"{m['q1']:.6g}" if m["q1"] is not None else "-"
        q3 = f"{m['q3']:.6g}" if m["q3"] is not None else "-"
        print(f"{name:<40} {m['unit']:<8} {m['value']:>14.6g} {q1:>12} "
              f"{q3:>12} {m['n']:>5}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout.strip() or None


def parent_main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"benchmark refused: {ROOT / 'src' / 'repro'} is missing; run "
            "from a full checkout"
        )
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SystemExit("workloads differ from BENCHMARK.json")
    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
    single_run = args.trace is not None
    if single_run and args.workload is None:
        raise SystemExit("--trace needs --workload")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not single_run and args.trace_out is None:
        args.trace_out = ".bench_out"

    chosen = [args.workload] if args.workload else names
    traces = [args.trace] if single_run else [0, 1]
    results: dict = {}
    ok = True
    for workload in chosen:
        for trace in traces:
            result = run_one(args, workload, trace)
            check_names(result, trace, bench)
            print_table(workload, trace, result)
            ok = ok and result["correct"]
            slot = results.setdefault(workload, {"env": result["env"]})
            slot["per_layer" if trace else "end_to_end"] = {
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }

    if single_run:
        result = results[chosen[0]]["per_layer" if args.trace else "end_to_end"]
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()
                    },
                }
            )
        )
    out = args.out or (None if single_run else ".bench_out/result.json")
    if out is not None:
        document = {
            "schema_version": 1,
            # This benchmark only measures; gains are claimed by later
            # changes as a diff between two of these files.
            "claim": None,
            "env": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "git_commit": git_commit(),
            },
            "workloads": results,
        }
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        if not single_run:
            print(f"\nresult written to {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="make one run only and end with the result as one JSON line",
    )
    parser.add_argument("--trace-out", help="directory for Chrome trace dumps")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one round: checks the harness, measures nothing",
    )
    # The parent re-invokes this file for each child process.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
