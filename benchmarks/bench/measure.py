"""What one benchmark child process does: set up, measure, check verdicts.

One child measures one workload once, either untraced (end-to-end
metrics) or traced (per-layer metrics).  Every layer is measured from
outside, by timing calls into its public functions; nothing under
``src/`` knows the benchmark exists.

A timed phase keeps only scalars and the canonical race JSON: results
are released and ``gc.collect()`` runs before the next timed phase.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .spans import SpanRecorder
from .workloads import NTHREADS, Program, ServeLoad, Spec

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


# -- small statistics ---------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def per_round(values: list[float], unit: str, pick=statistics.median) -> dict:
    """A metric with one sample per round.

    Timings and rates report their *best* round (``pick`` is ``min`` or
    ``max``), not the median: on the 2-vCPU box this was written on the
    same code runs up to 1.6x slower for seconds at a time while CPU
    time tracks wall time, so the noise is one-sided and the best round
    repeats across runs two to three times closer than the median one
    (README.md has the numbers).  Quartiles describe all rounds.
    """
    q1, q3 = quartiles(values)
    return {
        "value": pick(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "samples": values,
    }


def single(value: float, unit: str, n: int = 1) -> dict:
    """A metric measured once per run (``n`` operations went into it)."""
    return {"value": value, "unit": unit, "n": n, "q1": None, "q3": None}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_round(latencies: list[float], wall_s: float) -> dict:
    """One round's job rate and p80 latency."""
    return {
        "jobs_per_s": ratio(len(latencies), wall_s),
        "job_latency_p80_ms": 1e3 * percentile(latencies, 0.80),
    }


# -- operation and verdict accounting -----------------------------------------


@dataclass
class Tally:
    """Counts operations attempted/failed and verdicts checked/right."""

    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    verdicts_ok: int = 0
    #: The service loop's clients count from two threads.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def run(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure.

        This is the boundary that must keep running: the traceback goes
        to stderr and the run ends with a non-zero exit code.
        """
        with self.lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self.lock:
                self.failed += 1
            traceback.print_exc()
            return None

    def verdict(self, ok: bool, what: str) -> None:
        with self.lock:
            self.verdicts += 1
            self.verdicts_ok += bool(ok)
        if not ok:
            print(f"verdict mismatch: {what}", file=sys.stderr)


# -- the corpus ---------------------------------------------------------------


@dataclass
class Entry:
    """One program run of the corpus and where its trace lives."""

    program: Program
    scheduler_seed: int
    path: Path
    #: Canonical single-shot race JSON of the latest serial analysis.
    canonical: str = ""
    #: Latest single-shot serial analysis time (the service's base).
    single_shot_s: float = 0.0


@dataclass
class Context:
    """Everything set-up leaves behind for the measured phases."""

    spec: Spec
    smoke: bool
    scratch: Path
    all_cpus: frozenset
    pin_cpu: int
    entries: list[Entry]
    expected: dict
    #: The paper's N x (B + C) for this run.
    bound_bytes: int
    service: object = None

    @property
    def load(self) -> ServeLoad | None:
        return self.spec.load(self.smoke)

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.pin_cpu})

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.all_cpus)


def race_locations(races) -> list[list[str]]:
    """The race set as sorted source-location pairs (seed-independent)."""
    from repro.common.sourceloc import GLOBAL_PCS

    return sorted(
        sorted((str(GLOBAL_PCS.loc(r.pc_a)), str(GLOBAL_PCS.loc(r.pc_b))))
        for r in races
    )


def canonical_json(races) -> str:
    return json.dumps(races.to_json(), sort_keys=True)


def collect(entry: Entry):
    """Run the program under the SWORD collector into ``entry.path``."""
    from repro.harness.tools import driver
    from repro.workloads import REGISTRY

    shutil.rmtree(entry.path, ignore_errors=True)
    entry.path.mkdir(parents=True)
    return driver("sword").run(
        REGISTRY.get(entry.program.workload),
        nthreads=NTHREADS,
        seed=entry.scheduler_seed,
        trace_dir=str(entry.path),
        keep_trace=True,
        run_offline=False,
        **entry.program.params,
    )


def baseline(entry: Entry):
    from repro.harness.tools import driver
    from repro.workloads import REGISTRY

    return driver("baseline").run(
        REGISTRY.get(entry.program.workload),
        nthreads=NTHREADS,
        seed=entry.scheduler_seed,
        **entry.program.params,
    )


# -- set-up -------------------------------------------------------------------


def setup(spec: Spec, seed: int, smoke: bool, scratch: Path) -> Context:
    """Imports, registry, affinity check, lazy-init warm-up, service boot.

    Everything between child start and the first timed phase: this is
    what ``setup_s`` measures.
    """
    if not hasattr(os, "sched_setaffinity"):
        raise SystemExit(
            "benchmark refused: os.sched_setaffinity is unavailable, and an "
            "unpinned run measures the kernel scheduler, not the program"
        )
    all_cpus = frozenset(os.sched_getaffinity(0))
    pin_cpu = max(all_cpus)
    try:
        os.sched_setaffinity(0, {pin_cpu})
        os.sched_setaffinity(0, all_cpus)
    except OSError as exc:
        raise SystemExit(f"benchmark refused: cannot pin to one CPU: {exc}")

    import repro.api as api
    from repro.common.config import SwordConfig

    config = SwordConfig()
    expected = json.loads((EXPECTED_DIR / f"{spec.name}.json").read_text())
    programs = spec.smoke_programs if smoke else spec.programs
    entries = [
        Entry(p, sched, scratch / f"trace-{p.label}-{sched}")
        for sched in spec.scheduler_seeds(seed, smoke)
        for p in programs
    ]
    ctx = Context(
        spec=spec,
        smoke=smoke,
        scratch=scratch,
        all_cpus=all_cpus,
        pin_cpu=pin_cpu,
        entries=entries,
        expected=expected["programs"],
        bound_bytes=NTHREADS * (config.buffer_bytes + config.aux_bytes),
    )
    # Lazy initialisation (NumPy kernels, codecs, first-use imports)
    # happens once per process; pay it here on the smallest size of
    # each program so the first timed round is like the others.
    warm = [
        Entry(p, 0, scratch / f"warm-{p.label}") for p in spec.smoke_programs
    ]
    for entry in warm:
        collect(entry)
        api.analyze(entry.path, mode="serial")
        api.analyze(entry.path, mode="streaming")
    load = ctx.load
    if load is not None:
        # Boot while unpinned: the worker processes fork on the first
        # submission and inherit this affinity.
        ctx.service = api.Service(
            api.ServeConfig(workers=load.workers, use_processes=True)
        ).start()
        job = ctx.service.submit(warm[0].path)
        ctx.service.result(job, timeout=load.job_timeout_s)
    for entry in warm:
        shutil.rmtree(entry.path, ignore_errors=True)
    return ctx


def teardown(ctx: Context) -> None:
    if ctx.service is not None:
        ctx.service.close()
        ctx.service = None


# -- untraced corpus round ----------------------------------------------------


def analyze_entries(ctx: Context, mode: str, tally: Tally) -> list[float]:
    """Single-shot ``api.analyze`` of every entry; checks each verdict."""
    import repro.api as api

    times = []
    for entry in ctx.entries:
        t0 = time.perf_counter()
        result = tally.run(api.analyze, entry.path, mode=mode)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        label = entry.program.label
        if result is None:
            tally.verdict(False, f"{label} {mode}: analysis failed")
            continue
        canonical = canonical_json(result.races)
        if mode == "serial":
            locations = race_locations(result.races)
            tally.verdict(
                locations == ctx.expected[label],
                f"{label} serial: {locations} != expected",
            )
            entry.canonical = canonical
            entry.single_shot_s = elapsed
        else:
            tally.verdict(
                canonical == entry.canonical,
                f"{label} {mode}: race set differs from serial",
            )
        del result
    return times


def corpus_round(ctx: Context, tally: Tally) -> dict:
    """collect -> analyze(serial) -> analyze(streaming), pinned."""
    ctx.pin()
    try:
        gc.collect()
        collect_s = 0.0
        events = trace_bytes = tool_bytes = 0
        for entry in ctx.entries:
            t0 = time.perf_counter()
            run = tally.run(collect, entry)
            collect_s += time.perf_counter() - t0
            if run is not None:
                events += run.stats["events"]
                trace_bytes += run.trace_bytes
                tool_bytes = max(tool_bytes, run.tool_bytes)
            del run
        gc.collect()
        serial = analyze_entries(ctx, "serial", tally)
        gc.collect()
        streaming = analyze_entries(ctx, "streaming", tally)
    finally:
        ctx.unpin()
    return {
        "collect_s": collect_s,
        "analyze_s": sum(serial),
        "analyze_stream_s": sum(streaming),
        "check_s": collect_s + sum(serial),
        "trace_bytes_per_event": ratio(trace_bytes, events),
        "tool_mem_bound_ratio": ratio(tool_bytes, ctx.bound_bytes),
        "latencies": serial + streaming,
    }


def timed_rounds(ctx: Context, tally: Tally, seconds: float, at_least: int):
    """Rounds until the next one would overrun ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(corpus_round(ctx, tally))
        elapsed = time.perf_counter() - start
        if len(rounds) >= at_least and (
            elapsed + elapsed / len(rounds) > seconds
        ):
            return rounds


# -- the service loop ---------------------------------------------------------


def job_blocks(ctx: Context, seed: int) -> list[list[Entry]]:
    """``repeats`` blocks, each holding every trace once, ``seed``-shuffled.

    Any window of the loop therefore sees the same mix of shapes, and
    every submission after the first block can hit the result cache.
    """
    rng = random.Random(seed)
    blocks = []
    for _ in range(ctx.load.repeats):
        block = list(ctx.entries)
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def serve_loop(
    ctx: Context,
    jobs: list[Entry],
    tally: Tally,
    *,
    seconds: float | None = None,
    at_least: int = 0,
    rec: SpanRecorder | None = None,
) -> dict:
    """Closed loop: each client submits its next job when the last returned.

    Clients stop drawing jobs once ``seconds`` have passed (never before
    ``at_least`` jobs were drawn); jobs in flight then finish.
    """
    from repro.serve.errors import BackpressureError, QuotaExceededError

    load = ctx.load
    service = ctx.service
    lock = threading.Lock()
    cursor = 0
    rejected = 0
    records: list[dict] = []
    start = time.perf_counter()

    def span(name: str, **args):
        return rec.span(name, **args) if rec is not None else nullcontext()

    def one_job(index: int) -> dict:
        nonlocal rejected
        entry = jobs[index]
        with span("serve.job", label=entry.program.label):
            t0 = time.perf_counter()
            try:
                with span("serve.submit"):
                    job_id = service.submit(entry.path)
            except (BackpressureError, QuotaExceededError):
                with lock:
                    rejected += 1
                raise
            t1 = time.perf_counter()
            with span("serve.result"):
                result = service.result(job_id, timeout=load.job_timeout_s)
            t2 = time.perf_counter()
        status = service.status(job_id)
        if status["state"] != "done":
            raise RuntimeError(f"{job_id} ended {status['state']}")
        return {
            "index": index,
            "label": entry.program.label,
            "submit_s": t1 - t0,
            "latency_s": t2 - t0,
            "done_at": t2 - start,
            "ok": canonical_json(result.races) == entry.canonical,
            "shards": status["shards_total"],
            "ttfr_s": status["ttfr_seconds"],
            "pairs": result.stats.concurrent_pairs,
            "pair_cache_hits": result.stats.pair_cache_hits,
            "single_shot_s": entry.single_shot_s,
        }

    def client() -> None:
        nonlocal cursor
        while True:
            with lock:
                index = cursor
                timed_out = (
                    seconds is not None
                    and index >= at_least
                    and time.perf_counter() - start >= seconds
                )
                if index >= len(jobs) or timed_out:
                    return
                cursor += 1
            record = tally.run(one_job, index)
            label = jobs[index].program.label
            if record is None:
                tally.verdict(False, f"job on {label} failed")
                continue
            tally.verdict(
                record["ok"], f"job on {label} differs from single-shot"
            )
            with lock:
                records.append(record)

    ctx.unpin()
    threads = [threading.Thread(target=client) for _ in range(load.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "records": records,
        "wall_s": time.perf_counter() - start,
        "rejected": rejected,
    }


def serve_rounds(ctx: Context, loop: dict) -> list[dict]:
    """Per complete block of the loop: its job rate and p80 latency.

    A block's wall time runs from the completion of the previous block's
    last job to the completion of its own last job.
    """
    size = len(ctx.entries)
    by_block: dict[int, list[dict]] = {}
    for record in loop["records"]:
        by_block.setdefault(record["index"] // size, []).append(record)
    rounds = []
    previous_end = 0.0
    for number in sorted(by_block):
        block = by_block[number]
        end = max(r["done_at"] for r in block)
        if len(block) == size:
            rounds.append(
                job_round([r["latency_s"] for r in block], end - previous_end)
            )
        previous_end = end
    return rounds


def run_service(
    ctx: Context,
    seed: int,
    seconds: float,
    tally: Tally,
    rec: SpanRecorder | None = None,
) -> tuple[dict, dict]:
    """The cache-filling first block, untimed, then the timed loop."""
    blocks = job_blocks(ctx, seed)
    size = len(ctx.entries)
    cold = serve_loop(ctx, blocks[0], tally)
    warm_jobs = [entry for block in blocks[1:] for entry in block]
    loop = serve_loop(
        ctx, warm_jobs, tally, seconds=seconds, at_least=2 * size, rec=rec
    )
    return cold, loop


# -- the untraced run: end-to-end metrics -------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped worker, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def untraced_run(ctx: Context, seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    load = ctx.load
    if load is not None:
        rounds = [corpus_round(ctx, tally) for _ in range(load.rounds_before)]
        _cold, loop = run_service(ctx, seed, seconds, tally)
        job_rounds = serve_rounds(ctx, loop)
        rounds += [corpus_round(ctx, tally) for _ in range(load.rounds_after)]
    else:
        if ctx.smoke:
            rounds = [corpus_round(ctx, tally)]
        else:
            rounds = timed_rounds(ctx, tally, seconds, at_least=4)
        # A job is one request for a verdict on a collected trace; the
        # pipeline workloads ask through ``api.analyze`` directly.
        job_rounds = [
            job_round(r["latencies"], sum(r["latencies"])) for r in rounds
        ]
    teardown(ctx)

    def column(rows: list[dict], name: str) -> list[float]:
        return [row[name] for row in rows]

    metrics = {
        name: per_round(column(rounds, name), "s", min)
        for name in ("check_s", "collect_s", "analyze_s", "analyze_stream_s")
    }
    metrics["trace_bytes_per_event"] = per_round(
        column(rounds, "trace_bytes_per_event"), "B/event"
    )
    metrics["tool_mem_bound_ratio"] = per_round(
        column(rounds, "tool_mem_bound_ratio"), "ratio", max
    )
    metrics["jobs_per_s"] = per_round(
        column(job_rounds, "jobs_per_s"), "1/s", max
    )
    metrics["job_latency_p80_ms"] = per_round(
        column(job_rounds, "job_latency_p80_ms"), "ms", min
    )
    metrics["peak_rss_mb"] = single(peak_rss_mb(), "MB")
    metrics["verdict_ok_share"] = single(
        ratio(tally.verdicts_ok, tally.verdicts), "share", tally.verdicts
    )
    metrics["completed_share"] = single(
        1.0 - ratio(tally.failed, tally.attempted), "share", tally.attempted
    )
    return metrics, tally
