"""The traced run: one extra round per workload that yields per-layer metrics.

The analysis is driven layer by layer from here — the same sequence
``SerialOfflineAnalyzer.analyze`` runs — with a span around each public
call.  ``AnalysisEngine.build_tree`` / ``compare_trees`` are timed by
wrapping the bound methods on the engine instance this module creates.
End-to-end numbers never come from this run.
"""

from __future__ import annotations

import gc
import statistics

from .measure import (
    Context,
    Tally,
    baseline,
    canonical_json,
    collect,
    corpus_round,
    percentile,
    race_locations,
    ratio,
    run_service,
    single,
    teardown,
)
from .spans import SpanRecorder

MB = 1e6
#: Layer spans that together must cover the traced serial analysis.
ANALYZE_LAYERS = (
    "sword.reader.open",
    "offline.intervals.inventory",
    "offline.intervals.plan",
    "offline.engine.pairs",
)
BASELINE_RUNS = 3
#: ``RunResult.stats`` counters summed over the corpus.
ONLINE_COUNTERS = (
    "events", "flushes", "io_seconds", "bytes_uncompressed",
    "bytes_compressed", "events_elided",
)


def traced_analyze(entry, rec: SpanRecorder, totals: dict):
    """Serial analysis of one trace with a span per layer call."""
    from repro.offline.engine import AnalysisEngine
    from repro.offline.intervals import IntervalInventory
    from repro.offline.options import AnalysisOptions
    from repro.offline.report import RaceSet
    from repro.sword.reader import TraceDir

    with rec.span("offline.analyze", label=entry.program.label):
        with rec.span("sword.reader.open"):
            trace = TraceDir(entry.path)
        with rec.span("offline.intervals.inventory"):
            inventory = IntervalInventory(trace)
        with rec.span("offline.intervals.plan"):
            pairs = list(inventory.concurrent_pairs())
        engine = AnalysisEngine(trace, options=AnalysisOptions())
        engine.build_tree = rec.wrap("itree.build", engine.build_tree)
        engine.compare_trees = rec.wrap(
            "offline.engine.compare", engine.compare_trees
        )
        races = RaceSet()
        try:
            with rec.span("offline.engine.pairs"):
                engine.apply_static_verdicts(races)
                for ia, ib in pairs:
                    engine.analyze_pair(ia, ib, races)
        finally:
            engine.close()
    totals["intervals"] += len(inventory)
    totals["pairs"] += len(pairs)
    for name, value in engine.stats.to_json().items():
        totals[name] = totals.get(name, 0) + value
    return races


def traced_round(
    ctx: Context, rec: SpanRecorder, tally: Tally
) -> tuple[dict, dict]:
    """collect -> layered serial analysis -> streaming, all under spans."""
    online = dict.fromkeys(ONLINE_COUNTERS, 0)
    online["tool_bytes"] = 0
    offline = {"intervals": 0, "pairs": 0}
    ctx.pin()
    try:
        gc.collect()
        with rec.span("check"):
            with rec.span("sword.online.collect"):
                for entry in ctx.entries:
                    run = tally.run(collect, entry)
                    if run is None:
                        continue
                    for key in ONLINE_COUNTERS:
                        online[key] += run.stats[key]
                    online["tool_bytes"] = max(
                        online["tool_bytes"], run.tool_bytes
                    )
                    del run
            gc.collect()
            for entry in ctx.entries:
                label = entry.program.label
                races = tally.run(traced_analyze, entry, rec, offline)
                if races is None:
                    tally.verdict(False, f"{label} traced: analysis failed")
                    continue
                locations = race_locations(races)
                tally.verdict(
                    locations == ctx.expected[label],
                    f"{label} traced: {locations} != expected",
                )
                entry.canonical = canonical_json(races)
                del races
        gc.collect()
        import repro.api as api

        with rec.span("stream.replay"):
            for entry in ctx.entries:
                result = tally.run(api.analyze, entry.path, mode="streaming")
                tally.verdict(
                    result is not None
                    and canonical_json(result.races) == entry.canonical,
                    f"{entry.program.label} streaming differs from serial",
                )
                del result
    finally:
        ctx.unpin()
    return online, offline


def reader_and_codec(ctx: Context, rec: SpanRecorder) -> dict:
    """Inflate every frame of the corpus, then re-run the default codec
    over the raw bytes, re-blocked at the logger's buffer size."""
    from repro.common.config import SwordConfig
    from repro.common.events import EVENT_BYTES
    from repro.sword.compression.registry import by_name
    from repro.sword.reader import TraceDir

    config = SwordConfig()
    codec = by_name(config.codec)
    block = config.buffer_events * EVENT_BYTES
    frames = raw_bytes = packed_bytes = 0
    ctx.pin()
    try:
        for entry in ctx.entries:
            trace = TraceDir(entry.path)
            for gid in trace.thread_gids:
                reader = trace.reader(gid)
                try:
                    with rec.span("sword.reader.inflate_all"):
                        views = reader.frames()
                        raw = b"".join(v.events().tobytes() for v in views)
                finally:
                    reader.close()
                frames += len(views)
                raw_bytes += len(raw)
                for lo in range(0, len(raw), block):
                    chunk = raw[lo : lo + block]
                    with rec.span("sword.compression.compress"):
                        packed = codec.compress(chunk)
                    with rec.span("sword.compression.decompress"):
                        codec.decompress(packed, len(chunk))
                    packed_bytes += len(packed)
    finally:
        ctx.unpin()
    return {"frames": frames, "raw": raw_bytes, "packed": packed_bytes}


def extra_modes(ctx: Context, rec: SpanRecorder, tally: Tally) -> dict:
    """Result-cache cold/warm passes and, where asked, parallel mode."""
    import repro.api as api
    from repro.offline.options import AnalysisOptions, FastPathOptions

    out = {"pair_hits": 0, "pairs": 0}

    def checked(entry, what, **kwargs):
        result = tally.run(api.analyze, entry.path, **kwargs)
        tally.verdict(
            result is not None
            and canonical_json(result.races) == entry.canonical,
            f"{entry.program.label} {what} differs from serial",
        )
        return result

    ctx.pin()
    try:
        for entry in ctx.entries:
            cached = AnalysisOptions(
                fastpath=FastPathOptions(
                    result_cache=True,
                    cache_dir=str(ctx.scratch / f"cache-{entry.path.name}"),
                )
            )
            with rec.span("offline.cache.cold"):
                checked(entry, "cache cold", mode="serial", options=cached)
            with rec.span("offline.cache.warm"):
                warm = checked(entry, "cache warm", mode="serial",
                               options=cached)
            if warm is not None:
                out["pair_hits"] += warm.stats.pair_cache_hits
                out["pairs"] += warm.stats.concurrent_pairs
    finally:
        ctx.unpin()
    if ctx.spec.measure_parallel:
        for entry in ctx.entries:
            with rec.span("offline.parallel.analyze"):
                checked(entry, "parallel", mode="parallel",
                        options=AnalysisOptions(workers=2))
    return out


def serve_metrics(ctx: Context, cold: dict | None, loop: dict | None) -> dict:
    """The ``serve.*`` layer metrics (all zero without a service loop)."""
    records = loop["records"] if loop else []
    steals = ctx.service.stats()["shard_steals"] if loop else 0

    def p50_ms(values):
        return percentile(values, 0.5) * 1e3 if values else 0.0

    latencies = [r["latency_s"] for r in records]
    shards = sum(r["shards"] for r in records)
    metrics = {
        "serve.submit_p50_ms": (p50_ms([r["submit_s"] for r in records]), "ms"),
        "serve.job_latency_p50_ms": (p50_ms(latencies), "ms"),
        "serve.ttfr_p50_ms": (
            p50_ms([r["ttfr_s"] for r in records if r["ttfr_s"] is not None]),
            "ms",
        ),
        "serve.shards_per_job": (ratio(shards, len(records)), "count"),
        "serve.ms_per_shard": (ratio(sum(latencies) * 1e3, shards), "ms"),
        "serve.cache_hit_share": (
            ratio(
                sum(r["pair_cache_hits"] for r in records),
                sum(r["pairs"] for r in records),
            ),
            "share",
        ),
        "serve.vs_single_shot_x": (
            ratio(sum(latencies), sum(r["single_shot_s"] for r in records)),
            "x",
        ),
        "serve.cold_jobs_per_s": (
            ratio(len(cold["records"]), cold["wall_s"]) if cold else 0.0,
            "1/s",
        ),
        "serve.steals": (steals, "count"),
        "serve.rejected": (
            cold["rejected"] + loop["rejected"] if loop else 0, "count",
        ),
    }
    for label in ("qsomp", "lu", "hpccg", "lulesh"):
        metrics[f"serve.latency_p50_ms.{label}"] = (
            p50_ms([r["latency_s"] for r in records if r["label"] == label]),
            "ms",
        )
    return metrics


def traced_run(
    ctx: Context, seed: int, seconds: float
) -> tuple[dict, Tally, SpanRecorder]:
    rec = SpanRecorder(ctx.spec.name)
    tally = Tally()

    # Tool-less runs of the same programs: the slowdown's denominator.
    ctx.pin()
    try:
        baselines = []
        for _ in range(1 if ctx.smoke else BASELINE_RUNS):
            gc.collect()
            with rec.span("omp.baseline") as span:
                for entry in ctx.entries:
                    tally.run(baseline, entry)
            baselines.append(span["end"] - span["start"])
    finally:
        ctx.unpin()
    baseline_s = statistics.median(baselines)

    # Untraced reference rounds, so tracing overhead is a measured
    # difference within one process.
    untraced_check_s = min(
        corpus_round(ctx, tally)["check_s"]
        for _ in range(1 if ctx.smoke else 2)
    )

    online, offline = traced_round(ctx, rec, tally)
    codec = reader_and_codec(ctx, rec)
    modes = extra_modes(ctx, rec, tally)
    cold = loop = None
    if ctx.load is not None:
        cold, loop = run_service(ctx, seed, seconds / 2, tally, rec)
    served = serve_metrics(ctx, cold, loop)
    teardown(ctx)

    collect_s = rec.total("sword.online.collect")
    analyze_s = rec.total("offline.analyze")
    pairs_s = rec.total("offline.engine.pairs")
    build_s = rec.total("itree.build")
    compare_s = rec.total("offline.engine.compare")
    replay_s = rec.total("stream.replay")
    inflate_s = rec.total("sword.reader.inflate_all")
    parallel_s = rec.total("offline.parallel.analyze")
    memo = offline["solver_memo_hits"] + offline["solver_memo_misses"]
    attributed = sum(rec.total(name) for name in ANALYZE_LAYERS)

    metrics = {
        "omp.baseline_s": (baseline_s, "s"),
        "sword.online.tool_s": (collect_s - baseline_s, "s"),
        "sword.online.slowdown_x": (ratio(collect_s, baseline_s), "x"),
        "sword.online.events": (online["events"], "count"),
        "sword.online.events_per_s": (ratio(online["events"], collect_s), "1/s"),
        "sword.online.flushes": (online["flushes"], "count"),
        "sword.online.io_s": (online["io_seconds"], "s"),
        "sword.online.bytes_raw": (online["bytes_uncompressed"], "B"),
        "sword.online.bytes_compressed": (online["bytes_compressed"], "B"),
        "static.events_elided": (online["events_elided"], "count"),
        "static.elided_share": (
            ratio(
                online["events_elided"],
                online["events_elided"] + online["events"],
            ),
            "share",
        ),
        "memory.tool_bytes_peak": (online["tool_bytes"], "B"),
        "sword.compression.compress_mb_per_s": (
            ratio(codec["raw"] / MB, rec.total("sword.compression.compress")),
            "MB/s",
        ),
        "sword.compression.decompress_mb_per_s": (
            ratio(codec["raw"] / MB, rec.total("sword.compression.decompress")),
            "MB/s",
        ),
        "sword.compression.ratio": (ratio(codec["raw"], codec["packed"]), "x"),
        "sword.reader.open_s": (rec.total("sword.reader.open"), "s"),
        "sword.reader.frames": (codec["frames"], "count"),
        "sword.reader.inflate_all_s": (inflate_s, "s"),
        "sword.reader.inflate_mb_per_s": (
            ratio(codec["raw"] / MB, inflate_s), "MB/s",
        ),
        "offline.intervals.inventory_s": (
            rec.total("offline.intervals.inventory"), "s",
        ),
        "offline.intervals.plan_s": (rec.total("offline.intervals.plan"), "s"),
        "offline.intervals.intervals": (offline["intervals"], "count"),
        "offline.intervals.pairs": (offline["pairs"], "count"),
        "offline.engine.pairs_s": (pairs_s, "s"),
        "offline.engine.cascade_self_s": (
            rec.self_total("offline.engine.pairs"), "s",
        ),
        "offline.engine.pairs_pruned": (offline["pairs_pruned"], "count"),
        "offline.engine.pruned_share": (
            ratio(offline["pairs_pruned"], offline["pairs"]), "share",
        ),
        "offline.engine.bytes_inflated": (offline["bytes_inflated"], "B"),
        "offline.engine.inflated_share": (
            ratio(offline["bytes_inflated"], online["bytes_uncompressed"]),
            "share",
        ),
        "offline.engine.compare_s": (compare_s, "s"),
        "offline.engine.compares": (
            rec.count("offline.engine.compare"), "count",
        ),
        "offline.engine.races": (offline["races_found"], "count"),
        "itree.build_s": (build_s, "s"),
        "itree.builds": (offline["trees_built"], "count"),
        "itree.tree_nodes": (offline["tree_nodes"], "count"),
        "itree.events_read": (offline["events_read"], "count"),
        "itree.events_per_s": (ratio(offline["events_read"], build_s), "1/s"),
        "ilp.candidates": (offline["overlap_candidates"], "count"),
        "ilp.solves": (offline["ilp_solves"], "count"),
        "ilp.solves_per_s": (ratio(offline["ilp_solves"], compare_s), "1/s"),
        "ilp.memo_hit_share": (
            ratio(offline["solver_memo_hits"], memo), "share",
        ),
        "stream.replay_s": (replay_s, "s"),
        "stream.vs_serial_x": (ratio(replay_s, analyze_s), "x"),
        "offline.parallel.analyze_s": (parallel_s, "s"),
        "offline.parallel.vs_serial_x": (ratio(parallel_s, analyze_s), "x"),
        "offline.cache.warm_analyze_s": (rec.total("offline.cache.warm"), "s"),
        "offline.cache.pair_hit_share": (
            ratio(modes["pair_hits"], modes["pairs"]), "share",
        ),
        **served,
        "bench.analyze_attributed_share": (
            ratio(attributed, analyze_s), "share",
        ),
        "bench.trace_overhead_share": (
            ratio(collect_s + analyze_s, untraced_check_s) - 1.0, "share",
        ),
    }
    return (
        {name: single(value, unit) for name, (value, unit) in metrics.items()},
        tally,
        rec,
    )
