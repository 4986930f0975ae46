"""Structural invariants: what one-of-a-kind refactors removed stays gone.

Each check is a line search over the source trees (every file except
compiled caches, like ``grep -rn``) or an exact call count.  This file
names every pattern it forbids, so it leaves itself out of its searches.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve()


def matches(pattern: str, *dirs: str, allowed: str | None = None) -> list[str]:
    """``path:line: text`` for every line under ``dirs`` that matches
    ``pattern``, except in files whose repo-relative path matches
    ``allowed``."""
    regex = re.compile(pattern)
    hits = []
    for top in dirs:
        base = ROOT / top
        for path in [base] if base.is_file() else sorted(base.rglob("*")):
            if not path.is_file() or path == SELF:
                continue
            if "__pycache__" in path.parts or path.suffix == ".pyc":
                continue
            rel = path.relative_to(ROOT).as_posix()
            if allowed is not None and re.match(allowed, rel):
                continue
            text = path.read_bytes().decode("latin-1")
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{rel}:{number}: {line.strip()}")
    return hits


FORBIDDEN = {
    # One stats ledger: no hand-threaded copies come back.
    "one-stats-ledger": (
        r"merge_stats|_STATS_FIELDS|offline_mt\.",
        ("src", "tests", "benchmarks"),
        None,
    ),
    # One durable-file discipline: no second atomic write ...
    "one-atomic-write": (
        r"mkstemp|os\.replace",
        ("src",),
        r"src/repro/common/store\.py$",
    ),
    # ... and no v1 frames.
    "no-v1-frames": (
        r"BLOCK_MAGIC|BLOCK_HEADER|pack_block_header|unpack_block_header"
        r"|_v1_warned|_file_sha",
        ("src", "benchmarks", "examples"),
        None,
    ),
    # One pair planner.
    "one-pair-planner": (
        r"IncrementalPairScheduler|stream/scheduler|stream\.scheduler",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # The label judgment is the reference the structural planner is
    # tested against, not a second production planner.
    "label-judgment-is-a-reference": (
        r"concurrent_intervals",
        ("src",),
        r"src/repro/(osl/|offline/oracle\.py|semantics/model\.py)",
    ),
    # One pool: the service's work-stealing pool is the only process
    # pool; mode="parallel" runs as a one-job Service on it.
    "one-process-pool": (
        r"ProcessPoolExecutor\(",
        ("src",),
        r"src/repro/serve/pool\.py$",
    ),
    "no-second-coordinator": (
        r"DistributedOfflineAnalyzer|repro\.offline\.parallel"
        r"|offline/parallel\.py",
        ("src", "tests", "examples", "benchmarks"),
        None,
    ),
    # One encoding: trace frames are delta filter + zlib only
    # (traceformat owns it); the other codecs are E9's comparison set,
    # looked up by name.
    "one-encoding": (
        r"delta_filter|include_legacy|FILTER_NONE|codec=|import .*by_id",
        ("src", "tests", "examples", "benchmarks"),
        None,
    ),
    # One digest pass per buffer: no per-chunk digest call.
    "no-per-chunk-digest": (
        r"from_records",
        ("src/repro/sword/logger.py",),
        None,
    ),
    # One analysis path: the cascade has no off switch, and the settings
    # that only ever took one value are module constants.
    "one-analysis-path": (
        r"no_fastpath|use_ilp_crosscheck|chunk_events|tree_cache_capacity"
        r"|checkpoint_every|fastpath\.enabled|cache_active",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # No offline static pair skip: every site pair is decided by the
    # digest prune, the pair cache or the compare.
    "no-static-pair-skip": (
        r"static_skip|proven_free_by_pid|_static_free",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    "no-site-pairs-skipped": (
        r"site_pairs_skipped",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # One driver: serial analysis is a function over the inventory's one
    # emitter, the engine carries the salvage rule, and salvage jobs
    # shard like strict ones.  The benchmark harness's docstring still
    # names the old class; that directory is the benchmark's own.
    "one-driver": (
        r"SerialOfflineAnalyzer|\bSALVAGE\b|spec\.kind",
        ("src", "tests", "examples", "benchmarks"),
        r"benchmarks/bench/",
    ),
    # One loader table for a trace's run-wide files, and tasks.json is
    # required: no per-file loader or pre-tasking fallback comes back.
    "one-loader-table": (
        r"_load_manifest|_load_regions|_load_mutexsets|_load_static_verdicts"
        r"|before the tasking extension",
        ("src",),
        None,
    ),
    # One resume store: a rerun with the result cache on resumes every
    # mode, so the streaming checkpoint and its options stay deleted.
    "no-stream-checkpoint": (
        r"checkpoint_path|max_pairs|StreamingInterrupted|CHECKPOINT_EVERY"
        r"|stream\.checkpoint|stream\.pairs_skipped",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # ... and so does a resumed service job: the state-dir result cache
    # is its one durable store, and the shard checkpoint stays deleted.
    "no-shard-checkpoint": (
        r"ShardCheckpointStore|checkpoint_token|checkpoint_hits"
        r"|from_checkpoint|checkpoint_root|serve\.checkpoint",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # The result cache stores pair verdicts only: an interval tree's one
    # lasting form is the compressed log it is rebuilt from.
    "no-tree-store": (
        r"tree_cache_disk_hits|load_tree|store_tree|tree_to_rows"
        r"|tree_from_rows|TREE_FORMAT|itree\.serialize",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
    # Trees are columns from the builder on: no per-record coalescing
    # loop, and no object or per-field lists behind the tree.
    "trees-are-columns": (
        r"_coalesce_scalar|_coalesce_dense|_max_high|\b_lows\b|\b_highs\b"
        r"|pc_rank",
        ("src", "tests", "benchmarks", "examples"),
        None,
    ),
}


@pytest.mark.parametrize("name", FORBIDDEN)
def test_forbidden_pattern_is_absent(name):
    pattern, dirs, allowed = FORBIDDEN[name]
    assert matches(pattern, *dirs, allowed=allowed) == []


def test_the_search_finds_what_is_there():
    """The checks above pass by finding nothing; the search itself must
    find a line that exists, under a directory and in a named file."""
    (hit,) = matches(r"^class AnalysisEngine\b", "src")
    assert hit.startswith("src/repro/offline/engine.py:")
    assert matches(r"def finalize", "src/repro/sword/logger.py")
    assert matches(r"def matches", "tests") == []  # itself excluded


def test_one_digest_pass_per_buffer(monkeypatch, tmp_path):
    """The collector digests a flushed buffer's chunks in one segmented
    kernel pass and screens each region shape once.  Exact counts, not
    timings."""
    from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
    from repro.omp import OpenMPRuntime
    from repro.sword import SwordTool, logger
    from repro.workloads import REGISTRY

    calls = {"analyze_region": 0, "segment_digests": 0}

    def counted(name):
        real = getattr(logger, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(logger, name, counted(name))

    def collect(log_dir, **knobs):
        for name in calls:
            calls[name] = 0
        tool = SwordTool(SwordConfig(log_dir=log_dir, **knobs))
        lulesh = REGISTRY.get("lulesh")
        OpenMPRuntime(
            RunConfig(nthreads=4, scheduler=SchedulerConfig(seed=0)),
            tool=tool,
        ).run(lambda m: lulesh.run_program(m, steps=40))
        return tool.stats

    # 320 regions of 8 distinct shapes (7 kernels + the dt update).
    stats = collect(str(tmp_path / "default"))
    assert calls["analyze_region"] == 8, calls
    # No buffer fills at steps=40: one pass per thread, at its final flush.
    assert (
        calls["segment_digests"] == stats["flushes"] == stats["threads"] == 4
    ), (calls, stats)
    # Small buffers: one pass per flush, never one per chunk.
    stats = collect(str(tmp_path / "small"), buffer_events=256)
    assert stats["flushes"] > stats["threads"], stats
    assert calls["segment_digests"] == stats["flushes"], (calls, stats)
