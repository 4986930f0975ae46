"""Durability overhead benchmark: WAL + state-dir result cache vs baseline.

The durable-recovery layer (DESIGN.md §3.10) buys restart-at-any-WAL-
boundary resume with one extra I/O stream on the job hot path: one
CRC-guarded WAL append per lifecycle transition.  The other half of
resume is the result cache every service already runs with; a durable
service only keeps it under its state dir, where a restart finds it.
This benchmark prices that insurance: the same burst through the same
thread-worker service, once ephemeral (no state dir, its own temp cache)
and once durable, must stay within a generous throughput factor — and a
second pass over the durable run's state dir must actually *cash in*
the cache (every pair replayed, not one tree built).
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.faults.harness import collect_trace
from repro.serve import ServeConfig, Service, TenantQuota
from repro.serve.wal import WAL_NAME, replay_wal

WORKLOAD = "plusplus-orig-yes"
NTHREADS = 4
SUBMISSIONS = 8
SHARD_PAIRS = 8
#: Durable throughput must stay within this factor of ephemeral.
MAX_SLOWDOWN = 3.0


def _run_burst(trace, state_dir=None):
    config = ServeConfig(
        workers=2,
        use_processes=False,
        shard_pairs=SHARD_PAIRS,
        quota=TenantQuota(max_pending=SUBMISSIONS),
        state_dir=str(state_dir) if state_dir else None,
    )
    t0 = time.perf_counter()
    with Service(config) as service:
        ids = [service.submit(trace) for _ in range(SUBMISSIONS)]
        results = [service.result(i, timeout=120) for i in ids]
    elapsed = time.perf_counter() - t0
    races = {
        json.dumps(r.races.to_json(), sort_keys=True) for r in results
    }
    return elapsed, races, [r.stats for r in results]


def test_serve_recovery_overhead(benchmark, save_result):
    root = Path(tempfile.mkdtemp(prefix="bench-serve-recovery-"))
    try:
        trace = root / "trace"
        collect_trace(WORKLOAD, trace, nthreads=NTHREADS, seed=0)

        base_elapsed, base_races, _ = _run_burst(trace)

        state = root / "state"

        def durable_burst():
            if state.exists():
                shutil.rmtree(state)
            return _run_burst(trace, state_dir=state)

        durable_elapsed, durable_races, _ = benchmark.pedantic(
            durable_burst, rounds=1, iterations=1
        )
        assert durable_races == base_races  # durability never changes answers

        # Second pass over the surviving state dir: every shipped pair of
        # every job must replay from the state-dir result cache (identical
        # submissions share content-hashed pair tokens), so no job builds
        # a tree — the insurance pays out.
        warm_elapsed, warm_races, warm_stats = _run_burst(
            trace, state_dir=state
        )
        assert warm_races == base_races
        assert all(s.trees_built == 0 for s in warm_stats)
        shipped = warm_stats[0].concurrent_pairs - warm_stats[0].pairs_pruned
        warm_hits = sum(s.pair_cache_hits for s in warm_stats)
        assert warm_hits == SUBMISSIONS * shipped > 0

        slowdown = durable_elapsed / max(base_elapsed, 1e-9)
        wal_records = replay_wal(state / WAL_NAME).records
        lines = [
            f"Serve durability overhead ({SUBMISSIONS} submissions, "
            f"shard_pairs={SHARD_PAIRS}, thread workers, result cache on):",
            f"  ephemeral: {base_elapsed:.2f}s "
            f"({SUBMISSIONS / base_elapsed:.1f} jobs/s)",
            f"  durable:   {durable_elapsed:.2f}s "
            f"({SUBMISSIONS / durable_elapsed:.1f} jobs/s) = "
            f"{slowdown:.2f}x, {wal_records} WAL record(s)",
            f"  warm:      {warm_elapsed:.2f}s with {warm_hits} pair "
            f"cache hit(s) ({shipped} shipped pair(s)/job), 0 trees built",
        ]
        save_result("serve_recovery_overhead", "\n".join(lines))

        assert slowdown <= MAX_SLOWDOWN, (
            f"durability cost {slowdown:.2f}x exceeds the "
            f"{MAX_SLOWDOWN}x budget"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
