"""Columnar fast-path benchmark: batched online collection.

``c_arraysweep`` is a dense static-scheduled sweep whose scalar and
columnar variants emit structurally identical traces (reads then writes
per chunk, per sweep).  The per-event Python call chain dominates the
scalar run, which is exactly what ``append_access_batch`` eliminates: one
slice assignment per access site per loop nest.  The sweep is provably
race-free, so the static pre-screener would elide every access and leave
nothing to time — it is switched off here, and the event count is asserted.

Acceptance: batched online collection >= 3x faster than scalar on the same
workload (race reports byte-identical — enforced here and in
``tests/workloads/test_batched_parity.py``); and the scalar path within
25x of the batched one on the same machine (one packed store per record
measures ~16x, a field-by-field store ~38x).
"""

import json

from repro.common.config import SwordConfig
from repro.harness.tools import SwordDriver
from repro.workloads import REGISTRY

import repro.workloads.ompscr.suite  # noqa: F401  (registers c_arraysweep)

NTHREADS = 4
N = 8192
SWEEPS = 4
ONLINE_TARGET = 3.0
#: Ceiling on scalar_s / batched_s: a ratio on one machine, so it gates the
#: per-event cost of the scalar path without a wall-clock number.
SCALAR_CEILING = 25.0
REPEATS = 3

# A buffer wide enough to hold the run, so the timing isolates the
# event-emission path the batching optimises rather than the (shared)
# flush cost; and no static elision — this measures emission.
CONFIG = dict(buffer_events=65536, static_prescreen=False)


def _run(batched: int, *, offline: bool = False):
    return SwordDriver().run(
        REGISTRY.get("c_arraysweep"),
        nthreads=NTHREADS,
        seed=0,
        sword_config=SwordConfig(**CONFIG),
        run_offline=offline,
        n=N,
        sweeps=SWEEPS,
        batched=batched,
    )


def _blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


def test_online_batched_speedup(benchmark, save_result):
    def run_suite():
        # Correctness first: full runs, byte-identical race reports.
        scalar_full = _run(0, offline=True)
        batched_full = _run(1, offline=True)
        # Timing: online collection only, interleaved min-of-N.
        scalar_s = batched_s = float("inf")
        events = 0
        for _ in range(REPEATS):
            r = _run(0)
            scalar_s = min(scalar_s, r.dynamic_seconds)
            events = r.stats["events"]
            r = _run(1)
            batched_s = min(batched_s, r.dynamic_seconds)
        return scalar_full, batched_full, scalar_s, batched_s, events

    scalar_full, batched_full, scalar_s, batched_s, events = benchmark.pedantic(
        run_suite, rounds=1, iterations=1
    )

    speedup = scalar_s / batched_s
    lines = [
        f"Online columnar fast path (c_arraysweep, {NTHREADS} threads, "
        f"n={N}, {SWEEPS} sweeps, {events} events):",
        f"  scalar  per-access appends: {scalar_s:.4f}s  "
        f"({events / scalar_s:,.0f} events/s)",
        f"  batched column appends:     {batched_s:.4f}s  "
        f"({events / batched_s:,.0f} events/s)",
        f"  speedup {speedup:.2f}x (target >= {ONLINE_TARGET}x, "
        f"scalar within {SCALAR_CEILING:.0f}x of batched)",
        f"  batched events: {batched_full.stats['batched_events']}"
        f"  races: {len(batched_full.races)} (byte-identical to scalar)",
    ]
    save_result("online_fastpath", "\n".join(lines))

    assert _blob(batched_full.races) == _blob(scalar_full.races)
    # Never time an empty run: every access of every sweep is an event.
    assert events > N * SWEEPS
    assert batched_full.stats["batched_events"] > 0
    assert scalar_full.stats["batched_events"] == 0
    assert speedup >= ONLINE_TARGET, (
        f"batched online collection only {speedup:.2f}x faster than scalar "
        f"(target {ONLINE_TARGET}x)"
    )
    assert scalar_s <= SCALAR_CEILING * batched_s, (
        f"scalar collection {speedup:.1f}x slower than batched "
        f"(ceiling {SCALAR_CEILING}x)"
    )

