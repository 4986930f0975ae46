"""E6 — regenerate Figure 7 / Table V: HPC slowdown & memory vs threads."""

import pytest

import repro.harness.experiments as E

from conftest import hpc_params

THREADS = (8, 16, 24)


@pytest.fixture(scope="module")
def figures():
    return E.hpc_overhead.run(
        benchmarks=("hpccg", "minife", "lulesh", "amg2013_10"),
        thread_counts=THREADS,
        params_for=hpc_params,
    )


def test_e6_figure7(benchmark, save_result, figures):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    text = []
    for name, (slow_fig, mem_fig) in figures.items():
        text.append(slow_fig.render())
        text.append(mem_fig.render())
    save_result("E6_fig7_hpc_overhead", "\n\n".join(text))


def test_e6_sword_memory_is_flat_per_thread(benchmark, figures):
    """SWORD memory = N x 3.3 MB for every benchmark and thread count."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, (_slow, mem_fig) in figures.items():
        sword = dict(mem_fig.get("sword").points)
        per_thread = {n: sword[n] / n for n in THREADS}
        values = list(per_thread.values())
        assert max(values) - min(values) < 0.05 * values[0], name
        assert values[0] == pytest.approx(3.3 * 2**20, rel=0.05)


def test_e6_archer_memory_tracks_baseline_not_threads(benchmark, figures):
    """ARCHER's footprint is application-proportional (5-7x region)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, (_slow, mem_fig) in figures.items():
        archer = dict(mem_fig.get("archer").points)
        # Same problem size at 8 vs 24 threads: footprint within 40%.
        assert archer[24] < archer[8] * 1.4 + 64 * 2**20, name


def test_e6_lulesh_offline_cost_tracks_region_count(benchmark):
    """The driver behind the paper's LULESH observation: SWORD's offline
    work is proportional to the number of parallel regions.

    NOTE (EXPERIMENTS.md, E6): two divergences are recorded there.  The
    *direction* of the paper's Figure 7c — the dynamic phase itself being
    slower than ARCHER's — does not reproduce on this substrate.  And the
    paper's "offline pass doubles the cost" ratio is not asserted: the
    frame-digest prune decides every LULESH pair from metadata, so the
    offline pass adds only a fraction of the dynamic phase here.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Measure the interval/pair load directly against a low-region
    # benchmark.
    from repro.harness.tools import driver as _driver
    from repro.workloads import REGISTRY as _REG

    lulesh = _driver("sword").run(
        _REG.get("lulesh"), nthreads=8, seed=0, steps=40
    )
    hpccg = _driver("sword").run(_REG.get("hpccg"), nthreads=8, seed=0)
    assert (
        lulesh.stats["offline"]["intervals"]
        > 5 * hpccg.stats["offline"]["intervals"]
    )


def test_e6_sword_dynamic_beats_archer_elsewhere(benchmark, figures):
    """On the non-LULESH benchmarks SWORD's collection is the faster
    dynamic phase at scale (paper: "typically faster than ARCHER")."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    wins = 0
    for name in ("hpccg", "minife", "amg2013_10"):
        slow_fig, _mem = figures[name]
        sword = dict(slow_fig.get("sword").points)
        archer = dict(slow_fig.get("archer").points)
        if sword[24] <= archer[24]:
            wins += 1
    assert wins >= 2, "sword should win the dynamic phase on most benchmarks"


def test_e6_static_prescreen_columns(benchmark, save_result):
    """E6 extension: per-benchmark pre-screening on/off slowdown columns."""
    figs = benchmark.pedantic(
        lambda: E.hpc_overhead.run_static(
            thread_counts=(8, 16), params_for=hpc_params
        ),
        rounds=1,
        iterations=1,
    )
    text = []
    for name, (slow_fig, elision_fig) in figs.items():
        text.append(slow_fig.render())
        text.append(elision_fig.render())
    save_result("E6_fig7_static_prescreen", "\n\n".join(text))

    for name, (slow_fig, elision_fig) in figs.items():
        # Every HPC benchmark's spec elides a stable share of the stream
        # (AMG's partial spec is the floor at ~21%).
        fracs = elision_fig.get("elided-fraction").ys()
        assert all(f > 0.15 for f in fracs), name
        # And collection with fewer events is never materially slower.
        on = slow_fig.get("sword").ys()
        off = slow_fig.get("sword-nostatic").ys()
        assert all(s < o * 1.5 + 0.5 for s, o in zip(on, off)), name
