"""Corrupt persistent-cache entries must degrade to misses, never errors."""

import json

from repro.harness.tools import SwordDriver
from repro.obs import live, set_obs
from repro.offline.analyzer import SerialOfflineAnalyzer
from repro.offline.cache import ResultCache
from repro.offline.options import AnalysisOptions, FastPathOptions
from repro.sword import TraceDir
from repro.workloads import REGISTRY

WORKLOAD = "plusplus-orig-yes"


def _collect(trace_path):
    driver = SwordDriver()
    driver.run(
        REGISTRY.get(WORKLOAD), nthreads=2, seed=0,
        trace_dir=str(trace_path), keep_trace=True,
    )


def _cached_options():
    return AnalysisOptions(
        fastpath=FastPathOptions(enabled=True, result_cache=True)
    )


def test_read_evicts_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    path = tmp_path / "entry.json"
    path.write_text('{"nodes": [1, 2')  # torn write
    assert cache._read(path) is None
    assert cache.corrupt_evictions == 1
    assert not path.exists()  # one miss, not one per run forever
    # Valid JSON of the wrong shape is equally corrupt.
    path.write_text('[1, 2, 3]')
    assert cache._read(path) is None
    assert cache.corrupt_evictions == 2
    assert not path.exists()
    # A plain missing file is a miss, not an eviction.
    assert cache._read(tmp_path / "absent.json") is None
    assert cache.corrupt_evictions == 2


def test_corrupt_cache_entries_recomputed_not_propagated(tmp_path):
    trace_path = tmp_path / "trace"
    _collect(trace_path)
    cold = SerialOfflineAnalyzer(
        TraceDir(trace_path), options=_cached_options()
    ).analyze()
    cache_root = trace_path / ".sword-cache"
    entries = sorted(cache_root.rglob("*.json"))
    assert entries, "cold run must have populated the cache"
    for path in entries:
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    previous = set_obs(live())
    try:
        warm = SerialOfflineAnalyzer(
            TraceDir(trace_path), options=_cached_options()
        ).analyze()
        from repro.obs import get_obs

        snapshot = get_obs().registry.snapshot()
    finally:
        set_obs(previous)
    # Identical verdicts, recomputed from the trace; no exception escaped.
    assert warm.races.to_json() == cold.races.to_json()
    assert warm.stats.pair_cache_hits == 0
    assert (
        snapshot["counters"]["offline.pair_cache_corrupt_evictions"]
        >= len(entries)
    )


def test_field_level_garbage_evicted_then_restored(tmp_path):
    import shutil

    trace_path = tmp_path / "trace"
    _collect(trace_path)
    options = _cached_options()
    SerialOfflineAnalyzer(TraceDir(trace_path), options=options).analyze()
    cache_root = trace_path / ".sword-cache"
    # Force tree loads on the warm run: no pair verdicts to short-circuit.
    shutil.rmtree(cache_root / "pairs", ignore_errors=True)
    tree_entries = sorted((cache_root / "trees").glob("*.json"))
    assert tree_entries
    # Well-formed JSON dict, wrong field types: caught at parse, evicted.
    for victim in tree_entries:
        payload = json.loads(victim.read_text())
        payload["nodes"] = "not-a-node-list"
        victim.write_text(json.dumps(payload))
    previous = set_obs(live())
    try:
        result = SerialOfflineAnalyzer(
            TraceDir(trace_path), options=options
        ).analyze()
        from repro.obs import get_obs

        snapshot = get_obs().registry.snapshot()
    finally:
        set_obs(previous)
    assert result.races is not None
    assert (
        snapshot["counters"]["offline.pair_cache_corrupt_evictions"] >= 1
    )
    # The recompute re-stored valid entries over the evicted tokens.
    for victim in tree_entries:
        if victim.exists():
            reloaded = json.loads(victim.read_text())
            assert isinstance(reloaded["nodes"], list)


def test_corrupt_evictions_counted_on_an_explicit_bundle(tmp_path):
    """The counter lands on the bundle the caller threads in — the way
    ``api.analyze(obs=...)`` and thread-mode serve shards run — not on
    the ambient one."""
    from repro import api
    from repro.obs import get_obs

    trace_path = tmp_path / "trace"
    _collect(trace_path)
    api.analyze(trace_path, options=_cached_options())
    entries = sorted((trace_path / ".sword-cache").rglob("*.json"))
    assert entries
    for path in entries:
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    bundle = live()
    assert get_obs() is not bundle  # explicit, never installed as ambient
    api.analyze(trace_path, obs=bundle, options=_cached_options())
    counters = bundle.registry.snapshot()["counters"]
    assert counters["offline.pair_cache_corrupt_evictions"] >= len(entries)
