"""Corrupt persistent-cache entries must degrade to misses, never errors."""

import json

import pytest

from repro import api
from repro.common.store import ContentStore
from repro.harness.tools import SwordDriver
from repro.obs import live, set_obs
from repro.offline.analyzer import analyze_trace
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
        fastpath=FastPathOptions(result_cache=True)
    )


def _value(payload):
    return payload["value"]


#: What is on disk before the store's load (None: nothing).
ENTRIES = {
    "absent": None,
    "torn": '{"format": 3, "value": [1, 2',
    "non-object": "[1, 2, 3]",
    "decode-raising": '{"format": 3}',
    "other-format": '{"format": 2, "value": 7}',
    "unwritable-root": None,
}


@pytest.mark.parametrize("case", ENTRIES)
def test_store_load_contract(tmp_path, case):
    """The one store behind the result cache's pair verdicts: a load is the decoded entry or a miss, and only an entry that fails
    to decode is unlinked and counted."""
    root = tmp_path / "store"
    if case == "unwritable-root":
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "store"  # mkdir under a file fails
    evicted = []
    store = ContentStore(root, 3, on_evict=lambda: evicted.append(case))
    path = store.path("entry")
    if ENTRIES[case] is not None:
        root.mkdir()
        path.write_text(ENTRIES[case])
    if case == "unwritable-root":
        store.store("entry", {"value": 7})  # returns quietly
    assert store.load("entry", _value) is None
    corrupt = case in ("torn", "non-object", "decode-raising")
    assert store.evictions == len(evicted) == int(corrupt)
    assert path.exists() == (case == "other-format")
    if case != "unwritable-root":
        # Whatever was there, the next store makes the entry a hit.
        store.store("entry", {"value": 7})
        assert json.loads(path.read_text()) == {"format": 3, "value": 7}
        assert store.load("entry", _value) == 7
        assert [p.name for p in root.iterdir()] == ["entry.json"]


def test_corrupt_cache_entries_recomputed_not_propagated(tmp_path):
    trace_path = tmp_path / "trace"
    _collect(trace_path)
    cold = analyze_trace(
        TraceDir(trace_path), options=_cached_options()
    )
    cache_root = trace_path / ".sword-cache"
    entries = sorted(cache_root.rglob("*.json"))
    assert entries, "cold run must have populated the cache"
    for path in entries:
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    previous = set_obs(live())
    try:
        warm = analyze_trace(
            TraceDir(trace_path), options=_cached_options()
        )
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
    trace_path = tmp_path / "trace"
    _collect(trace_path)
    options = _cached_options()
    cold = analyze_trace(TraceDir(trace_path), options=options)
    pair_entries = sorted((trace_path / ".sword-cache" / "pairs").glob("*.json"))
    assert pair_entries
    # Well-formed JSON dict, wrong field types: caught at parse, evicted.
    for victim in pair_entries:
        payload = json.loads(victim.read_text())
        payload["reports"] = "not-a-report-list"
        victim.write_text(json.dumps(payload))
    previous = set_obs(live())
    try:
        result = analyze_trace(
            TraceDir(trace_path), options=options
        )
        from repro.obs import get_obs

        snapshot = get_obs().registry.snapshot()
    finally:
        set_obs(previous)
    assert result.races.to_json() == cold.races.to_json()
    assert result.stats.pair_cache_hits == 0
    assert (
        snapshot["counters"]["offline.pair_cache_corrupt_evictions"]
        == len(pair_entries)
    )
    # The recompute re-stored valid entries over the evicted tokens.
    for victim in pair_entries:
        assert isinstance(json.loads(victim.read_text())["reports"], list)


def test_corrupt_evictions_counted_on_an_explicit_bundle(tmp_path):
    """The counter lands on the bundle the caller threads in — the way
    ``api.analyze(obs=...)`` and thread-mode serve shards run — not on
    the ambient one."""
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
