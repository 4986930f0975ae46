"""Corrupt persistent-cache entries must degrade to misses, never errors."""

import json
import shutil

import pytest

from repro import api
from repro.faults.harness import collect_trace
from repro.common.store import ContentStore
from repro.harness.tools import SwordDriver
from repro.obs import live, set_obs
from repro.offline.analyzer import analyze_trace
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
    """The one store behind the result cache's trees and pair verdicts:
    a load is the decoded entry or a miss, and only an entry that fails
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
    analyze_trace(TraceDir(trace_path), options=options)
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
        result = analyze_trace(
            TraceDir(trace_path), options=options
        )
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


# -- tree entries: valid JSON, wrong content --------------------------------


def _swap_rows(rows):
    """Exchange two rows whose ``low`` differ.  (``low`` taken as the ninth
    field from the end, nil markers skipped: the same edit then applies to
    the format-2 preorder layout, where it produced a wrong answer.)"""
    at = [k for k, row in enumerate(rows) if row is not None]
    i = at[0]
    j = next(k for k in at if rows[k][-9] != rows[i][-9])
    rows[i], rows[j] = rows[j], rows[i]


def _drop_field(rows):
    rows[len(rows) // 2].pop()


def _qsomp_cache(tmp_path):
    """A cpp_qsomp1 trace analysed once with the cache on, pair verdicts
    removed so the next run has to load its trees."""
    trace_path = tmp_path / "trace"
    collect_trace("cpp_qsomp1", trace_path, nthreads=4, seed=0, n=256)
    uncached = api.analyze(trace_path, mode="serial")
    api.analyze(trace_path, mode="serial", options=_cached_options())
    cache_root = trace_path / ".sword-cache"
    shutil.rmtree(cache_root / "pairs")
    trees = sorted((cache_root / "trees").glob("*.json"))
    assert len(trees) > 1
    return trace_path, uncached, trees


def _analyze_counting(trace_path):
    bundle = live()
    result = api.analyze(
        trace_path, mode="serial", obs=bundle, options=_cached_options()
    )
    counters = bundle.registry.snapshot()["counters"]
    return result, counters.get("offline.pair_cache_corrupt_evictions", 0)


@pytest.mark.parametrize("tamper", [_swap_rows, _drop_field])
def test_tampered_tree_rows_are_a_miss_not_a_wrong_answer(tmp_path, tamper):
    """Still valid JSON, still a list of rows — but not the summary that
    was stored.  Rows out of order or of the wrong arity must be rebuilt
    from the trace, never probed as they are."""
    trace_path, uncached, trees = _qsomp_cache(tmp_path)
    for path in trees:
        payload = json.loads(path.read_text())
        tamper(payload["nodes"])
        path.write_text(json.dumps(payload))
    result, evictions = _analyze_counting(trace_path)
    assert json.dumps(result.races.to_json(), sort_keys=True) == json.dumps(
        uncached.races.to_json(), sort_keys=True
    )
    assert evictions == len(trees)
    assert result.stats.tree_cache_disk_hits == 0
    assert result.stats.trees_built == len(trees)


def test_older_cache_generation_is_a_plain_miss_then_overwritten(tmp_path):
    """What the previous release left behind: ``format: 2`` tree entries
    (a preorder walk with nil markers and a colour field) at the *same*
    paths — the interval token does not hash the format — and no usable
    pair verdicts.  Plain misses, nothing evicted, overwritten in place."""
    trace_path, uncached, trees = _qsomp_cache(tmp_path)
    for path in trees:
        rows = json.loads(path.read_text())["nodes"]
        preorder = [x for row in rows for x in ([0, *row], None)] + [None]
        path.write_text(json.dumps({"format": 2, "nodes": preorder}))
    result, evictions = _analyze_counting(trace_path)
    assert result.races.to_json() == uncached.races.to_json()
    assert evictions == 0
    assert result.stats.tree_cache_disk_hits == 0
    assert result.stats.trees_built == len(trees)
    # The rebuild overwrote every entry: the next cold-pairs run loads all.
    shutil.rmtree(trace_path / ".sword-cache" / "pairs")
    again, evictions = _analyze_counting(trace_path)
    assert again.races.to_json() == uncached.races.to_json()
    assert evictions == 0
    assert again.stats.tree_cache_disk_hits == len(trees)
    assert again.stats.trees_built == 0


def test_tree_format_does_not_key_pair_verdicts(tmp_path, monkeypatch):
    """How a tree is laid out on disk is no input to a verdict: a
    ``TREE_FORMAT`` bump retires the trees and keeps the pairs."""
    import repro.offline.cache as cache_mod

    trace_path = tmp_path / "trace"
    _collect(trace_path)
    cold = analyze_trace(
        TraceDir(trace_path), options=_cached_options()
    )
    assert cold.stats.trees_built > 0
    monkeypatch.setattr(cache_mod, "TREE_FORMAT", cache_mod.TREE_FORMAT + 1)
    warm = analyze_trace(
        TraceDir(trace_path), options=_cached_options()
    )
    assert warm.races.to_json() == cold.races.to_json()
    assert warm.stats.pair_cache_hits > 0
    assert warm.stats.trees_built == 0
