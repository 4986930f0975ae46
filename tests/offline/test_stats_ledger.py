"""`AnalysisStats` is declared once: JSON, merge and counters follow.

Everything a statistic needs beyond its field and its `stats.x +=` is
derived from the field's metadata; these tests pin the derivations.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.faults.harness import collect_trace
from repro.obs import live
from repro.offline import AnalysisOptions
from repro.offline.engine import AnalysisEngine, AnalysisStats
from repro.offline.intervals import IntervalInventory
from repro.sword import TraceDir

FIELDS = dataclasses.fields(AnalysisStats)

#: The `--json` key order; the traced benchmark and the report schema
#: read these by name.
JSON_KEYS = [
    "intervals", "concurrent_pairs", "trees_built", "tree_nodes",
    "events_read", "overlap_candidates", "ilp_solves", "races_found",
    "pairs_pruned", "solver_memo_hits", "solver_memo_misses",
    "pair_cache_hits", "bytes_inflated",
    "frames_pruned", "frames_inflated", "sites_proven_free",
    "sites_definite_race", "events_elided", "plan_seconds", "build_seconds", "compare_seconds",
    "total_seconds", "events_per_second",
]

MIRRORED = {
    "trees_built", "events_read", "overlap_candidates", "ilp_solves",
    "pairs_pruned", "solver_memo_hits", "solver_memo_misses",
    "pair_cache_hits", "bytes_inflated",
    "frames_pruned", "frames_inflated",
}

#: The folds, written out longhand (the reference `merge` is checked
#: against; kept apart from the field metadata on purpose).
SUMMED = MIRRORED | {"tree_nodes", "intervals", "concurrent_pairs"}
MAXED = {
    "sites_proven_free", "sites_definite_race", "events_elided",
    "plan_seconds", "build_seconds", "compare_seconds",
}
UNTOUCHED = {"races_found"}

stats_st = st.builds(
    AnalysisStats,
    **{
        f.name: (
            st.floats(0, 1e6, allow_nan=False)
            if f.name.endswith("_seconds")
            else st.integers(0, 2**40)
        )
        for f in FIELDS
    },
)


def test_every_field_declares_a_fold_and_the_json_shape_is_pinned():
    for f in FIELDS:
        assert f.metadata["fold"] in {"sum", "max", "plan", "set"}, f.name
    names = [f.name for f in FIELDS]
    assert names + ["total_seconds", "events_per_second"] == JSON_KEYS
    assert list(AnalysisStats().to_json()) == JSON_KEYS
    assert {
        f.name for f in FIELDS if f.metadata["counter"] is not None
    } == MIRRORED
    assert set(names) == SUMMED | MAXED | UNTOUCHED


@settings(max_examples=100, deadline=None)
@given(stats_st, stats_st)
def test_merge_folds_each_field_by_its_kind(total, part):
    before = dataclasses.replace(total)
    total.merge(part)
    for name in SUMMED | MAXED | UNTOUCHED:
        mine, theirs = getattr(before, name), getattr(part, name)
        if name in SUMMED:
            expected = mine + theirs
        elif name in MAXED:
            expected = max(mine, theirs)
        else:
            expected = mine
        assert getattr(total, name) == expected, name
    settled = dataclasses.replace(total)
    total.merge(AnalysisStats())
    assert total == settled


@pytest.fixture(scope="module")
def qsomp_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledger") / "trace"
    collect_trace("cpp_qsomp1", path, nthreads=4, seed=0, n=256)
    return path


def _mirrored_counters(bundle):
    counters = bundle.registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.removeprefix("offline.") in MIRRORED
    }


def test_counters_equal_stats_in_every_mode(qsomp_trace):
    seen = {}
    for mode in ("serial", "streaming", "parallel"):
        bundle = live()
        result = api.analyze(
            qsomp_trace, mode=mode, obs=bundle,
            options=AnalysisOptions(workers=2),
        )
        seen[mode] = counters = _mirrored_counters(bundle)
        # Zero-valued counters are exported too: all eleven, always.
        assert counters == {
            f"offline.{name}": getattr(result.stats, name) for name in MIRRORED
        }, mode
    assert seen["serial"]["offline.pairs_pruned"] > 0
    assert seen["serial"]["offline.trees_built"] > 0
    assert seen["streaming"] == seen["serial"]
    # The coordinator exports what the serial driver does.  Per-pair
    # decisions agree to the count; build work does not have to (each
    # shard builds the trees its own pairs need).
    assert seen["parallel"].keys() == seen["serial"].keys()
    for name in ("pairs_pruned", "frames_pruned", "overlap_candidates",
                 "ilp_solves", "pair_cache_hits"):
        assert (
            seen["parallel"][f"offline.{name}"]
            == seen["serial"][f"offline.{name}"]
        ), name


def test_one_bundle_accumulates_and_close_publishes_once(qsomp_trace):
    bundle = live()
    first = api.analyze(qsomp_trace, mode="serial", obs=bundle)
    second = api.analyze(qsomp_trace, mode="serial", obs=bundle)
    assert first.stats.trees_built == second.stats.trees_built > 0
    assert _mirrored_counters(bundle) == {
        f"offline.{name}": getattr(first.stats, name)
        + getattr(second.stats, name)
        for name in MIRRORED
    }

    bundle = live()
    trace = TraceDir(qsomp_trace)
    engine = AnalysisEngine(trace, obs=bundle)
    inventory = IntervalInventory(trace)
    engine.build_tree(next(iter(inventory.intervals.values())))
    assert "offline.trees_built" not in bundle.registry  # published at close
    engine.close()
    engine.close()
    assert _mirrored_counters(bundle)["offline.trees_built"] == 1
    assert engine.stats.trees_built == 1
