"""The columnar pair comparison is the scalar loop, row for row.

``AnalysisEngine._compare_scalar`` defines the race condition;
``_compare_columnar`` must produce the same reports in the same order
(witness address, ``sink`` contents, ``on_race`` calls) and the same
counts — candidates, solves, memo hits and misses.
"""

import json
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
import repro.offline.engine as engine_mod
from repro.harness.tools import SwordDriver
from repro.itree.interval import StridedInterval
from repro.itree.tree import IntervalTree, table_of
from repro.offline import AnalysisOptions
from repro.offline.analyzer import reference_analyze
from repro.offline.engine import AnalysisEngine
from repro.offline.intervals import IntervalKey
from repro.offline.report import RaceSet
from repro.omp.mutexset import MutexSetTable
from repro.tasking.graph import TaskGraph
from repro.workloads import REGISTRY

NTHREADS = 4

FAST = AnalysisOptions()

#: Interned as msids 1..3; two of them intersect.
MUTEX_SETS = [frozenset({1}), frozenset({2}), frozenset({1, 2})]


@st.composite
def interval_lists(draw, max_msid):
    """Small address range and few pcs: duplicate lows, nested extents
    (``high`` not monotone in ``low``), repeated pc pairs."""
    n = draw(st.integers(0, 14))
    out = []
    for _ in range(n):
        count = draw(st.integers(1, 6))
        out.append(
            StridedInterval(
                low=draw(st.integers(0, 120)),
                stride=draw(st.integers(1, 24)),
                size=draw(st.sampled_from([1, 4, 8])),
                count=count,
                is_write=draw(st.booleans()),
                is_atomic=draw(st.integers(0, 3)) == 0,
                pc=draw(st.integers(0x1000, 0x1005)),
                msid=draw(st.integers(0, max_msid)),
            )
        )
    return out


def _tree(intervals):
    """A tree as the builder makes one: columns, no interval objects."""
    return IntervalTree.from_seal_order(table_of(intervals))


def _run(kernel, intervals_a, intervals_b, nsets):
    mutexsets = MutexSetTable()
    for members in MUTEX_SETS[:nsets]:
        mutexsets.intern(members)
    source = types.SimpleNamespace(mutexsets=mutexsets, task_graph=TaskGraph())
    engine = AnalysisEngine(source, options=FAST)
    ia = types.SimpleNamespace(key=IntervalKey(gid=0, pid=1, bid=0))
    ib = types.SimpleNamespace(key=IntervalKey(gid=1, pid=1, bid=0))
    races, sink, live = RaceSet(), [], []
    args = (
        _tree(intervals_a), _tree(intervals_b), ia, ib, races, live.append,
        sink,
    )
    if kernel == "scalar":
        engine._compare_scalar(*args, False, engine._memo)
    else:
        engine._compare_columnar(*args)
    s = engine.stats
    return {
        "sink": sink,
        "live": live,
        "races": races.to_json(),
        "races_found": s.races_found,
        "overlap_candidates": s.overlap_candidates,
        "ilp_solves": s.ilp_solves,
        "memo_hits": engine._memo.hits,
        "memo_misses": engine._memo.misses,
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_columnar_kernel_equals_scalar_loop(data):
    nsets = data.draw(st.integers(0, 3))
    a = data.draw(interval_lists(nsets))
    b = data.draw(interval_lists(nsets))
    # 7-row blocks: windows straddle block boundaries.
    with mock.patch.object(engine_mod, "_JOIN_BLOCK_ROWS", 7):
        got = _run("columnar", a, b, nsets)
    assert got == _run("scalar", a, b, nsets)


def test_hard_rows_reach_the_memo_in_row_order():
    """Interleaved strided progressions (Figure 4): extent overlap, no
    shared byte — solver rows, repeated shapes hit the memo."""
    a = [
        StridedInterval(low=base, stride=8, size=4, count=8, is_write=True,
                        is_atomic=False, pc=0x1000 + i, msid=0)
        for i, base in enumerate((0, 64, 128))
    ]
    b = [
        StridedInterval(low=base + 4, stride=8, size=4, count=8,
                        is_write=True, is_atomic=False, pc=0x2000, msid=0)
        for base in (0, 64, 128)
    ] + [
        StridedInterval(low=130, stride=8, size=4, count=4, is_write=False,
                        is_atomic=False, pc=0x2001, msid=0)
    ]
    got = _run("columnar", a, b, 0)
    assert got == _run("scalar", a, b, 0)
    assert got["memo_misses"] >= 1 and got["memo_hits"] >= 1
    assert [r.key for r in got["sink"]] == [(0x1002, 0x2001)]


# -- real traces -----------------------------------------------------------


def _blob(result) -> bytes:
    return json.dumps(result.races.to_json(), sort_keys=True).encode()


@pytest.fixture
def columnar_calls(monkeypatch):
    """Node-count products of the pairs the kernel was called on."""
    calls = []
    kernel = AnalysisEngine._compare_columnar

    def spy(self, *args, **kwargs):
        calls.append(len(args[0]) * len(args[1]))
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "_compare_columnar", spy)
    return calls


def _collect(name, trace_dir, **params):
    SwordDriver().run(
        REGISTRY.get(name), nthreads=NTHREADS, seed=0,
        trace_dir=str(trace_dir), keep_trace=True, run_offline=False, **params,
    )


def _assert_modes_identical(trace_dir):
    reference = _blob(reference_analyze(str(trace_dir)))
    results = {}
    for mode in ("serial", "streaming"):
        fast = api.analyze(str(trace_dir), mode=mode, options=FAST)
        assert _blob(fast) == reference
        results[mode] = fast
    return results["serial"]


def test_qsomp_takes_the_columnar_path_by_default(tmp_path, columnar_calls):
    _collect("cpp_qsomp1", tmp_path / "t", n=1024)
    reference_analyze(str(tmp_path / "t"))
    assert columnar_calls == []  # the reference analysis never joins
    fast = _assert_modes_identical(tmp_path / "t")
    assert columnar_calls
    assert min(columnar_calls) >= engine_mod._COLUMNAR_MIN_NODE_PRODUCT
    assert len(fast.races) == REGISTRY.get("cpp_qsomp1").seeded_races


@pytest.mark.parametrize("name", ["c_md", "staticlab_incomplete"])
def test_small_trees_forced_through_the_kernel(
    name, tmp_path, monkeypatch, columnar_calls
):
    _collect(name, tmp_path / "t")
    gated = api.analyze(str(tmp_path / "t"), options=FAST)
    monkeypatch.setattr(engine_mod, "_COLUMNAR_MIN_NODE_PRODUCT", 0)
    del columnar_calls[:]
    forced = _assert_modes_identical(tmp_path / "t")
    assert columnar_calls
    assert len(forced.races) == REGISTRY.get(name).seeded_races
    for field in (
        "overlap_candidates", "ilp_solves", "solver_memo_hits",
        "solver_memo_misses",
    ):
        assert getattr(forced.stats, field) == getattr(gated.stats, field)

