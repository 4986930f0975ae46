"""Event elision accounting and the zero-event DEFINITE_RACE path."""

import json

import pytest

from repro.common.config import SwordConfig
from repro.harness.tools import SwordDriver
from repro.sword.reader import TraceDir
from repro.workloads import REGISTRY


def _run(name, **kw):
    return SwordDriver().run(REGISTRY.get(name), nthreads=4, seed=0, **kw)


def test_elided_plus_logged_equals_full_instrumentation():
    """Elision only suppresses emission: every event elided statically is
    one the full-instrumentation run would have logged."""
    for name in ("staticlab_disjoint", "c_arraysweep", "hpccg"):
        on = _run(name)
        off = _run(name, sword_config=SwordConfig(static_prescreen=False))
        assert on.stats["events_elided"] > 0
        assert (
            on.stats["events"] + on.stats["events_elided"]
            == off.stats["events"]
        )


def test_definite_race_reported_with_zero_region_events(tmp_path):
    """staticlab_wshift: both sites elide, the race is synthesised."""
    trace = tmp_path / "trace"
    on = _run("staticlab_wshift", trace_dir=str(trace), keep_trace=True)
    assert on.stats["sites_definite_race"] == 2
    assert on.stats["events_elided"] > 0
    assert len(on.races) == 1
    report = on.races.reports()[0]
    assert report.write_a and report.write_b

    # The trace itself carries no access events for the region: its
    # verdict table is the only witness source, and it has the reports.
    table = TraceDir(trace).static_verdicts
    assert table is not None
    assert table.race_reports()
    offline = on.stats["offline"]
    assert offline["sites_definite_race"] == 2
    assert offline["events_elided"] == on.stats["events_elided"]


def test_read_write_flavour_reports_mixed_access():
    on = _run("staticlab_rshift")
    assert len(on.races) == 1
    report = on.races.reports()[0]
    assert report.write_a != report.write_b  # one read, one write


def test_incomplete_region_stays_dynamic():
    on = _run("staticlab_incomplete")
    # Racy sites demoted to UNKNOWN: nothing elided, nothing synthesised,
    # yet the dynamic path still finds the race.
    assert on.stats["events_elided"] == 0
    assert on.stats["sites_definite_race"] == 0
    assert len(on.races) == 1


def test_disjoint_region_is_race_free_with_zero_events():
    on = _run("staticlab_disjoint")
    assert len(on.races) == 0
    assert on.stats["sites_proven_free"] == 2
    assert on.stats["sites_definite_race"] == 0


def test_proven_free_sites_counted_through_offline_stats():
    on = _run("c_pi")
    assert on.stats["sites_proven_free"] >= 2  # x site + reduction pc
    offline = on.stats["offline"]
    assert offline["sites_proven_free"] == on.stats["sites_proven_free"]
    assert offline["events_elided"] == on.stats["events_elided"]


def test_stats_json_serialisable():
    on = _run("staticlab_wshift")
    payload = json.loads(json.dumps(on.stats))
    for key in ("events_elided", "sites_proven_free", "sites_definite_race"):
        assert key in payload
