"""Soundness properties of the verdicts against the dynamic ground truth.

These runs attach SWORD *alongside* a recording oracle through
``ToolMux``.  The mux only elides when every tool consents, and the
recorder never does — so the trace carries the **full** event stream
*and* the persisted verdict table.  That is exactly the setup where a
wrong PROVEN_FREE verdict would be caught: the dynamic path analyses
every pair, and any race at a supposedly-free pc is a soundness bug.
"""

import json

import pytest

import repro.api as api
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.offline import oracle_races
from repro.omp import OpenMPRuntime, RecordingTool, ToolMux
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY

WORKLOADS = [
    "staticlab_disjoint",
    "staticlab_wshift",
    "staticlab_rshift",
    "staticlab_incomplete",
    "c_jacobi01",
    "c_loopA.solution1",
    "hpccg",
]


def _blob(races) -> bytes:
    return json.dumps(races.to_json(), sort_keys=True).encode()


def _veto_run(name, trace_path, *, nthreads=4, seed=0):
    """Run one workload under recorder+SWORD; returns (rec, rt)."""
    w = REGISTRY.get(name)
    rec = RecordingTool()
    sword = SwordTool(SwordConfig(log_dir=str(trace_path), buffer_events=128))
    rt = OpenMPRuntime(
        RunConfig(
            nthreads=nthreads, scheduler=SchedulerConfig(seed=seed)
        ),
        tool=ToolMux([rec, sword]),
    )
    rt.run(lambda master: w.run_program(master))
    return rec, rt


@pytest.mark.parametrize("name", WORKLOADS)
def test_proven_free_never_dynamically_racy(name, tmp_path):
    trace = tmp_path / name
    rec, rt = _veto_run(name, trace)
    td = TraceDir(trace)
    table = td.static_verdicts
    assert table is not None, "veto run must still persist the table"

    # Full dynamic analysis: every pair is decided from the events.
    analysis = api.analyze(td)
    free = {pid: entry["proven_free"] for pid, entry in table.regions.items()}
    for report in analysis.races:
        assert report.pc_a not in free.get(report.pid_a, ()), report.describe()
        assert report.pc_b not in free.get(report.pid_b, ()), report.describe()


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracle_agrees_under_the_mux(name, tmp_path):
    """SWORD (with verdicts + injection) matches the exhaustive oracle."""
    trace = tmp_path / name
    rec, rt = _veto_run(name, trace)
    analysis = api.analyze(trace)
    oracle = oracle_races(rec, rt.mutexsets)
    assert analysis.races.pc_pairs() == oracle.pc_pairs()


def test_definite_race_injection_matches_the_dynamic_witness(tmp_path):
    trace = tmp_path / "veto"
    _veto_run("staticlab_wshift", trace)
    injected = api.analyze(trace)
    # The same events without the verdict table: no report injected.
    td = TraceDir(trace)
    td.static_verdicts = None
    dynamic = api.analyze(td)
    assert dynamic.stats.sites_definite_race == 0
    assert injected.stats.sites_definite_race > 0
    # The dynamic witness and the synthesised one must coincide byte
    # for byte.
    assert _blob(injected.races) == _blob(dynamic.races)
    assert len(injected.races) == 1
