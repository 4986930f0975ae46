"""The ``python -m repro`` command-line interface."""

import json
import shutil

import pytest

from repro.__main__ import main
from repro.api import JSON_SCHEMA_VERSION
from repro.common.config import RunConfig, SwordConfig
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out and "c_md" in out


def test_list_workloads_suite_filter(capsys):
    assert main(["list-workloads", "--suite", "hpc"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out
    assert "c_md" not in out


def test_check_sword(capsys):
    # Exit 1: races found (0 is reserved for a clean run).
    assert main(["check", "plusplus-orig-yes", "--threads", "2"]) == 1
    out = capsys.readouterr().out
    assert "races: 2" in out


def test_check_clean_exit_code(capsys):
    assert main(["check", "atomic-orig-no", "--threads", "2"]) == 0
    assert "races: 0" in capsys.readouterr().out


def test_check_baseline(capsys):
    assert main(["check", "c_pi", "--tool", "baseline", "--threads", "2"]) == 0
    assert "race checking disabled" in capsys.readouterr().out


def test_check_oom_exit_code(capsys):
    assert main(["check", "amg2013_40", "--tool", "archer", "--threads", "2"]) == 2
    assert "OUT OF MEMORY" in capsys.readouterr().out


def test_list_workloads_json(capsys):
    assert main(["list-workloads", "--suite", "hpc", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any(w["name"] == "hpccg" for w in payload)
    assert {"name", "suite", "racy", "seeded_races", "archer_misses"} <= set(
        payload[0]
    )


def test_check_json(capsys):
    assert main(["check", "plusplus-orig-yes", "--threads", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["exit_code"] == 1
    assert payload["exit_meaning"] == "races found"
    assert payload["tool"] == "sword"
    assert len(payload["races"]) == 2
    assert {"pc_a", "pc_b", "address", "description"} <= set(payload["races"][0])
    # The shared metrics schema rides along under a stable key.
    metrics = payload["metrics"]
    assert set(metrics) == {"counters", "gauges", "histograms"}
    assert metrics["counters"]["sword.events"] == payload["stats"]["events"]
    assert metrics["counters"]["membound.violations"] == 0
    assert payload["stats"]["offline"]["intervals"] > 0


def test_check_metrics_and_trace_events(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "check", "plusplus-orig-yes", "--threads", "2",
                "--metrics", str(metrics_path),
                "--trace-events", str(trace_path),
            ]
        )
        == 1
    )
    capsys.readouterr()
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["sword.events"] > 0
    trace = json.loads(trace_path.read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    # Nested online and offline phases are both on the timeline.
    assert {"online", "offline", "flush", "tree-build"} <= names


def test_check_metrics_prometheus(tmp_path, capsys):
    prom_path = tmp_path / "metrics.prom"
    assert (
        main(
            ["check", "plusplus-orig-yes", "--threads", "2",
             "--metrics", str(prom_path)]
        )
        == 1
    )
    capsys.readouterr()
    text = prom_path.read_text()
    assert "repro_sword_events_total" in text
    assert 'le="+Inf"' in text


def test_watch_prints_live_races(capsys):
    assert main(["watch", "plusplus-orig-yes", "--threads", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("[live]") == 2
    assert "races: 2" in out
    assert "first-race=" in out


def test_watch_json(capsys):
    assert main(["watch", "plusplus-orig-yes", "--threads", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["exit_code"] == 1
    assert len(payload["races"]) == 2
    assert payload["time_to_first_race"] is not None
    assert payload["pairs_analyzed"] > 0
    assert payload["metrics"]["counters"]["stream.pairs_analyzed"] > 0
    assert set(payload["stats"]["streaming"]) >= {"intervals", "races_found"}


def test_watch_stats_ticker(capsys):
    assert (
        main(["watch", "c_md", "--threads", "2", "--stats-every", "0"]) in (0, 1)
    )
    out = capsys.readouterr().out
    assert "[stats]" in out
    assert "events=" in out


def test_unknown_experiment(capsys):
    assert main(["experiment", "E99"]) == 1


def test_analyze_trace(tmp_path, capsys):
    trace = tmp_path / "trace"

    def program(m):
        a = m.alloc_scalar("a")

        def body(ctx):
            ctx.write(a, 0, float(ctx.tid))
        m.parallel(body, nthreads=2)

    tool = SwordTool(SwordConfig(log_dir=str(trace)))
    OpenMPRuntime(RunConfig(nthreads=2), tool=tool).run(program)
    assert main(["analyze", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "races: 1" in out
    assert main(["analyze", str(trace), "--workers", "2"]) == 1
    capsys.readouterr()
    assert main(["analyze", str(trace), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["exit_code"] == 1
    assert len(payload["races"]) == 1
    assert payload["stats"]["intervals"] > 0
    assert payload["metrics"]["counters"]["offline.trees_built"] > 0
    capsys.readouterr()
    events_path = tmp_path / "trace-events.json"
    assert (
        main(["analyze", str(trace), "--trace-events", str(events_path)]) == 1
    )
    doc = json.loads(events_path.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"analyze", "offline", "tree-build"} <= names


def test_analyze_modes_and_fastpath_flags(tmp_path, capsys):
    trace = tmp_path / "trace"

    def program(m):
        a = m.alloc_scalar("a")

        def body(ctx):
            ctx.write(a, 0, float(ctx.tid))
        m.parallel(body, nthreads=2)

    tool = SwordTool(SwordConfig(log_dir=str(trace)))
    OpenMPRuntime(RunConfig(nthreads=2), tool=tool).run(program)

    payloads = {}
    for mode in ("serial", "parallel", "streaming"):
        assert main(["analyze", str(trace), "--mode", mode, "--json"]) == 1
        payloads[mode] = json.loads(capsys.readouterr().out)
    assert (
        payloads["serial"]["races"]
        == payloads["parallel"]["races"]
        == payloads["streaming"]["races"]
    )

    # There is one analysis path: the old switch to an unpruned one is
    # an unknown flag (argparse's usage error, exit 2).
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace), "--no-fastpath", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()

    # --cache: second run serves pair verdicts from disk, same races.
    assert main(["analyze", str(trace), "--cache", "--json"]) == 1
    cold = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(trace), "--cache", "--json"]) == 1
    warm = json.loads(capsys.readouterr().out)
    assert warm["races"] == cold["races"] == payloads["serial"]["races"]
    assert warm["metrics"]["counters"]["offline.pair_cache_hits"] > 0
    assert (trace / ".sword-cache").is_dir()

    # A cache root that is a file, or lies under one, is an error, not a
    # run that caches nothing.
    not_a_dir = tmp_path / "cache-file"
    not_a_dir.write_text("")
    for cache_dir in (not_a_dir, not_a_dir / "sub"):
        assert main(["analyze", str(trace), "--cache-dir", str(cache_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cache_dir ")
        assert "not a directory" in captured.err and "races" not in captured.out


def _durable_trace(trace):
    """A small durable trace (journal + per-row CRCs) for salvage tests."""
    from repro.faults.harness import collect_trace

    collect_trace(
        "antidep1-orig-yes", trace, nthreads=2, seed=0, buffer_events=64
    )


def test_analyze_salvage_flag(tmp_path, capsys):
    trace = tmp_path / "trace"
    _durable_trace(trace)
    # A deleted thread log: strict names it, uniform error exit.
    lost = tmp_path / "lost"
    shutil.copytree(trace, lost)
    (lost / "thread_1.log").unlink()
    assert main(["analyze", str(lost)]) == 2
    assert f"error: {lost / 'thread_1.log'}: missing" in capsys.readouterr().err
    # Tear the tail of one thread log: strict now refuses the trace.
    log = next(trace.glob("thread_*.log"))
    log.write_bytes(log.read_bytes()[:-5])
    # Strict mode refuses the torn trace: uniform error exit, no traceback.
    assert main(["analyze", str(trace)]) == 2
    capsys.readouterr()
    assert main(["analyze", str(trace), "--salvage"]) in (0, 1)
    out = capsys.readouterr().out
    assert "integrity:" in out
    capsys.readouterr()
    assert main(["analyze", str(trace), "--salvage", "--json"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["integrity"]["mode"] == "salvage"
    assert payload["integrity"]["races_possibly_missed"] is True
    assert payload["integrity"]["threads"]  # per-thread ledgers present


def test_check_salvage_flag(capsys):
    assert main(
        ["check", "plusplus-orig-yes", "--threads", "2", "--salvage", "--json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["integrity"]["mode"] == "salvage"
    assert payload["integrity"]["clean"] is True  # nothing was injected
    assert len(payload["races"]) == 2  # same verdicts as strict


def test_faults_inject_cli(tmp_path, capsys):
    trace = tmp_path / "trace"
    _durable_trace(trace)
    plan_path = tmp_path / "plan.json"
    assert main([
        "faults", "inject", str(trace),
        "--seed", "7", "--actions", "3", "--plan-out", str(plan_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "applied" in out
    plan = json.loads(plan_path.read_text())
    assert plan["seed"] == 7
    assert len(plan["actions"]) == 3
    # The injected trace still analyses in salvage mode (never crashes).
    assert main(["analyze", str(trace), "--salvage"]) in (0, 1)


def test_faults_inject_bad_dir_exit_code(tmp_path, capsys):
    assert main(["faults", "inject", str(tmp_path / "nope")]) == 2


def test_faults_sweep_cli(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    assert main([
        "faults", "sweep", "antidep1-orig-yes",
        "--threads", "2", "--buffer-events", "64",
        "--max-points", "6", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "kill-point sweep" in out or "PASS" in out
    artifact = json.loads(out_path.read_text())
    assert artifact["ok"] is True
    assert artifact["exit_code"] == 0
    assert artifact["points"]
    lossy = [p for p in artifact["points"] if p["kind"] != "clean-end"]
    assert all(p["integrity"] for p in lossy)
    # The frame encoding is not a sweep option.
    with pytest.raises(SystemExit) as exc:
        main(["faults", "sweep", "--no-delta-filter"])
    assert exc.value.code == 2


def test_check_json_reports_verdict_counts(capsys):
    assert main(["check", "staticlab_wshift", "--threads", "4", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert stats["sites_definite_race"] == 2
    assert stats["events_elided"] > 0
    assert stats["offline"]["events_elided"] == stats["events_elided"]
    assert len(payload["races"]) == 1


def test_check_no_static_flag(capsys):
    # Same race set, nothing elided: the escape hatch restores full
    # instrumentation.
    assert main(
        ["check", "staticlab_wshift", "--threads", "4",
         "--no-static", "--json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["events_elided"] == 0
    assert payload["stats"]["sites_definite_race"] == 0
    assert len(payload["races"]) == 1


def test_analyze_no_static_flag(tmp_path, capsys):
    from repro.harness.tools import SwordDriver
    from repro.workloads import REGISTRY

    trace = tmp_path / "trace"
    SwordDriver().run(
        REGISTRY.get("staticlab_wshift"),
        nthreads=4,
        trace_dir=str(trace),
        keep_trace=True,
        run_offline=False,
    )
    # The synthesised race is injected from the trace's verdict table.
    assert main(["analyze", str(trace), "--json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["races"]) == 1
    # The offline phase has no static switch: only `check` takes one.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace), "--no-static"])
    assert exc.value.code == 2


def test_serve_refuses_a_state_dir_without_the_cache(tmp_path, capsys):
    # Refused before any corpus is collected or service booted.
    state = tmp_path / "state"
    argv = ["serve", "--in-process", "--submissions", "1", "--threads", "2"]
    assert main(argv + ["--state-dir", str(state), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "result_cache" in err
    assert not state.exists()
