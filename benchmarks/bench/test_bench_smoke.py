"""Smoke test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/bench/test_bench_smoke.py

Runs every workload at ``--smoke`` scale (tiny sizes, one round) and
checks the shape of what comes out; it measures nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(p) for p in (ROOT, ROOT / "src") if str(p) not in sys.path]

from benchmarks.bench import compare  # noqa: E402
from repro.obs.schema import validate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    done = run_bench(
        out, "--out", str(out / "result.json"), "--trace-out", str(out / "tr")
    )
    assert done.returncode == 0, done.stdout
    return out, json.loads((out / "result.json").read_text())


def test_result_validates_against_schema(smoke):
    _out, result = smoke
    schema = json.loads((HERE / "schema.json").read_text())
    assert validate(result, schema) == []
    assert result["claim"] is None


def test_names_are_exactly_those_declared(smoke):
    _out, result = smoke
    workloads = [w["name"] for w in BENCH["workloads"]]
    assert sorted(result["workloads"]) == sorted(workloads)
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert all(NAME.match(name) for name in declared)
        for workload in workloads:
            run = result["workloads"][workload][kind]
            assert run["correct"] and run["failed"] == 0
            units = {n: m["unit"] for n, m in run["metrics"].items()}
            assert units == declared, (workload, kind)


def test_every_verdict_is_right(smoke):
    _out, result = smoke
    for run in result["workloads"].values():
        metrics = run["end_to_end"]["metrics"]
        assert metrics["verdict_ok_share"]["value"] == 1.0
        assert metrics["completed_share"]["value"] == 1.0
        assert metrics["tool_mem_bound_ratio"]["value"] <= 1.0


def test_chrome_traces_load_and_spans_have_parents(smoke):
    out, _result = smoke
    for workload in (w["name"] for w in BENCH["workloads"]):
        trace = json.loads((out / "tr" / f"{workload}.trace.json").read_text())
        events = trace["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        assert len(ids) == len(events) > 0
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            assert event["args"]["workload"] == workload
            parent = event["args"]["parent"]
            assert parent is None or parent in ids
        names = {e["name"] for e in events}
        assert {"offline.analyze", "offline.engine.pairs"} <= names


def test_layers_cover_the_traced_analysis(smoke):
    _out, result = smoke
    for name, run in result["workloads"].items():
        share = run["per_layer"]["metrics"]["bench.analyze_attributed_share"]
        assert share["value"] >= 0.9, name


def test_single_run_ends_with_the_contract_line(tmp_path):
    done = run_bench(tmp_path, "--workload", "solve_heavy", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(sorted(m) == ["unit", "value"] for m in line["metrics"].values())
    assert not (tmp_path / ".bench_tmp").exists() or not any(
        (tmp_path / ".bench_tmp").iterdir()
    )


def test_compare_of_a_result_with_itself_is_ok(smoke):
    _out, result = smoke
    rows = compare.compare(result, result, BENCH)
    assert len(rows) == len(BENCH["workloads"]) * len(BENCH["end_to_end"])
    assert {row[-1] for row in rows} <= {"ok", "unresolved"}
    worse = json.loads(json.dumps(result))
    slow = worse["workloads"]["solve_heavy"]["end_to_end"]["metrics"]["check_s"]
    for key in ("value", "q1", "q3"):
        slow[key] *= 2
    slow["samples"] = [2 * x for x in slow["samples"]]
    verdicts = {
        (row[0], row[1]): row[-1]
        for row in compare.compare(result, worse, BENCH)
    }
    assert verdicts[("solve_heavy", "check_s")] == "worse"
