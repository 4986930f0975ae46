"""Experiment modules at test scale: every paper shape must hold."""

import pytest

import repro.harness.experiments as E
from repro.common.config import NodeConfig


def _hpc_params(w):
    if w.name.startswith("amg"):
        return {"sweeps": 5}
    if w.name == "lulesh":
        return {"steps": 5}
    return {}


class TestE1DataRaceBench:
    def test_key_rows(self):
        table = E.drb.run(
            nthreads=4,
            include=[
                "nowait-orig-yes",
                "privatemissing-orig-yes",
                "plusplus-orig-yes",
                "indirectaccess1-orig-yes",
                "critical-orig-no",
                "atomic-orig-no",
            ],
        )
        rows = {row[0]: row for row in table.rows}
        # ARCHER misses the eviction-prone races; SWORD finds them.
        assert rows["nowait-orig-yes"][3] == 0
        assert rows["nowait-orig-yes"][4] == 1
        assert rows["privatemissing-orig-yes"][3] == 0
        assert rows["privatemissing-orig-yes"][4] == 2
        # Both tools see the undocumented plusplus extra.
        assert rows["plusplus-orig-yes"][3] == 2
        assert rows["plusplus-orig-yes"][4] == 2
        # Unexecuted-path race: everyone misses.
        assert rows["indirectaccess1-orig-yes"][3] == 0
        assert rows["indirectaccess1-orig-yes"][4] == 0
        # No false alarms.
        assert rows["critical-orig-no"][3] == 0
        assert rows["critical-orig-no"][4] == 0
        assert rows["atomic-orig-no"][4] == 0


class TestE2TableII:
    def test_sword_superset_and_new_races(self):
        table = E.ompscr_races.run(
            nthreads=4,
            include=[
                "c_md",
                "c_testPath",
                "cpp_qsomp1",
                "c_mandel",
                "c_pi",
                "c_jacobi01",
            ],
        )
        rows = {row[0]: row for row in table.rows}
        for name in ("c_md", "c_testPath", "cpp_qsomp1"):
            assert rows[name][5] > 0, f"{name}: expected sword-only races"
            assert rows[name][4] >= rows[name][2]
        # Matching detections where no mechanism is in play.
        assert rows["c_mandel"][2] == rows[name := "c_mandel"][4] == 2
        # Race-free controls stay silent for all three configurations.
        for name in ("c_pi", "c_jacobi01"):
            assert rows[name][2] == rows[name][3] == rows[name][4] == 0


class TestE3Figure6:
    def test_geomean_series_shapes(self):
        runtime_fig, memory_fig = E.ompscr_overhead.run(
            thread_counts=(2, 4), include=["c_pi", "c_jacobi01", "c_mandel"]
        )
        for fig in (runtime_fig, memory_fig):
            assert {s.label for s in fig.series} == {
                "baseline", "archer", "archer-low", "sword",
            }
            for s in fig.series:
                assert len(s.points) == 2
        # Every tool costs at least the baseline in memory.
        base = memory_fig.get("baseline").ys()
        for label in ("archer", "archer-low", "sword"):
            ys = memory_fig.get(label).ys()
            assert all(y >= b for y, b in zip(ys, base))


class TestE4TableIII:
    def test_columns_present(self):
        table = E.ompscr_offline.run(
            nthreads=2, include=["c_pi", "c_loopA.badSolution"], mt_workers=2
        )
        assert len(table.rows) == 2
        assert list(table.columns)[:3] == ["benchmark", "archer DA", "archer-low DA"]


class TestE5TableIV:
    def test_full_paper_shape(self):
        table = E.hpc_races.run(nthreads=4, params_for=_hpc_params)
        rows = {row[0]: row[1:] for row in table.rows}
        assert rows["minife"] == (0, 0, 0)
        assert rows["hpccg"] == (1, 1, 1)
        assert rows["lulesh"] == (0, 0, 0)
        for size in (10, 20, 30):
            assert rows[f"amg2013_{size}"] == (4, 4, 14)
        assert rows["amg2013_40"] == ("OOM", "OOM", 14)


class TestE6Figure7:
    def test_memory_overhead_shapes(self):
        figs = E.hpc_overhead.run(
            benchmarks=("hpccg",), thread_counts=(2, 4), params_for=_hpc_params
        )
        slow_fig, mem_fig = figs["hpccg"]
        # ARCHER memory is flat-ish in threads; SWORD memory grows linearly
        # with the team (N x 3.3 MB) but stays tiny.
        sword = mem_fig.get("sword").ys()
        assert sword[1] == pytest.approx(2 * sword[0], rel=0.01)
        archer = mem_fig.get("archer").ys()
        assert archer[0] > sword[0]
        assert {s.label for s in slow_fig.series} == {
            "archer", "archer-low", "sword", "sword-total",
        }


class TestE7Figure8:
    def test_oom_crossover(self):
        mem_fig, rt_fig, oom = E.amg_scaling.run(
            sizes=(10, 40), nthreads=2, sweeps=3
        )
        status = {row[0]: row[1:] for row in oom.rows}
        assert status[10] == ("ok", "ok", "ok", "ok")
        assert status[40] == ("ok", "OOM", "OOM", "ok")
        # SWORD's total memory tracks the baseline (app dominates).
        base = dict(mem_fig.get("baseline").points)
        sword = dict(mem_fig.get("sword").points)
        assert sword[40] < base[40] * 1.1
        # ARCHER at the surviving size is several times the baseline.
        archer = dict(mem_fig.get("archer").points)
        assert archer[10] > 4 * base[10]


class TestE8Figure1:
    def test_masking_flips_with_seed_sword_never(self):
        table = E.hb_masking.run(seeds=range(10))
        archer_counts = [row[1] for row in table.rows]
        sword_counts = [row[2] for row in table.rows]
        assert 0 in archer_counts, "some schedule must mask the race"
        assert any(c > 0 for c in archer_counts), "some schedule must catch it"
        assert all(c == 1 for c in sword_counts)


class TestE9Codecs:
    def test_all_codecs_compared(self):
        table = E.codec_compare.run(nparts=16, neighbors=2, repeats=1)
        names = table.column("codec")
        assert {"lzrle", "lz4", "snappy", "zlib"} <= set(names)
        for ratio in table.column("ratio"):
            assert float(ratio.rstrip("x")) > 0


class TestE10Examples:
    def test_eviction_demo(self):
        table = E.examples_demo.run_eviction(nthreads=4, seeds=(0, 1))
        for _seed, archer, evictions, sword in table.rows:
            assert evictions > 0
            assert sword >= 1
            assert archer <= sword

    def test_fig5_interval_trees(self):
        table, system_text = E.examples_demo.run_fig5(n=500)
        # Two threads, each with a handful of summarised nodes.
        assert len(table.rows) == 2
        for _tid, nodes, events, _depth in table.rows:
            assert events > 200
            assert nodes <= 6  # summarisation collapsed the sweep
        assert "satisfiable: True" in system_text
