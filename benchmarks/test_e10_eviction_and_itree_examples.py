"""E10 — regenerate the §II eviction example and the Figure-5 tree example."""

import repro.harness.experiments as E


def test_e10_eviction_example(benchmark, save_result):
    table = benchmark.pedantic(
        lambda: E.examples_demo.run_eviction(nthreads=8, seeds=range(6)),
        rounds=1,
        iterations=1,
    )
    save_result("E10a_eviction_example", table.render())

    # SWORD detects the a[0] write/read race under every schedule; the
    # 4-cell shadow memory evicts and (at least sometimes) misses it.
    for _seed, archer, evictions, sword in table.rows:
        assert sword >= 1
        assert evictions > 0
        assert archer <= sword
    assert any(row[1] < row[3] for row in table.rows), (
        "eviction should cost ARCHER at least one detection in the sweep"
    )


def test_e10_fig5_interval_trees(benchmark, save_result):
    table, system_text = benchmark.pedantic(
        lambda: E.examples_demo.run_fig5(n=1000), rounds=1, iterations=1
    )
    save_result(
        "E10b_fig5_interval_trees",
        table.render() + "\n\nOverlap constraint system (§III-B form):\n"
        + system_text,
    )
    # Two threads, ~999 accesses each, summarised into a handful of nodes.
    assert len(table.rows) == 2
    for _tid, nodes, events, depth in table.rows:
        assert events > 900
        assert nodes <= 6
        assert depth <= 4
    assert "satisfiable: True" in system_text
