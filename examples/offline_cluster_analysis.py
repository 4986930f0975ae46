#!/usr/bin/env python3
"""Distributed offline analysis: serial OA vs multi-worker MT.

The paper distributes SWORD's offline phase across cluster nodes (Table
III's MT column): the interval-pair comparison plan is partitioned and each
worker rebuilds only the trees it needs from the shared trace directory.
This example collects one larger trace, then runs the offline analysis
serially and through a one-job analysis service with four process
workers, verifying both report identical races.

Run:  python examples/offline_cluster_analysis.py
"""

import tempfile
import time

import repro.api as sword
from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool
from repro.workloads import REGISTRY


def main():
    trace_dir = tempfile.mkdtemp(prefix="sword-cluster-")
    workload = REGISTRY.get("amg2013_10")

    print("collecting trace (amg2013 at 10^3, 8 threads)...")
    runtime = OpenMPRuntime(
        RunConfig(nthreads=8, scheduler=SchedulerConfig(seed=0)),
        tool=SwordTool(SwordConfig(log_dir=trace_dir)),
    )
    runtime.run(lambda m: workload.run_program(m))

    t0 = time.perf_counter()
    serial = sword.analyze(trace_dir, mode="serial")
    serial_secs = time.perf_counter() - t0
    print(f"serial OA: {serial.race_count} races in {serial_secs:.2f}s "
          f"({serial.stats.concurrent_pairs} concurrent interval pairs)")

    t1 = time.perf_counter()
    parallel = sword.analyze(
        trace_dir, mode="parallel", options=sword.AnalysisOptions(workers=4)
    )
    mt_secs = time.perf_counter() - t1
    print(f"MT (4 workers): {parallel.race_count} races in {mt_secs:.2f}s")

    assert serial.races.pc_pairs() == parallel.races.pc_pairs(), \
        "distributed analysis must agree with serial"
    print("serial and distributed analyses agree.")
    for race in serial.races:
        print(" ", race.describe())


if __name__ == "__main__":
    main()
