"""Serial, parallel, and streaming analyses are byte-identical.

The engine orients every pair comparison canonically and the RaceSet keeps
the canonical witness, so the three drivers — which analyze the same pairs
in very different orders — must serialise to exactly the same bytes on
every racy workload in the registry.  Parallel mode is one job through a
short-lived service with two process workers.
"""

import json
import shutil
import tempfile

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
import repro.api as api
from repro.offline import AnalysisOptions, analyze_trace
from repro.omp import OpenMPRuntime
from repro.stream import replay_analyze
from repro.sword import SwordTool, TraceDir
from repro.workloads import REGISTRY

NTHREADS = 4
SEED = 0

#: Heavier parameterisations get scaled down for the unit-test tier
#: (mirrors tests/workloads/test_ground_truth.py).
FAST_PARAMS = {
    "lulesh": {"steps": 6},
    "amg2013_10": {"sweeps": 5},
    "amg2013_20": {"sweeps": 5},
}

#: Large-footprint runs exercised by the benchmark tier instead.
SLOW = {"amg2013_30", "amg2013_40"}

RACY = [w for w in REGISTRY if w.racy and w.name not in SLOW]


def blob(races):
    return json.dumps(races.to_json(), sort_keys=True).encode()


@pytest.mark.parametrize("workload", RACY, ids=lambda w: w.name)
def test_all_modes_byte_identical(workload):
    params = FAST_PARAMS.get(workload.name, {})
    trace_path = tempfile.mkdtemp(prefix=f"parity-{workload.name}-")
    try:
        tool = SwordTool(SwordConfig(log_dir=trace_path, buffer_events=256))
        rt = OpenMPRuntime(
            RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
            tool=tool,
        )
        rt.run(lambda m: workload.run_program(m, **params))

        # Some racy workloads are undetectable by any dynamic tool
        # (seeded_races == 0); parity must still hold on the empty set.
        serial = analyze_trace(TraceDir(trace_path)).races
        assert len(serial) == workload.seeded_races

        distributed = api.analyze(
            trace_path, mode="parallel", options=AnalysisOptions(workers=2)
        ).races
        streaming = replay_analyze(trace_path).races

        gold = blob(serial)
        assert blob(distributed) == gold
        assert blob(streaming) == gold
    finally:
        shutil.rmtree(trace_path, ignore_errors=True)
