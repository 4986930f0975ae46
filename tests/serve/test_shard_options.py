"""The options a caller submits are the options a shard's engine runs with.

``ShardSpec`` carries one ``AnalysisOptions`` instead of re-flattening a
hand-picked subset of its fields, so nothing set at ``ServeConfig``/
``Service.submit`` or ``mode="parallel"`` can be dropped on the way to
the worker (a field left out of the subset used to be).
"""

from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

import pytest

import repro.api as api
import repro.serve.workers as workers
from repro.faults.harness import collect_trace
from repro.offline.options import AnalysisOptions, FastPathOptions
from repro.serve import ServeConfig, Service


@pytest.fixture(scope="module")
def racy_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("traces") / "racy"
    collect_trace("plusplus-orig-yes", trace, nthreads=4, seed=0)
    return trace


@pytest.fixture
def engine_options(monkeypatch):
    """Every options object a shard engine is constructed with."""
    seen = []

    class RecordingEngine(workers.AnalysisEngine):
        def __init__(self, source, *, options=None, obs=None):
            seen.append(options)
            super().__init__(source, options=options, obs=obs)

    monkeypatch.setattr(workers, "AnalysisEngine", RecordingEngine)
    return seen


def via_service(trace, options):
    config = ServeConfig(
        workers=2, use_processes=False, shard_pairs=2, options=options
    )
    with Service(config) as svc:
        return svc.result(svc.submit(trace), timeout=30)


def via_parallel(trace, options, monkeypatch):
    # Same shard code path, run in-process so the recorder can see it.
    monkeypatch.setattr(
        "repro.serve.pool.ProcessPoolExecutor", ThreadPoolExecutor
    )
    return api.analyze(trace, mode="parallel", options=options.copy(workers=2))


#: One non-default value per field a submitter can set.
SUBMITTED = {
    "fastpath.result_cache": AnalysisOptions(
        fastpath=FastPathOptions(result_cache=True)
    ),
}


@pytest.mark.parametrize("entry", ["service", "parallel"])
@pytest.mark.parametrize("field", SUBMITTED)
def test_submitted_option_reaches_the_shard_engine(
    racy_trace, engine_options, monkeypatch, entry, field
):
    options = SUBMITTED[field]
    value = attrgetter(field)(options)
    assert attrgetter(field)(AnalysisOptions()) != value  # not the default
    if entry == "service":
        result = via_service(racy_trace, options)
    else:
        result = via_parallel(racy_trace, options, monkeypatch)
    assert len(engine_options) >= 2  # the job really was sharded
    assert all(attrgetter(field)(o) == value for o in engine_options)
    assert result.races.to_json() == api.analyze(racy_trace).races.to_json()
