"""An access record no access can have is a trace-format defect.

A record with ``count == 0`` (or ``size == 0``, or a bulk record without a
stride) is refused the same way whatever else its site logged: strict
analysis raises :class:`TraceFormatError` (the CLI prints ``error: ...``
and exits 2), salvage abandons and counts the one pair that needed the
tree.
"""

import numpy as np
import pytest

import repro.api as api
from repro.__main__ import main
from repro.common.config import RunConfig, SwordConfig
from repro.common.errors import TraceFormatError
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool

#: Per record of the bad site: counts and strides.  "scalar": every other
#: record of the site is a scalar; "bulk": the site also logs a bulk one.
SHAPES = {
    "scalar": ([1, 0, 1], [0, 0, 0]),
    "bulk": ([2, 0, 1], [8, 8, 0]),
}


def collect(trace, counts, strides):
    """Two threads write one array; thread 0 also logs ``counts`` /
    ``strides`` records at one site."""

    def program(m):
        a = m.alloc_array("a", 16)

        def body(ctx):
            ctx.write(a, 0, float(ctx.tid))
            if ctx.tid == 0:
                ctx.record_batch(
                    a.addr(0) + 8 * np.arange(len(counts)), size=8,
                    is_write=True, pc=0x7777,
                    count=np.array(counts, np.uint32),
                    stride=np.array(strides, np.int32),
                )
        m.parallel(body, nthreads=2)

    tool = SwordTool(SwordConfig(log_dir=str(trace), static_prescreen=False))
    OpenMPRuntime(RunConfig(nthreads=2), tool=tool).run(program)


@pytest.fixture(params=sorted(SHAPES))
def bad_trace(request, tmp_path):
    trace = tmp_path / request.param
    collect(trace, *SHAPES[request.param])
    return trace


@pytest.mark.parametrize("mode", ["serial", "streaming"])
def test_strict_refuses_the_record(bad_trace, mode):
    with pytest.raises(TraceFormatError, match="malformed access record"):
        api.analyze(bad_trace, mode=mode)


@pytest.mark.parametrize("mode", ["serial", "streaming", "parallel"])
def test_salvage_abandons_the_one_pair(bad_trace, mode):
    result = api.analyze(bad_trace, mode=mode, integrity="salvage")
    assert result.integrity.pairs_skipped == 1
    assert "malformed access record" in " ".join(result.integrity.notes)


def test_cli_exit_code(bad_trace, capsys):
    assert main(["analyze", str(bad_trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed access record")
    assert "Traceback" not in err


def test_the_same_records_well_formed_are_analyzed(tmp_path):
    """The control: with count 1 in place of 0 the trace analyzes, and
    both threads' writes of ``a[0]`` race with each other and with the
    batch."""
    for counts, strides in SHAPES.values():
        trace = tmp_path / str(counts)
        collect(trace, [max(c, 1) for c in counts], strides)
        assert api.analyze(trace).race_count == 2
