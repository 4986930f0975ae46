"""Text report rendering."""

from repro.common.sourceloc import pc_of
from repro.offline import analyze_trace
from repro.offline.textreport import REPORT_NAME, render_report, write_report
from repro.sword import TraceDir

from conftest import sword_and_oracle


def _analysis(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            if ctx.tid == 0:
                ctx.write(a, 0, 1.0, pc=pc_of("rep.c", 3, "f"))
            else:
                ctx.read(a, 0, pc=pc_of("rep.c", 7, "g"))
        m.parallel(body)

    sword_and_oracle(program, trace_dir)
    return analyze_trace(TraceDir(trace_dir))


def test_render_contains_stats_and_sites(trace_dir):
    result = _analysis(trace_dir)
    text = render_report(result)
    assert "data races: 1" in text
    assert "rep.c:3" in text and "rep.c:7" in text
    assert "write" in text and "read" in text
    assert "concurrent interval pairs" in text


def test_write_report_into_trace_dir(trace_dir):
    result = _analysis(trace_dir)
    path = write_report(result, trace_dir, title="my run")
    assert path.name == REPORT_NAME
    assert "my run" in path.read_text()


def test_empty_report(trace_dir):
    def program(m):
        a = m.alloc_array("a", 8)

        def body(ctx):
            lo, hi = ctx.static_chunk(8)
            for i in range(lo, hi):
                ctx.write(a, i, 1.0)
        m.parallel(body)

    sword_and_oracle(program, trace_dir)
    result = analyze_trace(TraceDir(trace_dir))
    text = render_report(result)
    assert "data races: 0" in text
