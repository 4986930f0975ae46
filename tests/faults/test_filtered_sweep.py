"""Kill-anywhere property over the legacy frame encoding.

Every other sweep in this directory cuts the frames production writes
(delta filter + zlib, :class:`SwordConfig`'s default).  Traces collected
before that default exist and stay readable, so this file sweeps their
encoding — ``lzrle``, unfiltered — too.  The encoding changes what the
codec sees, not the framing: payload CRCs cover the compressed bytes and
each block decodes independently, so a kill at any byte must salvage the
same way under both.
"""

from repro.faults.harness import frame_kill_points, kill_sweep
from repro.sword.compression import FILTER_DELTA, FILTER_NONE, by_name
from repro.sword.reader import ThreadTraceReader

LEGACY = {"codec": "lzrle", "delta_filter": False}


def test_filtered_trace_enumerates_kill_points(collected_trace):
    trace = collected_trace("figure5-truedep", **LEGACY)
    points = frame_kill_points(trace)
    kinds = {p.kind for p in points}
    assert {"boundary", "mid-header", "mid-payload", "pre-commit"} <= kinds


def test_filtered_blocks_marked_in_index(collected_trace):
    """Codec and filter ids in the block index follow the encoding."""
    # The fixture names trace dirs by seed; one seed per encoding.
    for seed, encoding, codec, filter_id in (
        (0, {}, "zlib", FILTER_DELTA),
        (1, LEGACY, "lzrle", FILTER_NONE),
    ):
        trace = collected_trace("figure5-truedep", seed=seed, **encoding)
        with ThreadTraceReader(trace, 0) as reader:
            assert reader._blocks, "trace has no flushed blocks"
            assert {ref.filter_id for ref in reader._blocks} == {filter_id}
            assert {ref.codec_id for ref in reader._blocks} == {
                by_name(codec).codec_id
            }


def test_kill_sweep_over_filtered_frames():
    result = kill_sweep(
        "figure5-truedep",
        nthreads=2,
        seed=0,
        buffer_events=64,
        max_points=12,
        **LEGACY,
    )
    assert result.points, "sweep enumerated no kill points"
    assert result.clean_races >= 1
    assert result.ok, result.summary()


def test_filtered_and_unfiltered_sweeps_agree():
    default = kill_sweep(
        "antidep1-orig-yes", nthreads=2, seed=1, buffer_events=64, max_points=6
    )
    legacy = kill_sweep(
        "antidep1-orig-yes",
        nthreads=2,
        seed=1,
        buffer_events=64,
        max_points=6,
        **LEGACY,
    )
    assert default.ok and legacy.ok
    assert default.clean_races == legacy.clean_races
