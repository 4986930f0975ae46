"""E9 — regenerate the §III-A codec comparison on real trace corpora."""

import repro.harness.experiments as E
from repro.sword.traceformat import encode_payload


def test_e9_codecs(benchmark, save_result):
    table = benchmark.pedantic(
        lambda: E.codec_compare.run(workload_name="c_md", nthreads=8, repeats=3),
        rounds=1,
        iterations=1,
    )
    save_result("E9_codec_comparison", table.render())

    ratios = {
        row[0]: float(row[2].rstrip("x")) for row in table.rows
    }
    # Every codec actually compresses the (highly regular) trace records.
    for name in ("lz4", "snappy", "zlib"):
        assert ratios[name] > 2.0, name
    # The paper's observation: the LZ77-family candidates land close to one
    # another on trace data.
    assert 0.3 < ratios["lz4"] / ratios["snappy"] < 3.0


def test_e9_compress_throughput_kernels(benchmark):
    """Micro: the frame encoding of one flush buffer."""
    corpus = E.codec_compare.trace_corpus("c_jacobi01", nthreads=8)
    result = benchmark(lambda: encode_payload(corpus))
    assert len(result) < len(corpus)
