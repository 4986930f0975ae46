"""E9 — §III-A codec comparison (LZO vs Snappy vs LZ4).

The paper: "We compared several open-source compression algorithms, namely
LZO, Snappy, and LZ4.  In our case, they all have similar performance and
compression ratios, and we chose LZO since it was easier to integrate."

This experiment regenerates that comparison on a real trace corpus: it runs
a workload under SWORD once, takes the raw (uncompressed) event blocks, and
measures each codec's ratio and throughput on them — once on the plain
bytes and once with the delta preconditioning filter
(:mod:`repro.sword.compression.filters`) applied first, so the table also
answers "what does the filter buy each codec".  The comparison is the
experiment, not a runtime option: the collector writes ``zlib+delta``
frames only (:func:`repro.sword.traceformat.encode_payload`).
"""

from __future__ import annotations

import time
from typing import Optional

from ...common.config import RunConfig, SchedulerConfig
from ...omp.recording import RecordingTool
from ...omp.runtime import OpenMPRuntime
from ...sword.compression import available, by_name
from ...sword.compression.filters import delta_decode, delta_encode
from ...workloads.base import REGISTRY
from ..tables import Table, fmt_bytes


def trace_corpus(workload_name: str = "c_md", nthreads: int = 8, **params) -> bytes:
    """Raw event bytes of one workload's trace (pre-compression)."""
    from ...common.events import accesses_to_records

    rec = RecordingTool()
    rt = OpenMPRuntime(
        RunConfig(nthreads=nthreads, scheduler=SchedulerConfig(seed=0)),
        tool=rec,
    )
    w = REGISTRY.get(workload_name)
    rt.run(lambda m: w.run_program(m, **params))
    accesses = [e.access for e in rec.accesses()]
    return accesses_to_records(accesses).tobytes()


def run(
    workload_name: str = "c_md",
    nthreads: int = 8,
    codecs: Optional[list[str]] = None,
    repeats: int = 3,
    **params,
) -> Table:
    """Compress one trace corpus with every codec; compare ratio and speed.

    Each codec appears twice: on the plain corpus and on the
    delta-filtered corpus (suffix ``+delta``); the filtered rows include
    the filter's encode time in the compression throughput, so the
    comparison reflects what the online logger actually pays.
    """
    corpus = trace_corpus(workload_name, nthreads, **params)
    table = Table(
        f"E9 / codec comparison on {workload_name} trace "
        f"({fmt_bytes(len(corpus))} of events)",
        ["codec", "compressed", "ratio", "compress MB/s", "decompress MB/s"],
    )
    mb = len(corpus) / 1e6
    for name in codecs or available():
        codec = by_name(name)
        for label, delta in ((name, False), (f"{name}+delta", True)):
            best_c = float("inf")
            best_d = float("inf")
            compressed = b""
            for _ in range(repeats):
                t0 = time.perf_counter()
                compressed = codec.compress(
                    delta_encode(corpus) if delta else corpus
                )
                best_c = min(best_c, time.perf_counter() - t0)
                t1 = time.perf_counter()
                out = codec.decompress(compressed, len(corpus))
                if delta:
                    out = delta_decode(out)
                best_d = min(best_d, time.perf_counter() - t1)
                if out != corpus:
                    raise AssertionError(f"{label}: corrupted roundtrip")
            table.add(
                label,
                fmt_bytes(len(compressed)),
                f"{len(corpus) / max(len(compressed), 1):.2f}x",
                f"{mb / best_c:.1f}" if best_c else "-",
                f"{mb / best_d:.1f}" if best_d else "-",
            )
    table.note("paper: candidates performed similarly; LZO chosen for integration ease")
    table.note("+delta rows precondition addr/pc with the v2 frame delta filter")
    table.note("trace frames: zlib+delta, the only encoding the collector writes")
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
