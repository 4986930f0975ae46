"""The collector's output, pinned byte for byte.

``data/collector_golden.json`` holds SHA-256 hashes of everything the
online tool writes for a sample of registry programs, under durable on
and off and two buffer sizes: the decoded records of every thread log
(frame by frame, with each frame's stream offset), the meta files, the
run-wide tables, and the manifest minus its machine-dependent fields
(``io_seconds``, ``bytes_compressed``).  Any change to how the collector
buffers, digests, seals or writes rows that alters a single byte fails
this test.

The cases are collected in a fresh interpreter: workloads intern their
access-site pcs process-wide in first-use order, so running after other
tests would renumber them.

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python tests/sword/test_collector_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.common.config import RunConfig, SchedulerConfig, SwordConfig
from repro.omp import OpenMPRuntime
from repro.sword import SwordTool
from repro.sword.traceformat import (
    COMMIT_TRAILER_BYTES,
    FRAME_HEADER_BYTES,
    MANIFEST_NAME,
    MUTEXSETS_NAME,
    REGIONS_JOURNAL_NAME,
    REGIONS_NAME,
    TASKS_NAME,
    decode_payload,
    unpack_frame_header,
)
from repro.workloads import REGISTRY

GOLDEN = Path(__file__).parent / "data" / "collector_golden.json"

NTHREADS = 3
SEED = 0

#: Registry sample: many tiny regions, nesting, tasks, locks, static
#: verdicts (proven-free and synthesised witnesses), bulk strides.
SAMPLE = {
    "lulesh": {"steps": 4},
    "figure2-nested": {},
    "nestedparallel-orig-yes": {},
    "task-reduce-racy": {},
    "task-pipeline": {},
    "c_md": {},
    "staticlab_wshift": {},
    "staticlab_incomplete": {},
    "staticlab_disjoint": {},
    "critical-orig-no": {},
    "sectionslock-orig-no": {},
    "plusplus-orig-yes": {},
    "nowait-orig-yes": {},
    "hpccg": {},
    "minife": {},
}

CASES = [
    (name, durable, buffer_events)
    for name in SAMPLE
    for durable in (False, True)
    for buffer_events in (64, 25_000)
]

#: Manifest fields that depend on the machine, not on the collector.
_VOLATILE = ("io_seconds", "bytes_compressed")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_records_hash(path: Path) -> str:
    """Hash every frame's stream offset and decoded records, in order."""
    data = path.read_bytes()
    h = hashlib.sha256()
    pos = 0
    while pos < len(data):
        header = unpack_frame_header(data[pos : pos + FRAME_HEADER_BYTES])
        start = pos + FRAME_HEADER_BYTES
        payload = data[start : start + header.compressed_size]
        raw = decode_payload(payload, header.uncompressed_size)
        h.update(f"{header.uncompressed_offset}:{len(raw)}:".encode())
        h.update(raw)
        pos = start + header.compressed_size + COMMIT_TRAILER_BYTES
    return h.hexdigest()


def trace_hashes(trace_dir: Path) -> dict[str, str]:
    """The golden view of one trace directory."""
    out: dict[str, str] = {}
    for entry in sorted(trace_dir.iterdir()):
        name = entry.name
        if name.endswith(".log"):
            out[name] = _log_records_hash(entry)
        elif name.endswith(".meta") or name in (
            REGIONS_NAME,
            REGIONS_JOURNAL_NAME,
            TASKS_NAME,
            MUTEXSETS_NAME,
        ):
            out[name] = _sha(entry.read_bytes())
    manifest = json.loads((trace_dir / MANIFEST_NAME).read_text())
    for key in _VOLATILE:
        manifest.pop(key, None)
    out[MANIFEST_NAME] = _sha(json.dumps(manifest, sort_keys=True).encode())
    return out


def collect(name: str, durable: bool, buffer_events: int) -> dict[str, str]:
    workload = REGISTRY.get(name)
    params = SAMPLE[name]
    trace = Path(tempfile.mkdtemp(prefix="golden-"))
    try:
        tool = SwordTool(
            SwordConfig(
                log_dir=str(trace), buffer_events=buffer_events, durable=durable
            )
        )
        OpenMPRuntime(
            RunConfig(nthreads=NTHREADS, scheduler=SchedulerConfig(seed=SEED)),
            tool=tool,
        ).run(lambda m: workload.run_program(m, **params))
        return trace_hashes(trace)
    finally:
        shutil.rmtree(trace, ignore_errors=True)


def _case_id(case) -> str:
    name, durable, buffer_events = case
    return f"{name}-{'durable' if durable else 'plain'}-{buffer_events}"


def collect_all() -> dict[str, dict[str, str]]:
    return {_case_id(case): collect(*case) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def collected() -> dict:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, __file__, "--dump"],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_collector_output_matches_golden(golden, collected, case):
    assert collected[_case_id(case)] == golden[_case_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        print(json.dumps(collect_all()))
    elif sys.argv[1:] == ["--regen"]:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(collect_all(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(CASES)} cases to {GOLDEN}")
    else:
        sys.exit("usage: test_collector_golden.py --dump | --regen")
