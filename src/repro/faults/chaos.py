"""Service chaos harness: kill-anywhere, lifted to the analysis service.

PR 4's kill sweep proved the *trace* tier crash-tolerant: truncate the
bytes anywhere and salvage analysis yields a clean subset.  This module
proves the same discipline for the *service* tier's durable-recovery
layer:

* :func:`resume_sweep` — the SIGKILL-between-WAL-records property.  Run
  a reference service to completion, then for every prefix of its WAL
  (including torn-tail variants that cut a record mid-line) reconstruct
  the state directory exactly as a kill at that boundary would leave it
  — the WAL prefix plus only the result-cache pair entries that prefix
  proves durable — and boot a fresh service on it.  Every unfinished job
  must complete with a race set byte-identical to the uninterrupted run,
  and no pair of a shard the WAL logged done may be compared again.

* :func:`poison_degradation` — the graceful-degradation scenario.
  Poison chosen shards (non-retryable failure, or a stall past the
  shard timeout) and verify the job finishes ``DEGRADED``: the merged
  race set is a subset of the clean answer, the
  :class:`~repro.serve.job.DegradationReport` names exactly the poison
  shards, and its pair-coverage fraction is arithmetically exact.

Both run the service with thread workers — deterministic, cheap, and
the substrate where a "kill" can be simulated faithfully by
construction instead of an actual SIGKILL racing the filesystem.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..offline.cache import ResultCache
from ..offline.options import AnalysisOptions
from ..serve import DEGRADED, ServeConfig, Service, TenantQuota
from ..serve.config import CACHE_NAME
from ..serve.shards import plan_shards
from ..serve.wal import WAL_NAME, replay_wal
from ..workloads.base import Workload
from .harness import collect_trace

#: Workloads the chaos scenarios run by default: racy (a non-empty race
#: set makes byte-identity a real check) and small enough for smoke CI.
#: At the default 4 threads, 6 of its 12 concurrent pairs survive the
#: plan-time prune — two shards at ``shard_pairs=4``, so shard 1 exists.
DEFAULT_WORKLOAD = "plusplus-orig-yes"

#: Thread workers of every chaos service (also the plans' ``min_shards``).
WORKERS = 2


def _service_config(
    state_dir: Path,
    *,
    shard_pairs: int,
    quarantine: bool = True,
    shard_timeout_s: Optional[float] = None,
) -> ServeConfig:
    return ServeConfig(
        workers=WORKERS,
        use_processes=False,
        shard_pairs=shard_pairs,
        state_dir=str(state_dir),
        quota=TenantQuota(max_pending=16),
        shard_timeout_s=shard_timeout_s,
        quarantine=quarantine,
        shard_backoff_jitter_seed=0,
    )


def _wait_all(service: Service, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    for snapshot in service.jobs():
        job = service._job(snapshot["job_id"])
        if not job.done.wait(timeout=max(0.0, deadline - time.monotonic())):
            raise TimeoutError(f"job {job.job_id} never reached a terminal state")


# -- the resume sweep ----------------------------------------------------------


@dataclass(slots=True)
class ResumePointResult:
    """One restart: WAL truncated to ``records`` lines (``torn`` cuts
    the next line mid-byte instead of dropping it cleanly)."""

    records: int
    torn: bool
    jobs_resumed: int = 0
    jobs_checked: int = 0
    identical: bool = True
    #: Pairs of WAL-done shards the resumed run compared again (must
    #: stay 0).
    reexecuted: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.identical and self.reexecuted == 0

    def to_json(self) -> dict:
        return {
            "records": self.records,
            "torn": self.torn,
            "jobs_resumed": self.jobs_resumed,
            "jobs_checked": self.jobs_checked,
            "identical": self.identical,
            "reexecuted": self.reexecuted,
            "ok": self.ok,
            "error": self.error,
        }


@dataclass(slots=True)
class ResumeSweepResult:
    """Every WAL boundary of one reference run, restarted and checked."""

    workload: str
    seed: int
    jobs: int
    wal_records: int
    clean_races: int
    points: list[ResumePointResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.points) and all(p.ok for p in self.points)

    @property
    def failures(self) -> list[ResumePointResult]:
        return [p for p in self.points if not p.ok]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "jobs": self.jobs,
            "wal_records": self.wal_records,
            "clean_races": self.clean_races,
            "restart_points": len(self.points),
            "ok": self.ok,
            "points": [p.to_json() for p in self.points],
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} point(s))"
        return (
            f"resume-sweep {self.workload}: {len(self.points)} restart "
            f"point(s) over {self.wal_records} WAL record(s), "
            f"clean races={self.clean_races} -> {status}"
        )


def _reference_run(
    root: Path,
    traces: list[Path],
    *,
    shard_pairs: int,
) -> tuple[dict[str, dict], Path]:
    """Run every trace through one durable service to completion.

    Returns the per-job reference facts (race-set JSON and, per shard of
    the job's plan, the names of its pairs' result-cache entries) and
    the reference state dir.
    """
    state = root / "ref-state"
    reference: dict[str, dict] = {}
    with Service(_service_config(state, shard_pairs=shard_pairs)) as svc:
        ids = [svc.submit(trace) for trace in traces]
        for job_id, trace in zip(ids, traces):
            result = svc.result(job_id, timeout=120)
            reference[job_id] = {
                "races": result.races.to_json(),
                "entries": shard_pair_entries(trace, shard_pairs),
            }
    return reference, state


def shard_pair_entries(
    trace: Path, shard_pairs: int, workers: int = WORKERS
) -> list[list[str]]:
    """Per shard of the trace's strict service plan, the file names of
    its pairs' entries under the result cache's ``pairs/``."""
    plan = plan_shards(
        trace,
        options=AnalysisOptions(),
        shard_pairs=shard_pairs,
        min_shards=workers,
    )
    cache = ResultCache(trace)
    return [
        [cache.pairs.path(cache.pair_token(*pair)).name for pair in spec.pairs]
        for spec in plan.shards
    ]


def _build_killed_state(
    ref_state: Path,
    dest: Path,
    lines: list[bytes],
    torn_next: bool,
    reference: dict[str, dict],
) -> dict[Path, int]:
    """Reconstruct the state dir a kill at this WAL boundary leaves.

    The WAL is the byte-exact prefix (plus, for ``torn_next``, the
    first half of the next record — the torn line a mid-``append`` kill
    leaves, which salvage replay must drop).  Result-cache pair entries
    are copied *only* for shards the prefix logs done: ``shard-done`` is
    appended after the shard returned, so at kill time every pair entry
    of a logged shard exists — and nothing else is guaranteed.  Returns
    each copied entry with its inode: a pair compared again is stored
    again, which replaces the file.
    """
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    kept = len(lines) - (1 if torn_next else 0)
    wal_bytes = b"".join(lines[:kept])
    if torn_next:
        tail = lines[kept]
        wal_bytes += tail[: max(1, len(tail) // 2)]
    (dest / WAL_NAME).write_bytes(wal_bytes)
    src = ref_state / CACHE_NAME / "pairs"
    dst = dest / CACHE_NAME / "pairs"
    dst.mkdir(parents=True)
    carried: dict[Path, int] = {}
    for job in replay_wal(dest / WAL_NAME).jobs.values():
        entries = reference[job.job_id]["entries"]
        for index in job.shards_done:
            for name in entries[index]:
                if dst / name not in carried:
                    shutil.copy2(src / name, dst / name)
                    carried[dst / name] = (dst / name).stat().st_ino
    return carried


def resume_sweep(
    workload: Union[str, Workload] = DEFAULT_WORKLOAD,
    *,
    jobs: int = 2,
    nthreads: int = 4,
    seed: int = 0,
    shard_pairs: int = 8,
    max_points: Optional[int] = None,
    keep_root: str | Path | None = None,
) -> ResumeSweepResult:
    """The restart-at-any-WAL-boundary property check.

    ``jobs`` identical submissions of one collected trace give the WAL
    interleaved multi-job structure; ``shard_pairs`` keeps shards small
    so plenty of ``shard-done`` boundaries exist.  ``max_points``
    subsamples the restart points evenly for smoke runs.
    """
    root = Path(keep_root) if keep_root else Path(
        tempfile.mkdtemp(prefix="sword-chaos-")
    )
    root.mkdir(parents=True, exist_ok=True)
    try:
        trace = root / "trace"
        collect_trace(workload, trace, nthreads=nthreads, seed=seed)
        traces = [trace] * jobs
        reference, ref_state = _reference_run(
            root, traces, shard_pairs=shard_pairs
        )
        wal_bytes = (ref_state / WAL_NAME).read_bytes()
        lines = wal_bytes.decode("utf-8").splitlines(keepends=True)
        name = workload if isinstance(workload, str) else workload.name
        result = ResumeSweepResult(
            workload=name,
            seed=seed,
            jobs=jobs,
            wal_records=len(lines),
            clean_races=max(
                len(ref["races"]) for ref in reference.values()
            ),
        )
        # Every clean boundary (0..n records kept), then every torn cut.
        points = [(k, False) for k in range(len(lines) + 1)]
        points += [(k, True) for k in range(1, len(lines) + 1)]
        if max_points is not None and len(points) > max_points:
            step = len(points) / max_points
            points = [points[int(i * step)] for i in range(max_points)]
        raw_lines = [line.encode("utf-8") for line in lines]
        for index, (kept, torn) in enumerate(points):
            point = ResumePointResult(records=kept, torn=torn)
            result.points.append(point)
            state = root / f"restart-{index:03d}"
            try:
                carried = _build_killed_state(
                    ref_state, state, raw_lines[:kept], torn, reference
                )
                point.jobs_checked, point.jobs_resumed = _check_restart(
                    state, reference, point, shard_pairs
                )
                point.reexecuted = sum(
                    not path.exists() or path.stat().st_ino != inode
                    for path, inode in carried.items()
                )
            except Exception as exc:  # the property forbids ANY crash
                point.error = f"{type(exc).__name__}: {exc}"
            finally:
                shutil.rmtree(state, ignore_errors=True)
        return result
    finally:
        if keep_root is None:
            shutil.rmtree(root, ignore_errors=True)


def _check_restart(
    state: Path,
    reference: dict[str, dict],
    point: ResumePointResult,
    shard_pairs: int,
) -> tuple[int, int]:
    """Boot a service on a killed state dir and check every resumed
    job's races against the uninterrupted run."""
    replay = replay_wal(state / WAL_NAME)
    expected_resume = {j.job_id for j in replay.unfinished}
    with Service(_service_config(state, shard_pairs=shard_pairs)) as svc:
        _wait_all(svc)
        checked = 0
        for job_id in expected_resume:
            ref = reference.get(job_id)
            if ref is None:
                point.error = f"resumed unknown job {job_id}"
                break
            result = svc.result(job_id, timeout=120)
            checked += 1
            if result.races.to_json() != ref["races"]:
                point.identical = False
        return checked, len(expected_resume)


# -- poison-shard degradation --------------------------------------------------


@dataclass(slots=True)
class DegradationScenarioResult:
    """One poison-shard run checked against its clean reference."""

    workload: str
    seed: int
    poison_shards: list[int] = field(default_factory=list)
    stalled_shards: list[int] = field(default_factory=list)
    state: str = ""
    clean_races: int = 0
    degraded_races: int = 0
    subset_ok: bool = False
    quarantine_exact: bool = False
    coverage_exact: bool = False
    wal_agrees: bool = False
    report: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and self.state == DEGRADED
            and self.subset_ok
            and self.quarantine_exact
            and self.coverage_exact
            and self.wal_agrees
        )

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "poison_shards": self.poison_shards,
            "stalled_shards": self.stalled_shards,
            "state": self.state,
            "clean_races": self.clean_races,
            "degraded_races": self.degraded_races,
            "subset_ok": self.subset_ok,
            "quarantine_exact": self.quarantine_exact,
            "coverage_exact": self.coverage_exact,
            "wal_agrees": self.wal_agrees,
            "ok": self.ok,
            "report": self.report,
            "error": self.error,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        coverage = self.report.get("pair_coverage")
        return (
            f"poison-degradation {self.workload}: state={self.state} "
            f"races={self.degraded_races}/{self.clean_races} "
            f"coverage={coverage if coverage is not None else '-'} -> {status}"
        )


def poison_degradation(
    workload: Union[str, Workload] = DEFAULT_WORKLOAD,
    *,
    nthreads: int = 4,
    seed: int = 0,
    shard_pairs: int = 4,
    poison: tuple[int, ...] = (1,),
    stall: tuple[int, ...] = (),
    shard_timeout_s: Optional[float] = None,
    keep_root: str | Path | None = None,
) -> DegradationScenarioResult:
    """Poison chosen shards and verify graceful degradation.

    ``poison`` shards raise a non-retryable error on every attempt (the
    exhausted-retry-budget poison); ``stall`` shards sleep past
    ``shard_timeout_s`` once, exercising the liveness deadline, then
    fail poisoned too.  The job must finish ``DEGRADED`` with an exact
    quarantine list, an exact pair-coverage fraction, a subset race
    set, and a WAL ``finalized`` record that agrees.
    """
    name = workload if isinstance(workload, str) else workload.name
    result = DegradationScenarioResult(
        workload=name,
        seed=seed,
        poison_shards=sorted(poison),
        stalled_shards=sorted(stall),
    )
    root = Path(keep_root) if keep_root else Path(
        tempfile.mkdtemp(prefix="sword-chaos-poison-")
    )
    root.mkdir(parents=True, exist_ok=True)
    try:
        trace = root / "trace"
        collect_trace(workload, trace, nthreads=nthreads, seed=seed)
        # Clean reference: same service shape, nothing poisoned.
        with Service(
            _service_config(root / "clean-state", shard_pairs=shard_pairs)
        ) as svc:
            clean = svc.result(svc.submit(trace), timeout=120)
        clean_json = clean.races.to_json()
        result.clean_races = len(clean_json)
        state = root / "poison-state"
        config = _service_config(
            state,
            shard_pairs=shard_pairs,
            shard_timeout_s=shard_timeout_s,
        )
        with Service(config) as svc:
            sabotage(svc, poison=poison, stall=stall, timeout_s=shard_timeout_s)
            job_id = svc.submit(trace)
            job = svc._job(job_id)
            job.done.wait(timeout=120)
            result.state = job.state
            result.error = job.error  # job-fatal only: a refused target
            degraded_json = job.races.to_json()
            result.degraded_races = len(degraded_json)
            result.subset_ok = set(map(str, degraded_json)) <= set(
                map(str, clean_json)
            )
            report = job.degradation.to_json() if job.degradation else {}
            result.report = report
            bad = sorted(set(poison) | set(stall))
            result.quarantine_exact = (
                report.get("shards_quarantined") == bad
            )
            pairs_total = report.get("pairs_total", 0)
            pairs_missing = report.get("pairs_missing", 0)
            result.coverage_exact = bool(pairs_total) and abs(
                report.get("pair_coverage", -1.0)
                - (1.0 - pairs_missing / pairs_total)
            ) < 1e-9
        replay = replay_wal(state / WAL_NAME)
        job_replay = replay.jobs.get(job_id)
        result.wal_agrees = (
            job_replay is not None and job_replay.final_state == result.state
        )
        return result
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        if keep_root is None:
            shutil.rmtree(root, ignore_errors=True)


def sabotage(
    service: Service,
    *,
    poison: tuple[int, ...] = (),
    stall: tuple[int, ...] = (),
    timeout_s: Optional[float] = None,
) -> None:
    """Wrap the service pool's execution seam with injected faults.

    ``poison`` pair-shard indices raise a non-retryable error on every
    attempt; ``stall`` indices run to completion but only after sleeping
    past ``timeout_s``, so the pool's deadline fires (and keeps firing
    on the requeued attempts) until the shard's crash budget is spent.
    Thread-worker services only — the seam does not cross processes.

    A job whose plan has no shard at a requested index fails with a
    ``chaos:`` error instead of running unsabotaged: plans hold only the
    pairs that survive the plan-time prune, so a target that vanished
    must not let a scenario pass vacuously.
    """
    targets = set(poison) | set(stall)
    plan_job = service.scheduler._plan

    def checked_plan(job):
        plan = plan_job(job)
        missing = sorted(i for i in targets if i >= len(plan.shards))
        if missing:
            raise ValueError(
                f"chaos: no shard {missing} to sabotage, the plan of "
                f"{job.trace_path} has {len(plan.shards)} shard(s)"
            )
        return plan

    service.scheduler._plan = checked_plan
    original = service.pool._execute

    def chaotic(spec):
        index = getattr(spec, "index", None)
        if index in poison:
            raise RuntimeError(f"chaos: poisoned shard {index}")
        if index in stall and timeout_s is not None:
            time.sleep(timeout_s * 1.5)
        return original(spec)

    service.pool._execute = chaotic
