"""Load generator and throughput harness for the analysis service.

Builds a mixed trace corpus — clean traces and a deliberately damaged
one submitted in salvage mode — and drives a
:class:`~repro.serve.service.Service` with a sustained burst of
submissions from several tenants, measuring what the fleet tier is
judged on:

* **jobs/sec** — terminal jobs over the wall time of the burst;
* **p50/p99 time-to-first-race** — submission to first race merged,
  queue wait included (the production "how fast do I hear bad news");
* **parity** — every job's race set must be byte-identical to a
  single-shot :func:`repro.api.analyze` of the same trace;
* **cross-job cache hits** — shards served from the shared
  content-hashed cache instead of recomputed.

``repro serve --load`` and the throughput benchmark both run through
:func:`run_load`.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..obs import Instrumentation
from .config import ServeConfig
from .errors import BackpressureError, QuotaExceededError
from .service import Service, percentile

#: Default workloads mixed into the corpus (racy + race-free).
CORPUS_WORKLOADS = ("plusplus-orig-yes", "atomic-orig-no")


@dataclass(slots=True)
class CorpusEntry:
    """One prepared trace directory plus how to submit and check it."""

    path: Path
    integrity: str = "strict"
    #: "clean" | "salvage" — for the report breakdown.
    flavor: str = "clean"


@dataclass(slots=True)
class LoadReport:
    """What one load run measured."""

    jobs_submitted: int = 0
    jobs_finished: int = 0
    jobs_failed: int = 0
    #: Finished jobs that completed DEGRADED (quarantined shards, the
    #: merged races cover only the surviving pair coverage).
    jobs_degraded: int = 0
    rejected_quota: int = 0
    rejected_backpressure: int = 0
    elapsed_seconds: float = 0.0
    jobs_per_second: float = 0.0
    ttfr_seconds: list[float] = field(default_factory=list)
    #: True when every finished job matched single-shot analysis.
    parity_ok: bool = True
    parity_checked: int = 0
    cache_hits: int = 0
    shard_steals: int = 0
    #: Over finished jobs: concurrent pairs the planner enumerated,
    #: pairs the frame digests decided at plan time, and pairs that
    #: went out in shards.
    pairs_planned: int = 0
    pairs_pruned: int = 0
    pairs_shipped: int = 0
    flavors: dict = field(default_factory=dict)
    #: The service's own ``stats()`` at burst end (per-tenant SLOs,
    #: journal summary) — the operator's view of the same run.
    service_stats: dict = field(default_factory=dict)

    @property
    def ttfr_p50(self) -> Optional[float]:
        return percentile(self.ttfr_seconds, 0.50)

    @property
    def ttfr_p99(self) -> Optional[float]:
        return percentile(self.ttfr_seconds, 0.99)

    def to_json(self) -> dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_finished": self.jobs_finished,
            "jobs_failed": self.jobs_failed,
            "jobs_degraded": self.jobs_degraded,
            "rejected_quota": self.rejected_quota,
            "rejected_backpressure": self.rejected_backpressure,
            "elapsed_seconds": self.elapsed_seconds,
            "jobs_per_second": self.jobs_per_second,
            "ttfr_p50_seconds": self.ttfr_p50,
            "ttfr_p99_seconds": self.ttfr_p99,
            "parity_ok": self.parity_ok,
            "parity_checked": self.parity_checked,
            "cache_hits": self.cache_hits,
            "shard_steals": self.shard_steals,
            "pairs_planned": self.pairs_planned,
            "pairs_pruned": self.pairs_pruned,
            "pairs_shipped": self.pairs_shipped,
            "flavors": dict(self.flavors),
            "service": dict(self.service_stats),
        }


def damage_trace(trace_dir: Path) -> None:
    """Tear the first thread log in half (simulates a crashed producer)."""
    logs = sorted(trace_dir.glob("thread_*.log"))
    if logs:
        data = logs[0].read_bytes()
        logs[0].write_bytes(data[: max(1, len(data) // 2)])


def build_corpus(
    root: str | Path,
    *,
    nthreads: int = 4,
    seeds: tuple[int, ...] = (0, 1),
    include_salvage: bool = True,
) -> list[CorpusEntry]:
    """Collect the mixed trace corpus under ``root``.

    One clean trace per workload and seed, and optionally one damaged
    trace to be submitted in salvage mode.
    """
    from ..faults.harness import collect_trace

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    corpus: list[CorpusEntry] = []
    for name in CORPUS_WORKLOADS:
        for seed in seeds:
            plain = root / f"{name}-s{seed}"
            collect_trace(name, plain, nthreads=nthreads, seed=seed)
            corpus.append(CorpusEntry(path=plain, flavor="clean"))
    if include_salvage and corpus:
        torn = root / "torn-salvage"
        collect_trace(
            CORPUS_WORKLOADS[0], torn, nthreads=nthreads, seed=seeds[0]
        )
        damage_trace(torn)
        # Early in the rotation so even short bursts exercise salvage.
        corpus.insert(
            min(2, len(corpus)),
            CorpusEntry(path=torn, integrity="salvage", flavor="salvage"),
        )
    return corpus


class _WatchTicker:
    """Background thread printing the service's live stats line."""

    def __init__(
        self,
        service: Service,
        every: float,
        emit: Callable[[str], None] = print,
    ) -> None:
        self.service = service
        self.every = max(0.05, every)
        self.emit = emit
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-watch", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(timeout=self.every):
            self.emit(self.service.stats_line())

    def __enter__(self) -> "_WatchTicker":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.emit(self.service.stats_line())  # the final state


def run_load(
    service: Service,
    corpus: list[CorpusEntry],
    *,
    submissions: int = 24,
    tenants: int = 3,
    check_parity: bool = True,
    block: bool = True,
    timeout: float = 120.0,
    watch_every: Optional[float] = None,
    watch_emit: Callable[[str], None] = print,
) -> LoadReport:
    """Drive ``submissions`` jobs from the corpus through the service.

    Submissions round-robin over corpus entries and tenant ids, pacing
    on backpressure when ``block`` is set (the well-behaved-producer
    mode); with ``block=False`` rejections are counted instead — the
    quota/backpressure stress mode.  ``watch_every`` prints the live
    ticker line at that interval while the burst runs.
    """
    if watch_every is not None:
        with _WatchTicker(service, watch_every, watch_emit):
            return run_load(
                service,
                corpus,
                submissions=submissions,
                tenants=tenants,
                check_parity=check_parity,
                block=block,
                timeout=timeout,
            )
    report = LoadReport()
    t0 = time.perf_counter()
    job_entries: list[tuple[str, CorpusEntry]] = []
    for i in range(submissions):
        entry = corpus[i % len(corpus)]
        tenant = f"tenant-{i % max(1, tenants)}"
        try:
            job_id = service.submit(
                entry.path,
                tenant=tenant,
                integrity=entry.integrity,
                block=block,
                timeout=timeout,
            )
        except QuotaExceededError:
            report.rejected_quota += 1
            continue
        except BackpressureError:
            report.rejected_backpressure += 1
            continue
        report.jobs_submitted += 1
        job_entries.append((job_id, entry))
    for job_id, entry in job_entries:
        try:
            service.result(job_id, timeout=timeout)
        except Exception:
            report.jobs_failed += 1
            continue
        report.jobs_finished += 1
        status = service.status(job_id)
        if status["state"] == "degraded":
            report.jobs_degraded += 1
        report.cache_hits += status["cache_hits"]
        report.pairs_planned += status["pairs_planned"]
        report.pairs_pruned += status["pairs_pruned"]
        report.pairs_shipped += status["pairs_shipped"]
        if status["ttfr_seconds"] is not None:
            report.ttfr_seconds.append(status["ttfr_seconds"])
        flavor = report.flavors.setdefault(
            entry.flavor, {"finished": 0, "races": 0}
        )
        flavor["finished"] += 1
        flavor["races"] += status["races"]
    report.elapsed_seconds = time.perf_counter() - t0
    if report.elapsed_seconds > 0:
        report.jobs_per_second = (
            report.jobs_finished / report.elapsed_seconds
        )
    report.shard_steals = service.pool.steals
    report.service_stats = service.stats()
    if check_parity:
        _check_parity(service, report, job_entries)
    return report


def _check_parity(
    service: Service,
    report: LoadReport,
    job_entries: list[tuple[str, CorpusEntry]],
) -> None:
    """Compare each distinct trace's merged races with single-shot analysis."""
    import repro.api as api  # deferred: api imports the serve package

    checked: dict[Path, list] = {}
    for job_id, entry in job_entries:
        status = service.status(job_id)
        if status["state"] != "done":
            continue
        if entry.path not in checked:
            baseline = api.analyze(entry.path, integrity=entry.integrity)
            checked[entry.path] = baseline.races.to_json()
        baseline_json = checked[entry.path]
        job = service._job(job_id)
        report.parity_checked += 1
        if job.races.to_json() != baseline_json:
            report.parity_ok = False


def generate_and_run(
    *,
    config: Optional[ServeConfig] = None,
    submissions: int = 24,
    tenants: int = 3,
    nthreads: int = 4,
    corpus_dir: Optional[str] = None,
    keep_corpus: bool = False,
    check_parity: bool = True,
    obs: Optional[Instrumentation] = None,
    watch_every: Optional[float] = None,
) -> LoadReport:
    """One-call harness: build corpus, boot a service, run the load."""
    owns = corpus_dir is None
    root = Path(corpus_dir or tempfile.mkdtemp(prefix="repro-serve-corpus-"))
    try:
        corpus = build_corpus(root, nthreads=nthreads)
        with Service(config or ServeConfig(), obs=obs) as service:
            return run_load(
                service,
                corpus,
                submissions=submissions,
                tenants=tenants,
                check_parity=check_parity,
                watch_every=watch_every,
            )
    finally:
        if owns and not keep_corpus:
            shutil.rmtree(root, ignore_errors=True)
