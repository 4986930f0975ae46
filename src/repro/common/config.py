"""Configuration objects for the runtime, the tools, and the simulated node.

All sizes are bytes.  Defaults mirror the paper's reported constants:

* SWORD's per-thread event buffer holds 25,000 events (~2 MB) and the OMPT +
  auxiliary thread-local storage adds ~1.3 MB, for ~3.3 MB/thread total
  (paper §III-A, "Bounded Dynamic Analysis Overhead").
* ARCHER keeps 4 shadow cells per 8-byte application word; with per-thread
  overhead this lands in the paper's observed 5-7x region (§I, §IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .errors import ConfigError

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

#: Paper constant: events per SWORD buffer before a flush.
SWORD_BUFFER_EVENTS = 25_000
#: Paper constant: nominal buffer footprint ("around 2 MB total").
SWORD_BUFFER_BYTES = 2 * MiB
#: Paper constant: OMPT + auxiliary TLS per thread ("around 1.3 MB").
SWORD_AUX_BYTES = int(1.3 * MiB)


@dataclass(slots=True)
class SchedulerConfig:
    """Cooperative-scheduler behaviour for the simulated OpenMP runtime.

    Attributes:
        seed: RNG seed selecting the interleaving.  Two different seeds can
            produce the Figure-1 pair of schedules (one masks the race under
            happens-before analysis, the other exposes it).
        policy: ``"random"`` picks a random runnable thread at each switch
            point; ``"round-robin"`` cycles deterministically.
        yield_every: a running thread voluntarily yields after this many
            bulk memory operations (0 disables periodic yields; threads then
            switch only at synchronisation points).
    """

    seed: int = 0
    policy: str = "random"
    yield_every: int = 0

    def validate(self) -> None:
        if self.policy not in ("random", "round-robin"):
            raise ConfigError(f"unknown scheduler policy: {self.policy!r}")
        if self.yield_every < 0:
            raise ConfigError("yield_every must be >= 0")


@dataclass(slots=True)
class SwordConfig:
    """Online-phase knobs for the SWORD tool.

    Attributes:
        buffer_events: capacity of the per-thread event buffer; the paper
            found 25,000 (~2 MB) optimal because it fits in L3.
        buffer_bytes: nominal buffer footprint charged to the memory
            accountant (user-adjustable bound in the paper).
        aux_bytes: OMPT + thread-local auxiliary storage charged per thread.
        codec: the trace codec's name, read-only and recorded in the
            manifest.  Every frame is delta-filtered, then zlib level 1
            (:func:`repro.sword.traceformat.encode_payload`).  The paper
            compared LZO, Snappy and LZ4 — all C libraries — found them
            equivalent and shipped one; zlib is the one C-speed codec the
            standard library ships (E9: ~600 MB/s against 6-8 MB/s for the
            pure-Python ``lzrle`` / ``lz4`` / ``snappy`` stand-ins), and
            the delta filter makes dense traces ~4.5x smaller (0.7 against
            3.3 B/event) at no measurable flush time.
        log_dir: directory receiving ``thread_<tid>.log`` / ``.meta`` files.
        durable: production-hardening mode — meta rows are appended (with
            per-row CRCs) the moment they are emitted and the run-wide
            tables (regions journal, mutex sets, an in-progress manifest)
            are kept on disk throughout the run, so a kill at any point
            leaves a salvageable trace instead of only log bytes.
        fsync_on_flush: fsync the log file after every flushed chunk (and
            the meta file after every durable row).  Off by default: the
            paper's overhead numbers assume buffered writes.
        flush_retries: additional write attempts after a failed flush
            before the degradation policy applies.
        flush_backoff_seconds: base of the exponential backoff between
            flush retries (attempt ``n`` waits ``base * 2**n`` seconds).
        flush_degraded: what to do when retries are exhausted —
            ``"raise"`` propagates :class:`~repro.common.errors.FlushError`;
            ``"drop-oldest"`` discards the failing chunk, records exactly
            what was lost in the manifest, and keeps the run alive.
        static_prescreen: act on static region pre-screening
            (:mod:`repro.static`): elide event emission at proven-free
            sites and persist the verdict table into the manifest.  Off,
            regions run fully instrumented even when the workload
            declares specs (the ``repro check --no-static`` escape hatch).
    """

    buffer_events: int = SWORD_BUFFER_EVENTS
    buffer_bytes: int = SWORD_BUFFER_BYTES
    aux_bytes: int = SWORD_AUX_BYTES
    codec: ClassVar[str] = "zlib"
    log_dir: str = ""
    durable: bool = False
    fsync_on_flush: bool = False
    flush_retries: int = 3
    flush_backoff_seconds: float = 0.01
    flush_degraded: str = "raise"
    static_prescreen: bool = True

    def validate(self) -> None:
        if self.buffer_events <= 0:
            raise ConfigError("buffer_events must be positive")
        if self.buffer_bytes <= 0 or self.aux_bytes < 0:
            raise ConfigError("buffer_bytes/aux_bytes must be positive")
        if not self.log_dir:
            raise ConfigError("SwordConfig.log_dir must be set")
        if self.flush_retries < 0:
            raise ConfigError("flush_retries must be >= 0")
        if self.flush_backoff_seconds < 0:
            raise ConfigError("flush_backoff_seconds must be >= 0")
        if self.flush_degraded not in ("raise", "drop-oldest"):
            raise ConfigError(
                f"flush_degraded must be 'raise' or 'drop-oldest', "
                f"got {self.flush_degraded!r}"
            )

    @property
    def per_thread_bytes(self) -> int:
        """Total bounded overhead per thread (paper: ~3.3 MB)."""
        return self.buffer_bytes + self.aux_bytes


@dataclass(slots=True)
class ArcherConfig:
    """Baseline happens-before tool knobs.

    Attributes:
        shadow_cells: access records retained per 8-byte application word
            (TSan/ARCHER default is 4; the 5th access evicts one -> the
            paper's missed-race mechanism).
        flush_shadow: the paper's "archer-low" mode -- release shadow memory
            between independent parallel regions, trading extra runtime for
            a ~30% smaller footprint.
        shadow_word_bytes: granularity of one shadow line (8 in TSan).
        per_thread_bytes: fixed per-thread bookkeeping charged to the
            accountant (vector clocks, TLS).
        misc_overhead_factor: additional footprint proportional to the
            application (allocator metadata etc.); together with
            ``shadow_cells`` this yields the observed 5-7x overhead.
    """

    shadow_cells: int = 4
    flush_shadow: bool = False
    shadow_word_bytes: int = 8
    per_thread_bytes: int = 4 * MiB
    misc_overhead_factor: float = 1.0

    def validate(self) -> None:
        if self.shadow_cells <= 0:
            raise ConfigError("shadow_cells must be positive")
        if self.shadow_word_bytes not in (4, 8, 16):
            raise ConfigError("shadow_word_bytes must be 4, 8, or 16")
        if self.misc_overhead_factor < 0:
            raise ConfigError("misc_overhead_factor must be >= 0")


@dataclass(slots=True)
class NodeConfig:
    """The simulated compute node.

    The paper's testbed is a 2x12-core Xeon node with 32 GB RAM.  Experiments
    scale ``memory_limit`` down alongside the scaled-down workloads so that
    the OOM crossover (Table IV, Figure 8) falls in the same relative place.
    """

    memory_limit: int = 32 * GiB
    cores: int = 24

    def validate(self) -> None:
        if self.memory_limit <= 0:
            raise ConfigError("memory_limit must be positive")
        if self.cores <= 0:
            raise ConfigError("cores must be positive")


@dataclass(slots=True)
class RunConfig:
    """Everything needed to execute one workload under one tool."""

    nthreads: int = 8
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    node: NodeConfig = field(default_factory=NodeConfig)

    def validate(self) -> None:
        if self.nthreads <= 0:
            raise ConfigError("nthreads must be positive")
        self.scheduler.validate()
        self.node.validate()
