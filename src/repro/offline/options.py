"""One options object for every analysis mode.

:class:`AnalysisOptions` is the single options object: every driver, the
shared :class:`~repro.offline.engine.AnalysisEngine`, the service's shard
specs, and :mod:`repro.api` consume this one dataclass unchanged.

:class:`FastPathOptions` gates the pair-decision cascade (static skip →
pair cache → frame-digest prune → build + compare).  Everything is on by
default except the persistent cache, which writes to disk and is
therefore opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..common.errors import ConfigError
from ..obs import Instrumentation


@dataclass(slots=True)
class FastPathOptions:
    """Toggles for the pair-analysis fast path.

    Every acceleration preserves canonical-witness determinism: the
    analysis result is byte-identical with the fast path on or off.
    """

    #: Master switch for frame-digest pruning, the solver memo, the
    #: columnar tree comparison, and the persistent cache; False is the
    #: naive reference path (build every pair, compare node by node) the
    #: parity suites pin everything else against.
    enabled: bool = True
    #: Persist per-interval trees and pair verdicts keyed by trace
    #: content hashes (opt-in: writes under the trace directory, or
    #: ``cache_dir`` when set).  Only engaged for closed traces.
    result_cache: bool = False
    cache_dir: Optional[str] = None
    #: Skip site pairs the trace's static verdict table proved race-free.
    #: Independent of ``enabled``.  Off, the engine solves those pairs
    #: dynamically (synthesised DEFINITE_RACE reports are still injected
    #: — they are data, not an optimisation).
    static_skip: bool = True

    @property
    def cache_active(self) -> bool:
        return self.enabled and self.result_cache


@dataclass(slots=True)
class AnalysisOptions:
    """Every knob of the offline analysis, for all three modes.

    Mode-specific fields are simply ignored where they do not apply
    (``workers`` by the serial driver, checkpointing by the post-mortem
    drivers) so one object can travel through :mod:`repro.api`
    unchanged.
    """

    # Engine / all modes.
    #: Streaming granularity: how many decoded events the reader hands
    #: to the tree builder at a time (paper: "reads access information
    #: from log files in small chunks").
    chunk_events: int = 65536
    #: Additionally verify each Diophantine overlap verdict by brute
    #: force (slow; for tests).
    use_ilp_crosscheck: bool = False
    tree_cache_capacity: int = 64
    #: ``"strict"`` fails fast on any trace defect; ``"salvage"``
    #: analyses whatever a crashed run left behind and attaches an
    #: :class:`~repro.sword.integrity.IntegrityReport` to the result.
    integrity: str = "strict"
    fastpath: FastPathOptions = field(default_factory=FastPathOptions)
    #: Instrumentation bundle; None means the ambient bundle.
    obs: Optional[Instrumentation] = None

    # Distributed mode: worker processes (Table III's MT column).
    workers: int = 1

    # Streaming mode.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 32
    max_pairs: Optional[int] = None

    def validate(self) -> None:
        if self.chunk_events <= 0:
            raise ConfigError("chunk_events must be positive")
        if self.workers <= 0:
            raise ConfigError("workers must be positive")
        if self.tree_cache_capacity < 1:
            raise ValueError("tree_cache_capacity must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.integrity not in ("strict", "salvage"):
            raise ValueError(
                f"integrity must be 'strict' or 'salvage', "
                f"got {self.integrity!r}"
            )

    def copy(self, **overrides) -> "AnalysisOptions":
        return replace(self, **overrides)
