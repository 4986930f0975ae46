"""One options object for every analysis mode.

:class:`AnalysisOptions` is the single options object: every driver, the
shared :class:`~repro.offline.engine.AnalysisEngine`, the service's shard
specs, and :mod:`repro.api` consume this one dataclass unchanged.

The engine always runs one pair-decision cascade (frame-digest prune →
pair cache → build + compare).  :class:`FastPathOptions` holds its one
user-facing setting: the persistent cache, which writes to disk and is
therefore opt-in.  The unpruned reference analysis the parity suites compare
against is :func:`repro.offline.analyzer.reference_analyze`, not a
setting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from ..common.errors import ConfigError
from ..obs import Instrumentation


@dataclass(slots=True)
class FastPathOptions:
    """Settings of the pair-decision cascade's persistent cache.

    They do not change the result: the race set is byte-identical with
    the cache on or off.
    """

    #: Persist pair verdicts keyed by trace content hashes (opt-in:
    #: writes under the trace directory, or ``cache_dir`` when set).
    #: Only engaged for closed traces.
    result_cache: bool = False
    cache_dir: Optional[str] = None


def check_cache_dir(cache_dir: Optional[str]) -> None:
    """Refuse a result-cache root that exists but is not a directory:
    every store there would miss, so resume would be off without a word.
    (A read-only or full disk still costs misses, not errors.)"""
    if cache_dir is not None and os.path.exists(cache_dir):
        if not os.path.isdir(cache_dir):
            raise ConfigError(f"cache_dir {cache_dir!r} is not a directory")


@dataclass(slots=True)
class AnalysisOptions:
    """Every knob of the offline analysis, for all three modes.

    ``workers`` is simply ignored where it does not apply (by the serial
    and streaming drivers) so one object can travel through
    :mod:`repro.api` unchanged.
    """

    # Engine / all modes.
    #: ``"strict"`` fails fast on any trace defect; ``"salvage"``
    #: analyses whatever a crashed run left behind and attaches an
    #: :class:`~repro.sword.integrity.IntegrityReport` to the result.
    integrity: str = "strict"
    fastpath: FastPathOptions = field(default_factory=FastPathOptions)
    #: Instrumentation bundle; None means the ambient bundle.
    obs: Optional[Instrumentation] = None

    # Distributed mode: worker processes (Table III's MT column).
    workers: int = 1

    def validate(self) -> None:
        if self.workers <= 0:
            raise ConfigError("workers must be positive")
        if self.integrity not in ("strict", "salvage"):
            raise ValueError(
                f"integrity must be 'strict' or 'salvage', "
                f"got {self.integrity!r}"
            )
        check_cache_dir(self.fastpath.cache_dir)

    def copy(self, **overrides) -> "AnalysisOptions":
        return replace(self, **overrides)
