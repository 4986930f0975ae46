"""Shared building blocks: errors, configuration, IDs, events, locations."""

from .errors import (
    AnalysisError,
    CodecError,
    ConfigError,
    DeadlockError,
    ReproError,
    RuntimeModelError,
    SimulatedOOMError,
    SolverError,
    TraceFormatError,
)
from .config import (
    ArcherConfig,
    NodeConfig,
    RunConfig,
    SchedulerConfig,
    SwordConfig,
    KiB,
    MiB,
    GiB,
)
from .events import Access
from .ids import IdGenerator, RuntimeIds, NO_PARENT, NO_REGION
from .sourceloc import GLOBAL_PCS, PCRegistry, SourceLoc, pc_of

__all__ = [
    "Access",
    "AnalysisError",
    "ArcherConfig",
    "CodecError",
    "ConfigError",
    "DeadlockError",
    "GLOBAL_PCS",
    "GiB",
    "IdGenerator",
    "KiB",
    "MiB",
    "NO_PARENT",
    "NO_REGION",
    "NodeConfig",
    "PCRegistry",
    "ReproError",
    "RunConfig",
    "RuntimeIds",
    "RuntimeModelError",
    "SchedulerConfig",
    "SimulatedOOMError",
    "SolverError",
    "SourceLoc",
    "SwordConfig",
    "TraceFormatError",
    "pc_of",
]
