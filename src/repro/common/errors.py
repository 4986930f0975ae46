"""Exception hierarchy for the SWORD reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class SimulatedOOMError(ReproError):
    """The simulated compute node ran out of memory.

    Raised by :class:`repro.memory.accounting.NodeMemory` when the combined
    application + tool footprint exceeds the configured node limit.  This is
    the mechanism that reproduces the paper's Table IV / Figure 8 behaviour
    where ARCHER cannot finish AMG2013 at the largest problem size.
    """

    def __init__(self, requested: int, in_use: int, limit: int) -> None:
        super().__init__(
            f"simulated OOM: requested {requested} B with {in_use} B in use "
            f"exceeds node limit of {limit} B"
        )
        self.requested = requested
        self.in_use = in_use
        self.limit = limit


class RuntimeModelError(ReproError):
    """A model program misused the simulated OpenMP runtime.

    Examples: releasing a lock the thread does not hold, calling a
    worksharing construct from outside a parallel region, or mismatched
    barrier participation.
    """


class DeadlockError(RuntimeModelError):
    """The cooperative scheduler found no runnable thread."""


class TraceFormatError(ReproError):
    """A SWORD log or meta-data file is malformed or truncated."""


class FlushError(ReproError):
    """The online logger could not persist a trace chunk.

    Raised after the bounded retry/backoff policy is exhausted (disk
    full, sink gone) when the degradation mode is ``"raise"``; with
    ``"drop-oldest"`` the chunk is discarded and recorded instead.
    """

    def __init__(self, gid: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"thread {gid}: flush failed after {attempts} attempt(s): {cause}"
        )
        self.gid = gid
        self.attempts = attempts
        self.cause = cause


class CodecError(ReproError):
    """Compression or decompression of a trace block failed."""


class AnalysisError(ReproError):
    """The offline analysis encountered an internal inconsistency."""


class SolverError(ReproError):
    """The ILP / Diophantine overlap solver was given an invalid system."""
