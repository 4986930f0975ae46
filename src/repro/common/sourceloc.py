"""Synthetic program counters and source locations.

Real SWORD stores the program counter of every instrumented load/store and
maps it back to source lines when reporting races.  Model programs in this
reproduction label each access site with a :class:`SourceLoc`; a process-wide
:class:`PCRegistry` interns locations to stable integer "program counters" so
that trace records stay fixed width and race reports remain human readable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """A source location of an access site in a model program.

    Attributes:
        file: pseudo source file name, e.g. ``"hpccg.c"``.
        line: line number within that file.
        func: enclosing function name (informational only).
    """

    file: str
    line: int
    func: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.func:
            return f"{self.file}:{self.line} ({self.func})"
        return f"{self.file}:{self.line}"


class PCRegistry:
    """Bidirectional intern table between :class:`SourceLoc` and integer PCs.

    PCs start at 0x1000 so that 0 can serve as "unknown"; the registry is
    append-only and thread safe.
    """

    _UNKNOWN = SourceLoc("<unknown>", 0)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_loc: dict[SourceLoc, int] = {}
        self._by_pc: dict[int, SourceLoc] = {}
        self._next = 0x1000

    def pc(self, loc: SourceLoc) -> int:
        """Return the stable PC for ``loc``, interning it on first use.

        A hit — every call after a site's first — is one lock-free
        ``dict.get`` (atomic under the GIL, and entries are never removed
        or rebound); only a miss takes the lock, and re-checks under it.
        """
        existing = self._by_loc.get(loc)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._by_loc.get(loc)
            if existing is not None:
                return existing
            value = self._next
            self._next += 1
            self._by_loc[loc] = value
            self._by_pc[value] = loc
            return value

    def loc(self, pc: int) -> SourceLoc:
        """Return the location interned for ``pc`` (or an unknown marker)."""
        with self._lock:
            return self._by_pc.get(pc, self._UNKNOWN)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_loc)


#: Process-wide default registry.  Workload modules intern their access-site
#: labels here; tools resolve PCs through it when formatting reports.
GLOBAL_PCS = PCRegistry()


def pc_of(file: str, line: int, func: str = "") -> int:
    """Convenience wrapper: intern ``file:line`` in the global registry."""
    return GLOBAL_PCS.pc(SourceLoc(file, line, func))
