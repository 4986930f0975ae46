"""Structured accounting of what salvage-mode analysis recovered and lost.

SWORD's production story requires the offline phase to extract value from
whatever trace survived an ugly end (OOM kill mid-flush, full disk, node
failure).  The salvage reader truncates each thread log at its first torn
frame and reconciles meta records against the recovered bytes; this module
is the ledger of those decisions, attached to
:class:`~repro.offline.engine.AnalysisResult` and surfaced through the CLI
(``--salvage`` + the JSON ``integrity`` key).

The headline guarantee the report documents: salvage analysis *completes*
for any fault point, and because it only ever removes events from
consideration, its race set is a subset of the fault-free run's
(``races_possibly_missed`` flags when that subset may be proper).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class ThreadIntegrity:
    """Per-thread salvage accounting for one ``thread_<gid>.log``/``.meta``."""

    gid: int
    #: Committed frames that passed every checksum.
    chunks_recovered: int = 0
    #: Frames rejected (torn, CRC mismatch, bad commit marker).  The log
    #: is truncated at the first such frame, so this counts the frames
    #: *identified* in the rejected tail, usually 1.
    chunks_dropped: int = 0
    #: Uncompressed bytes served to the analysis.
    bytes_recovered: int = 0
    #: Log-file bytes past the truncation point (compressed coordinates).
    bytes_dropped: int = 0
    #: Meta rows kept after reconciliation against the recovered bytes.
    rows_recovered: int = 0
    #: Meta rows dropped (torn line, bad row CRC, or pointing past the
    #: recovered extent).
    rows_dropped: int = 0
    #: Human-readable descriptions of each defect found.
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors  # every defect found is one entry

    def reset(self) -> None:
        """Zero the ledger before a (re-)scan.

        A salvage scan of unchanged files always reaches the same
        verdicts, so re-opening a thread's reader resets-and-refills
        rather than double-counting.
        """
        self.chunks_recovered = 0
        self.chunks_dropped = 0
        self.bytes_recovered = 0
        self.bytes_dropped = 0
        self.rows_recovered = 0
        self.rows_dropped = 0
        self.errors.clear()

    def to_json(self) -> dict:
        return {
            "gid": self.gid,
            "chunks_recovered": self.chunks_recovered,
            "chunks_dropped": self.chunks_dropped,
            "bytes_recovered": self.bytes_recovered,
            "bytes_dropped": self.bytes_dropped,
            "rows_recovered": self.rows_recovered,
            "rows_dropped": self.rows_dropped,
            "errors": list(self.errors),
        }


@dataclass(slots=True)
class IntegrityReport:
    """Trace-wide salvage outcome (the ``integrity`` key of results)."""

    #: ``"strict"`` or ``"salvage"``.
    mode: str = "strict"
    threads: dict[int, ThreadIntegrity] = field(default_factory=dict)
    #: Intervals the planner had to skip (unknown region, no surviving
    #: chunks) plus pairs the engine abandoned mid-analysis.
    intervals_skipped: int = 0
    pairs_skipped: int = 0
    #: Trace files that were missing or unusable (tables, logs, meta).
    missing_files: list[str] = field(default_factory=list)
    #: Static verdict tables rejected (truncated/corrupt payload).  The
    #: analysis falls back to UNKNOWN-everything — no report injected —
    #: so elided DEFINITE_RACE witnesses may be lost.
    verdicts_dropped: int = 0
    #: Free-form reconstruction notes (e.g. "regions recovered from journal").
    notes: list[str] = field(default_factory=list)

    def thread(self, gid: int) -> ThreadIntegrity:
        """The (created-on-demand) per-thread ledger for ``gid``."""
        entry = self.threads.get(gid)
        if entry is None:
            entry = ThreadIntegrity(gid=gid)
            self.threads[gid] = entry
        return entry

    @property
    def clean(self) -> bool:
        """True when nothing at all was lost (byte-identical to strict)."""
        return (
            not self.intervals_skipped
            and not self.pairs_skipped
            and not self.missing_files
            and not self.verdicts_dropped
            and all(t.clean for t in self.threads.values())
        )

    @property
    def races_possibly_missed(self) -> bool:
        """True when the recovered trace may under-report races."""
        return not self.clean

    @property
    def chunks_dropped(self) -> int:
        return sum(t.chunks_dropped for t in self.threads.values())

    @property
    def rows_dropped(self) -> int:
        return sum(t.rows_dropped for t in self.threads.values())

    def note(self, message: str) -> None:
        self.notes.append(message)

    def merge(self, part: "IntegrityReport") -> None:
        """Fold in what analysing this trace skipped elsewhere (the pairs
        an engine abandoned, a shard's or the driver's own): skip counts
        add and notes extend in order.  The open-time ledger — threads,
        missing files, dropped verdict tables — is this report's own and
        is not folded."""
        self.intervals_skipped += part.intervals_skipped
        self.pairs_skipped += part.pairs_skipped
        self.notes.extend(part.notes)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "clean": self.clean,
            "races_possibly_missed": self.races_possibly_missed,
            "intervals_skipped": self.intervals_skipped,
            "pairs_skipped": self.pairs_skipped,
            "missing_files": list(self.missing_files),
            "verdicts_dropped": self.verdicts_dropped,
            "notes": list(self.notes),
            "threads": {
                str(gid): t.to_json() for gid, t in sorted(self.threads.items())
            },
        }

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        if self.clean:
            return "integrity: clean (no loss detected)"
        return (
            f"integrity: salvaged with loss — {len(self.missing_files)} "
            f"file(s) missing, {self.chunks_dropped} chunk(s) "
            f"and {self.rows_dropped} meta row(s) dropped, "
            f"{self.intervals_skipped} interval(s) and "
            f"{self.pairs_skipped} pair(s) skipped; "
            f"races may be under-reported"
        )
