"""The persisted verdict table: manifest payload, CRC, and schema.

Verdicts ride the trace manifest under the ``"static_verdicts"`` key so
every offline consumer — serial, distributed, streaming, and ``serve``
shards — sees the same table the online run acted on.  The payload is

* **versioned** (``version``, bumped on layout changes),
* **CRC-covered** (``crc32`` over the canonical JSON of the body, using
  the trace format's own CRC), and
* **schema-checked** (:data:`STATIC_VERDICTS_SCHEMA`, the same subset
  grammar :mod:`repro.obs.schema` validates CI artifacts with; the
  checked-in copy lives at ``schemas/static-verdicts.schema.json``).

A table that fails any of the three checks is *corrupt*: strict readers
raise :class:`~repro.common.errors.TraceFormatError`, salvage readers
drop to UNKNOWN-everything (full-instrumentation semantics — no pair is
skipped, no report injected) and count the loss in the integrity report.

A durable run also journals each screened region's entry as one
checksummed line (``verdicts.jsonl``, :meth:`StaticVerdictTable.
journal_record`) instead of re-serialising the whole table at every
fork; the finalised manifest carries the table as above, and a reader
of a run killed before finalisation folds the journal back into one
(:meth:`StaticVerdictTable.from_journal`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..common.errors import TraceFormatError
from .analyzer import RegionVerdicts

#: Manifest key the table is stored under.
STATIC_VERDICTS_KEY = "static_verdicts"

#: Payload layout version.
STATIC_VERDICTS_VERSION = 1

#: A synthesised report row: the 11 RaceReport fields in order.
_REPORT_FIELDS = 11

#: One region's entry: its pcs per verdict and its synthesised reports.
_REGION_ENTRY_SCHEMA: dict = {
    "type": "object",
    "required": ["proven_free", "definite_race", "reports"],
    "additionalProperties": False,
    "properties": {
        "proven_free": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "definite_race": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "reports": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": _REPORT_FIELDS,
                "maxItems": _REPORT_FIELDS,
                "items": {
                    "anyOf": [
                        {"type": "integer"},
                        {"type": "boolean"},
                    ]
                },
            },
        },
    },
}

#: JSON Schema (repro.obs.schema subset) for the manifest payload.
STATIC_VERDICTS_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "SWORD static pre-screening verdict table",
    "type": "object",
    "required": ["version", "crc32", "events_elided", "regions"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "crc32": {"type": "integer", "minimum": 0},
        "events_elided": {"type": "integer", "minimum": 0},
        "regions": {
            "type": "object",
            "additionalProperties": _REGION_ENTRY_SCHEMA,
        },
    },
}

#: One line of the durable verdict journal: a region's entry, its pid,
#: and the elided-event count when it was screened.
_JOURNAL_RECORD_SCHEMA: dict = {
    "type": "object",
    "required": ["pid", "events_elided", *_REGION_ENTRY_SCHEMA["required"]],
    "additionalProperties": False,
    "properties": {
        "pid": {"type": "integer", "minimum": 0},
        "events_elided": {"type": "integer", "minimum": 0},
        **_REGION_ENTRY_SCHEMA["properties"],
    },
}


@dataclass(slots=True)
class StaticVerdictTable:
    """In-memory form of the persisted verdict table."""

    #: pid -> {"proven_free": frozenset[pc], "definite_race":
    #: frozenset[pc], "reports": list[tuple]}.
    regions: dict[int, dict] = field(default_factory=dict)
    #: Access events whose emission the online run suppressed.
    events_elided: int = 0

    # -- accumulation (online side) -----------------------------------------------

    def add_region(self, verdicts: RegionVerdicts) -> None:
        # The pc sets are the (memoised, shared) classification's own.
        self.regions[verdicts.pid] = {
            "proven_free": verdicts.proven_free,
            "definite_race": verdicts.definite_race,
            "reports": verdicts.reports,
        }

    # -- aggregate views (stats / offline side) -------------------------------------

    @property
    def sites_proven_free(self) -> int:
        return sum(len(r["proven_free"]) for r in self.regions.values())

    @property
    def sites_definite_race(self) -> int:
        return sum(len(r["definite_race"]) for r in self.regions.values())

    def race_reports(self) -> list:
        """Synthesised reports as RaceReport objects (injection side)."""
        from ..offline.report import RaceReport  # deferred: import cycle

        return [
            RaceReport(*row)
            for entry in self.regions.values()
            for row in entry["reports"]
        ]

    # -- serialisation ---------------------------------------------------------------

    @staticmethod
    def _entry_json(entry: dict) -> dict:
        return {
            "proven_free": sorted(entry["proven_free"]),
            "definite_race": sorted(entry["definite_race"]),
            "reports": [list(row) for row in entry["reports"]],
        }

    @staticmethod
    def _entry_from_json(entry: dict) -> dict:
        return {
            "proven_free": frozenset(entry["proven_free"]),
            "definite_race": frozenset(entry["definite_race"]),
            "reports": [tuple(row) for row in entry["reports"]],
        }

    def _body(self) -> dict:
        return {
            "version": STATIC_VERDICTS_VERSION,
            "events_elided": int(self.events_elided),
            "regions": {
                str(pid): self._entry_json(entry)
                for pid, entry in sorted(self.regions.items())
            },
        }

    def journal_record(self, pid: int) -> dict:
        """The durable journal line for region ``pid`` (see
        :meth:`from_journal`)."""
        return {
            "pid": pid,
            "events_elided": int(self.events_elided),
            **self._entry_json(self.regions[pid]),
        }

    @classmethod
    def from_journal(cls, records) -> "StaticVerdictTable":
        """Fold the durable verdict journal into a table.

        This is what a run killed before finalisation had decided: every
        screened region, with the elided-event count as of the last one.
        Each line is CRC-checked by the journal parser; a record that
        fails the schema raises :class:`TraceFormatError`.
        """
        from ..obs.schema import validate  # deferred: keep import light

        table = cls()
        for record in records:
            errors = validate(record, _JOURNAL_RECORD_SCHEMA)
            if errors:
                raise TraceFormatError(
                    f"verdict journal record failed schema validation: "
                    f"{'; '.join(errors[:3])}"
                )
            table.regions[record["pid"]] = cls._entry_from_json(record)
            table.events_elided = record["events_elided"]
        return table

    def to_payload(self) -> dict:
        """The manifest value: the body plus its covering CRC."""
        # Deferred: repro.sword imports this module back (import cycle).
        from ..sword.traceformat import crc32

        body = self._body()
        payload = dict(body)
        payload["crc32"] = crc32(
            json.dumps(body, sort_keys=True).encode("utf-8")
        )
        return payload

    @classmethod
    def from_payload(cls, payload) -> "StaticVerdictTable":
        """Parse and verify one manifest payload.

        Raises :class:`TraceFormatError` on schema violations, version
        mismatch, or CRC mismatch — the caller decides whether that is
        fatal (strict) or a fallback to UNKNOWN-everything (salvage).
        """
        from ..obs.schema import validate  # deferred: keep import light
        from ..sword.traceformat import crc32  # deferred: import cycle

        errors = validate(payload, STATIC_VERDICTS_SCHEMA)
        if errors:
            raise TraceFormatError(
                f"static verdict table failed schema validation: "
                f"{'; '.join(errors[:3])}"
            )
        if payload["version"] != STATIC_VERDICTS_VERSION:
            raise TraceFormatError(
                f"static verdict table version {payload['version']} "
                f"(expected {STATIC_VERDICTS_VERSION})"
            )
        body = {k: v for k, v in payload.items() if k != "crc32"}
        expected = crc32(json.dumps(body, sort_keys=True).encode("utf-8"))
        if payload["crc32"] != expected:
            raise TraceFormatError(
                f"static verdict table CRC mismatch "
                f"(stored {payload['crc32']:#x}, computed {expected:#x})"
            )
        table = cls(events_elided=int(payload["events_elided"]))
        for pid_str, entry in payload["regions"].items():
            table.regions[int(pid_str)] = cls._entry_from_json(entry)
        return table
