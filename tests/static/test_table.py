"""The persisted verdict table: payload roundtrip, CRC, schema."""

import json
from pathlib import Path

import pytest

from repro.common.errors import TraceFormatError
from repro.memory.address_space import AddressSpace
from repro.obs.schema import validate
from repro.static import AffineSite, RegionSpec
from repro.static.analyzer import analyze_region
from repro.static.table import (
    STATIC_VERDICTS_SCHEMA,
    STATIC_VERDICTS_VERSION,
    StaticVerdictTable,
)

SCHEMAS = Path(__file__).resolve().parents[2] / "schemas"


def _example_table() -> StaticVerdictTable:
    space = AddressSpace()
    a = space.alloc_array("a", 65)
    b = space.alloc_array("b", 64)
    table = StaticVerdictTable()
    table.add_region(
        analyze_region(
            RegionSpec(
                iterations=64,
                sites=(
                    AffineSite(pc=1, array=b),
                    AffineSite(pc=2, array=a, is_write=True),
                    AffineSite(pc=3, array=a, offset=1, is_write=True),
                ),
                reduction_pcs=(4,),
                complete=True,
            ),
            pid=7,
            gids=[0, 1, 2, 3],
        )
    )
    table.events_elided = 123
    return table


def test_payload_roundtrip():
    table = _example_table()
    clone = StaticVerdictTable.from_payload(table.to_payload())
    assert clone.events_elided == table.events_elided
    assert clone.regions == {
        pid: {
            "proven_free": entry["proven_free"],
            "definite_race": entry["definite_race"],
            "reports": [tuple(r) for r in entry["reports"]],
        }
        for pid, entry in table.regions.items()
    }
    assert clone.sites_proven_free == 2  # pc 1 + reduction pc 4
    assert clone.sites_definite_race == 2  # pcs 2 and 3
    assert clone.regions[7]["proven_free"] == frozenset({1, 4})
    assert clone.race_reports()


def test_payload_validates_against_embedded_schema():
    payload = _example_table().to_payload()
    assert validate(payload, STATIC_VERDICTS_SCHEMA) == []


def test_checked_in_schema_matches_embedded():
    # CI validates artifacts against the checked-in file; drift between
    # it and the schema the code enforces would make CI meaningless.
    on_disk = json.loads((SCHEMAS / "static-verdicts.schema.json").read_text())
    assert on_disk == STATIC_VERDICTS_SCHEMA


def test_crc_mismatch_raises():
    payload = _example_table().to_payload()
    payload["crc32"] = (payload["crc32"] + 1) % 2**32
    with pytest.raises(TraceFormatError, match="CRC mismatch"):
        StaticVerdictTable.from_payload(payload)


def test_body_tamper_fails_crc():
    payload = _example_table().to_payload()
    payload["events_elided"] += 1  # schema-valid, CRC-covered
    with pytest.raises(TraceFormatError, match="CRC mismatch"):
        StaticVerdictTable.from_payload(payload)


def test_version_mismatch_raises():
    table = _example_table()
    body = table._body()
    body["version"] = STATIC_VERDICTS_VERSION + 1
    from repro.sword.traceformat import crc32

    body["crc32"] = crc32(
        json.dumps(
            {k: v for k, v in body.items() if k != "crc32"}, sort_keys=True
        ).encode("utf-8")
    )
    with pytest.raises(TraceFormatError, match="version"):
        StaticVerdictTable.from_payload(body)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("regions"),
        lambda p: p.__setitem__("events_elided", -1),
        lambda p: p.__setitem__("extra", 1),
        lambda p: next(iter(p["regions"].values())).pop("reports"),
        lambda p: next(iter(p["regions"].values()))["reports"].append([1, 2]),
    ],
)
def test_schema_violations_raise(mutate):
    payload = _example_table().to_payload()
    mutate(payload)
    with pytest.raises(TraceFormatError, match="schema"):
        StaticVerdictTable.from_payload(payload)


def test_empty_table_roundtrip():
    table = StaticVerdictTable()
    payload = table.to_payload()
    assert validate(payload, STATIC_VERDICTS_SCHEMA) == []
    clone = StaticVerdictTable.from_payload(payload)
    assert clone.regions == {} and clone.events_elided == 0
    assert clone.race_reports() == []
