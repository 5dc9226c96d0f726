"""Error-channel ingestion over the malformed fixture corpus.

Each fixture file under ``fixtures/`` captures one class of real-world
dirt.  These tests pin, per file and per policy: the recovered record
count, the exact bad line numbers and byte offsets, and the payload
retention rules — plus that the default ``raise`` policy keeps the
seed's abort-on-first-error behaviour.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import DatasetError
from repro.io import (
    BAD_PAYLOAD_LIMIT,
    IngestReport,
    absorb_file,
    ingest_jsonlines,
    load_jsonlines,
    read_jsonlines,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


#: name -> (recovered record count, bad line numbers, bad byte offsets,
#:          total lines)
EXPECTED = {
    "truncated.jsonl": (2, [3], [74], 3),
    "bom.jsonl": (2, [], [], 2),
    "nul_bytes.jsonl": (2, [2, 3], [22, 27], 4),
    "deep_nesting.jsonl": (2, [2], [10], 3),
    "duplicate_keys.jsonl": (3, [], [], 3),
    "mixed_garbage.jsonl": (2, [3, 4], [13, 43], 5),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_policies_recover_and_locate(name, policy):
    records, report = ingest_jsonlines(fixture(name), on_bad_record=policy)
    count, bad_lines, bad_offsets, total_lines = EXPECTED[name]
    assert len(records) == count
    assert report.record_count == count
    assert report.bad_line_numbers() == bad_lines
    assert [bad.byte_offset for bad in report.bad_records] == bad_offsets
    assert report.total_lines == total_lines
    assert report.ok == (not bad_lines)
    assert report.policy == policy


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_skip_and_collect_agree_on_records(name):
    skipped, _ = ingest_jsonlines(fixture(name), on_bad_record="skip")
    collected, _ = ingest_jsonlines(fixture(name), on_bad_record="collect")
    assert skipped == collected


def test_payload_retention_rules():
    _, skip_report = ingest_jsonlines(
        fixture("mixed_garbage.jsonl"), on_bad_record="skip"
    )
    _, collect_report = ingest_jsonlines(
        fixture("mixed_garbage.jsonl"), on_bad_record="collect"
    )
    assert all(bad.payload == "" for bad in skip_report.bad_records)
    assert collect_report.bad_records[0].payload.startswith("this line")
    # Both record *why*, only collect records *what*.
    assert all(bad.error for bad in skip_report.bad_records)


def test_collect_truncates_huge_payloads():
    _, report = ingest_jsonlines(
        fixture("deep_nesting.jsonl"), on_bad_record="collect"
    )
    (bad,) = report.bad_records
    assert len(bad.payload) == BAD_PAYLOAD_LIMIT
    assert bad.error.startswith("RecursionError")


@pytest.mark.parametrize(
    "name",
    [n for n, (_, bad, _, _) in EXPECTED.items() if bad],
)
def test_default_raise_policy_aborts(name):
    with pytest.raises(DatasetError) as excinfo:
        load_jsonlines(fixture(name))
    first_bad = EXPECTED[name][1][0]
    assert f":{first_bad}:" in str(excinfo.value)


def test_raise_policy_passes_clean_fixtures():
    records = load_jsonlines(fixture("duplicate_keys.jsonl"))
    # RFC 8259 leaves duplicate-key semantics open; Python keeps the
    # last binding, which is the behaviour we pin.
    assert records[0] == {"id": 2, "name": "first"}
    assert records[1] == {"a": {"x": 3}}


def test_bom_is_tolerated_under_every_policy():
    for policy in ("raise", "skip", "collect"):
        records, report = (
            (load_jsonlines(fixture("bom.jsonl")), None)
            if policy == "raise"
            else ingest_jsonlines(fixture("bom.jsonl"), on_bad_record=policy)
        )
        assert records[0] == {"id": 1, "name": "alpha"}
        if report is not None:
            assert report.ok


def test_caller_supplied_report_fills_incrementally():
    report = IngestReport(path="x")
    stream = read_jsonlines(
        fixture("nul_bytes.jsonl"), on_bad_record="skip", report=report
    )
    first = next(stream)
    assert first == {"id": 1, "ok": True}
    assert report.record_count == 1 and report.bad_count == 0
    rest = list(stream)
    assert len(rest) == 1
    assert report.bad_line_numbers() == [2, 3]


def test_unknown_policy_rejected():
    with pytest.raises(DatasetError):
        load_jsonlines(fixture("bom.jsonl"), on_bad_record="ignore")


def test_gzip_round_trip_with_bad_lines(tmp_path):
    import gzip

    path = tmp_path / "dirty.jsonl.gz"
    with gzip.open(path, "wb") as handle:
        handle.write(b'{"a": 1}\nnot json\n{"a": 2}\n')
    records, report = ingest_jsonlines(path, on_bad_record="collect")
    assert records == [{"a": 1}, {"a": 2}]
    assert report.bad_line_numbers() == [2]
    # Offsets are into the decompressed stream.
    assert report.bad_records[0].byte_offset == 9


def test_absorb_file_returns_the_report():
    from repro.discovery.state import state_for_algorithm

    state = state_for_algorithm("l-reduce")
    report = absorb_file(
        state,
        fixture("truncated.jsonl"),
        ingest="classic",
        on_bad_record="skip",
    )
    assert state.record_count == 2
    assert report.bad_line_numbers() == [3]


def test_report_summary_names_positions():
    _, report = ingest_jsonlines(
        fixture("nul_bytes.jsonl"), on_bad_record="skip"
    )
    summary = report.summary()
    assert "2 bad line(s)" in summary and "2, 3" in summary


def test_ingest_counters_tick():
    from repro.engine.instrument import counters

    before = counters.get("ingest.bad_records")
    ingest_jsonlines(fixture("mixed_garbage.jsonl"), on_bad_record="skip")
    assert counters.get("ingest.bad_records") == before + 2


def test_fixture_corpus_is_regenerable():
    """The checked-in bytes match the generator script exactly."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(FIXTURES, "make_fixtures.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Generate into a scratch dir by repointing HERE.
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        module.HERE = scratch
        module.main()
        for name in EXPECTED:
            with open(os.path.join(FIXTURES, name), "rb") as handle:
                committed = handle.read()
            with open(os.path.join(scratch, name), "rb") as handle:
                regenerated = handle.read()
            assert committed == regenerated, name
