"""Differential oracles relating the three discovery algorithms.

Three cross-algorithm properties on hypothesis-generated record
streams:

* **Recall** — K-reduce, L-reduce, and JXPLAIN each admit every record
  they were discovered from, on *arbitrary* JSON-object streams.
* **Ambiguity reduction** — on entity-mixture streams (records drawn
  from a small set of overlapping templates, the regime the paper's
  corpora live in), the JXPLAIN schema's entropy never exceeds the
  K-reduce schema's.  The inequality is deliberately *not* asserted
  over fully arbitrary nested JSON: streams mixing ``{}`` with
  empty-array-heavy records can flip it (collection designation
  changes how the type space is counted), and the paper makes no
  universal claim there.
* **Backend determinism** — the staged pipeline, reading a file in
  shards, yields byte-identical JSON Schema output under the serial
  and process executors, equal to an unsharded run.
* **Fused ≡ classic ingestion** — streaming a file through the fused
  bytes→type reader produces the same ``DiscoveryState.to_bytes()`` as
  the classic parse-then-type fold, for every algorithm, on clean and
  malformed corpora alike, and across checkpoint/resume interleavings.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.discovery import JxplainPipeline, KReduce, LReduce, make_discoverer
from repro.discovery.state import load_state, save_state, state_for_algorithm
from repro.engine import ProcessExecutor, SerialExecutor
from repro.io.fastpath import absorb_file, read_jsonlines_fused
from repro.io.jsonlines import IngestReport, ingest_jsonlines
from repro.schema import schema_entropy, to_json_schema

from tests.conftest import json_keys, json_primitives


# ---------------------------------------------------------------------------
# Record strategies.
# ---------------------------------------------------------------------------

#: Arbitrary flat-ish objects: primitives plus one level of nesting.
shallow_values = st.one_of(
    json_primitives,
    st.lists(json_primitives, max_size=3),
    st.dictionaries(json_keys, json_primitives, max_size=3),
)

arbitrary_records = st.lists(
    st.dictionaries(json_keys, shallow_values, max_size=5),
    min_size=1,
    max_size=12,
)


def _event(event_id, size, with_size):
    record = {"id": event_id, "kind": "push", "repo": {"name": "r", "stars": size}}
    if with_size:
        record["size"] = size
    return record


def _profile(name, private, with_private, tags):
    record = {"name": name, "tags": tags}
    if with_private:
        record["private"] = private
    return record


#: Streams drawn from two overlapping entity templates with optional
#: fields — the shape of the paper's evaluation corpora, and the
#: regime where JXPLAIN's entropy advantage over K-reduce holds.
entity_mixture = st.lists(
    st.one_of(
        st.builds(
            _event,
            st.integers(0, 999),
            st.integers(0, 50),
            st.booleans(),
        ),
        st.builds(
            _profile,
            st.text(alphabet="abc", min_size=1, max_size=4),
            st.booleans(),
            st.booleans(),
            st.lists(st.text(alphabet="xyz", max_size=3), max_size=3),
        ),
    ),
    min_size=2,
    max_size=20,
)


def schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Oracle 1: recall — every algorithm admits every input record.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(records=arbitrary_records)
def test_every_algorithm_admits_every_input(records):
    for make in (KReduce, LReduce, lambda: make_discoverer("bimax-merge")):
        discoverer = make()
        schema = discoverer.discover(records)
        for record in records:
            assert schema.admits_value(record), (discoverer, record)


# ---------------------------------------------------------------------------
# Oracle 2: JXPLAIN is never more ambiguous than K-reduce on
# entity-mixture streams.
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(records=entity_mixture)
def test_jxplain_entropy_at_most_kreduce(records):
    jxplain = make_discoverer("bimax-merge").discover(records)
    kreduce = KReduce().discover(records)
    assert schema_entropy(jxplain) <= schema_entropy(kreduce) + 1e-9
    # Both still admit everything they saw.
    for record in records:
        assert jxplain.admits_value(record)
        assert kreduce.admits_value(record)


# ---------------------------------------------------------------------------
# Oracle 3: backend determinism.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backends():
    executors = {
        "serial": SerialExecutor(),
        "processes": ProcessExecutor(2),
    }
    yield executors
    for executor in executors.values():
        executor.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(records=entity_mixture)
def test_pipeline_deterministic_across_backends(
    backends, records, tmp_path_factory
):
    path = tmp_path_factory.mktemp("backends") / "corpus.jsonl"
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )
    unsharded = JxplainPipeline().run_file(path)
    expected = (schema_bytes(unsharded.schema), unsharded.record_count)
    for name, executor in backends.items():
        result = JxplainPipeline(shards=3, executor=executor).run_file(path)
        outputs = (schema_bytes(result.schema), result.record_count)
        assert outputs == expected, name


@settings(max_examples=25, deadline=None)
@given(records=arbitrary_records)
def test_discoverers_are_pure_functions_of_input(records):
    """Re-running any discoverer on the same stream reproduces the
    schema exactly — no hidden per-run state."""
    for make in (KReduce, LReduce, lambda: make_discoverer("bimax-merge")):
        first = make().discover(list(records))
        second = make().discover(list(records))
        assert schema_bytes(first) == schema_bytes(second)


# ---------------------------------------------------------------------------
# Oracle 4: fused ingestion is byte-identical to classic ingestion.
# ---------------------------------------------------------------------------

STATE_ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")

#: Lines the fused reader must handle identically to the classic one:
#: garbage, almost-numbers, unterminated strings, raw control bytes,
#: invalid UTF-8, and blanks (which are tolerated, not errors).
malformed_lines = st.sampled_from(
    [
        b"not json at all",
        b'{"a": 00}',
        b'{"a": 1.}',
        b'{"unterminated": "...',
        b'{"nul": "\x00"}',
        b'{"bad-utf8": "\xff\xfe"}',
        b"[1, 2,]",
        b"{",
        b"",
        b"   ",
    ]
)


def _mixed_corpus():
    """Records interleaved with malformed byte lines."""
    good = st.builds(
        lambda record: json.dumps(record, separators=(",", ":")).encode(),
        st.dictionaries(json_keys, shallow_values, max_size=5),
    )
    return st.lists(st.one_of(good, malformed_lines), min_size=1, max_size=20)


def _write_lines(path, lines):
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line + b"\n")


def _report_key(report):
    return (
        report.total_lines,
        report.record_count,
        [
            (bad.line_number, bad.byte_offset, bad.error, bad.payload)
            for bad in report.bad_records
        ],
    )


@settings(max_examples=40, deadline=None)
@given(lines=_mixed_corpus())
def test_fused_state_bytes_equal_classic_on_malformed_corpora(
    lines, tmp_path_factory
):
    path = tmp_path_factory.mktemp("fused") / "corpus.jsonl"
    _write_lines(path, lines)
    records, classic_report = ingest_jsonlines(path, on_bad_record="collect")
    fused_report = IngestReport(path=str(path), policy="collect")
    types = list(
        read_jsonlines_fused(
            path, on_bad_record="collect", report=fused_report
        )
    )
    assert _report_key(fused_report) == _report_key(classic_report)
    for algorithm in STATE_ALGORITHMS:
        classic_state = state_for_algorithm(algorithm, None)
        classic_state.absorb_many(records)
        fused_state = state_for_algorithm(algorithm, None)
        for tau in types:
            fused_state.absorb_type(tau)
        assert classic_state.to_bytes() == fused_state.to_bytes(), algorithm


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=_mixed_corpus(), split=st.integers(0, 20), data=st.data())
def test_fused_checkpoint_resume_matches_one_shot(
    lines, split, data, tmp_path_factory
):
    """Absorb-checkpoint-reload-absorb under fused ingestion equals a
    one-shot classic fold over the concatenation."""
    algorithm = data.draw(st.sampled_from(STATE_ALGORITHMS))
    base = tmp_path_factory.mktemp("fused-resume")
    split = min(split, len(lines))
    first, second = lines[:split], lines[split:]
    _write_lines(base / "first.jsonl", first)
    _write_lines(base / "second.jsonl", second)
    _write_lines(base / "whole.jsonl", lines)

    oneshot = state_for_algorithm(algorithm, None)
    oneshot.absorb_many(
        ingest_jsonlines(base / "whole.jsonl", on_bad_record="skip")[0]
    )

    interleaved = state_for_algorithm(algorithm, None)
    absorb_file(
        interleaved, base / "first.jsonl", ingest="fused", on_bad_record="skip"
    )
    save_state(interleaved, base / "ckpt.bin")
    resumed = load_state(base / "ckpt.bin")
    absorb_file(
        resumed, base / "second.jsonl", ingest="fused", on_bad_record="skip"
    )
    assert resumed.to_bytes() == oneshot.to_bytes()
