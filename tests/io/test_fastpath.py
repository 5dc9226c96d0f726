"""The fused reader against the classic one, and the raw-byte offset
contract both readers now share.

The pinned fixture here is deliberately non-ASCII: byte offsets must
come from the raw buffer, so a line of multi-byte UTF-8 ahead of a bad
record shifts the recorded offset by its *byte* length, not its
character length.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.errors import DatasetError, RecursionDepthError
from repro.io.fastpath import (
    absorb_file,
    read_jsonlines_fused,
    read_jsonlines_typed,
    split_byte_ranges,
)
from repro.io.jsonlines import (
    IngestReport,
    _open_binary,
    ingest_jsonlines,
    load_jsonlines,
    read_jsonlines,
)
from repro.jsontypes.tokenizer import ShapeCache
from repro.jsontypes.types import MAX_DEPTH, type_of

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Three lines: 2-byte-per-char Greek, a 4-byte emoji, then garbage.
#: The garbage line's byte offset is the sum of the *byte* lengths of
#: the lines before it — 21 + 14 = 35 — which a character-counting
#: reader would misreport as 15 + 11 = 26.
NON_ASCII_LINES = [
    '{"λ": "αβγδε"}',  # 14 chars, 21 bytes (with newline)
    '{"e": "🌍"}',  # 10 chars, 14 bytes (with newline)
    "garbage",
]
GARBAGE_OFFSET = 21 + 14


def _write(path, lines, *, compress=False, bom=False):
    payload = b"".join(line.encode("utf-8") + b"\n" for line in lines)
    if bom:
        payload = b"\xef\xbb\xbf" + payload
    if compress:
        path.write_bytes(gzip.compress(payload))
    else:
        path.write_bytes(payload)
    return path


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_multibyte_offsets_are_raw_byte_exact_in_both_modes(
    tmp_path, compress
):
    suffix = ".jsonl.gz" if compress else ".jsonl"
    path = _write(
        tmp_path / f"multibyte{suffix}", NON_ASCII_LINES, compress=compress
    )
    records, classic = ingest_jsonlines(path, on_bad_record="collect")
    fused = IngestReport(path=str(path), policy="collect")
    types = list(
        read_jsonlines_fused(path, on_bad_record="collect", report=fused)
    )
    for report in (classic, fused):
        assert report.record_count == 2
        assert report.bad_line_numbers() == [3]
        assert report.bad_records[0].byte_offset == GARBAGE_OFFSET
        assert report.bad_records[0].payload == "garbage"
    assert [type_of(record) for record in records] == types


def test_fused_matches_classic_on_bom_and_blank_lines(tmp_path):
    path = _write(
        tmp_path / "bom.jsonl",
        ['{"a": 1}', "", "   ", '{"a": 2}'],
        bom=True,
    )
    records, classic = ingest_jsonlines(path, on_bad_record="skip")
    fused = IngestReport(path=str(path), policy="skip")
    types = list(
        read_jsonlines_fused(path, on_bad_record="skip", report=fused)
    )
    assert classic == fused
    assert fused.record_count == 2
    assert [type_of(record) for record in records] == types


def test_fused_raise_policy_matches_classic_message(tmp_path):
    path = _write(tmp_path / "bad.jsonl", ['{"a": 1}', "{nope"])
    with pytest.raises(DatasetError) as classic_error:
        list(ingest_jsonlines(path, on_bad_record="raise")[0])
    with pytest.raises(DatasetError) as fused_error:
        list(read_jsonlines_fused(path, on_bad_record="raise"))
    assert str(fused_error.value) == str(classic_error.value)


def test_fused_hits_do_not_reparse_and_preserve_identity(tmp_path):
    lines = ['{"a": %d, "b": "%s"}' % (i, "x" * (i % 3)) for i in range(50)]
    path = _write(tmp_path / "repeat.jsonl", lines)
    cache = ShapeCache()
    report = IngestReport(path=str(path), policy="raise")
    types = list(
        read_jsonlines_fused(path, report=report, shape_cache=cache)
    )
    assert report.record_count == 50
    # One shape → one miss, everything else served from the cache.
    assert cache.misses == 1
    assert cache.hits == 49
    assert len(set(map(id, types))) == 1


def test_shape_cache_can_be_shared_across_files(tmp_path):
    first = _write(tmp_path / "one.jsonl", ['{"k": 1}'] * 3)
    second = _write(tmp_path / "two.jsonl", ['{"k": 2}'] * 3)
    cache = ShapeCache()
    list(read_jsonlines_fused(first, shape_cache=cache))
    list(read_jsonlines_fused(second, shape_cache=cache))
    assert cache.misses == 1
    assert cache.hits == 5


def test_absorb_fused_streams_into_state(tmp_path):
    from repro.discovery.state import state_for_algorithm

    path = _write(tmp_path / "s.jsonl", ['{"a": 1}', '{"a": 1, "b": "x"}'])
    fused_state = state_for_algorithm("l-reduce", None)
    report = absorb_file(
        fused_state, path, ingest="fused", on_bad_record="raise"
    )
    assert isinstance(report, IngestReport)
    assert report.record_count == 2
    classic_state = state_for_algorithm("l-reduce", None)
    classic_state.absorb_many(ingest_jsonlines(path)[0])
    assert fused_state.to_bytes() == classic_state.to_bytes()


@pytest.mark.parametrize(
    "enrich", [None, "sketches,unions"], ids=["plain", "enriched"]
)
@pytest.mark.parametrize("ingest", ["fused", "classic"])
@pytest.mark.parametrize("algorithm", ["bimax-merge", "k-reduce", "l-reduce"])
def test_absorb_file_is_all_or_nothing_per_file(
    tmp_path, algorithm, ingest, enrich
):
    # Every reader x enrichment combination folds the file into a bag
    # (and a fresh sidecar) and absorbs once, so a read that fails
    # part-way leaves the state exactly as it was before the call.
    from repro.discovery.state import state_for_algorithm

    def absorb(path):
        absorb_file(state, path, ingest=ingest, on_bad_record="raise")

    state = state_for_algorithm(algorithm, None, enrich=enrich)
    absorb(_write(tmp_path / "ok.jsonl", ['{"a": 1}', '{"b": [1]}']))
    before = state.to_bytes()
    garbage = _write(
        tmp_path / "garbage.jsonl", ['{"a": 1}', '{"c": true}', "garbage"]
    )
    with pytest.raises(DatasetError):
        absorb(garbage)
    assert state.to_bytes() == before
    deep = _write(
        tmp_path / "deep.jsonl", ['{"d": 1}', "[" * 300 + "]" * 300]
    )
    with pytest.raises(RecursionDepthError):
        absorb(deep)
    assert state.to_bytes() == before


def test_absorb_fused_byte_range_matches_classic_range(tmp_path):
    from repro.discovery.state import state_for_algorithm
    from repro.io.jsonlines import read_jsonlines

    lines = ['{"a": 1}', '{"b": [1, 2]}', '{"a": 2}', '{"c": {"d": null}}']
    path = _write(tmp_path / "range.jsonl", lines * 5)
    offsets = [0]
    for line in lines * 5:
        offsets.append(offsets[-1] + len(line) + 1)
    start, end = offsets[1], offsets[10]
    fused = state_for_algorithm("bimax-merge", None)
    report = absorb_file(
        fused, path, ingest="fused", on_bad_record="raise",
        start=start, end=end,
    )
    classic = state_for_algorithm("bimax-merge", None)
    classic.absorb_many(read_jsonlines(path, start=start, end=end))
    assert report.record_count == 9
    assert fused.to_bytes() == classic.to_bytes()


def test_absorb_file_rejects_unknown_ingest_mode(tmp_path):
    from repro.discovery.state import state_for_algorithm

    path = _write(tmp_path / "modes.jsonl", ['{"a": 1}'])
    with pytest.raises(DatasetError, match="unknown ingest mode"):
        absorb_file(
            state_for_algorithm("l-reduce"), path,
            ingest="warp", on_bad_record="raise",
        )


def test_load_jsonlines_ingest_modes(tmp_path):
    path = _write(tmp_path / "load.jsonl", ['{"a": 1}'])
    assert load_jsonlines(path) == [{"a": 1}]
    assert load_jsonlines(path, ingest="fused") == [type_of({"a": 1})]
    with pytest.raises(DatasetError, match="unknown ingest mode"):
        load_jsonlines(path, ingest="warp")


def test_fused_counters_flush_once_per_file(tmp_path):
    from repro.engine.instrument import counters

    path = _write(tmp_path / "c.jsonl", ['{"a": 1}'] * 5)
    for reader, records in (
        (read_jsonlines_fused, "ingest.fused_records"),
        (read_jsonlines_typed, "ingest.typed_records"),
    ):
        before = counters.snapshot()
        lines = iter(reader(path))
        next(lines)
        # Nothing is flushed while the file is being read ...
        assert counters.snapshot() == before
        list(lines)
        after = counters.snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # ... and all of it once the file is done: one shape, four hits.
        assert delta(records) == 5
        assert delta("ingest.shape_misses") == 1
        assert delta("ingest.shape_hits") == 4
        assert delta("ingest.bytes") == path.stat().st_size


# ---------------------------------------------------------------------------
# The typed reader: the fused reader's types, json.loads' values and the
# classic reader's report, with cache hits decoded by the stdlib.
# ---------------------------------------------------------------------------

#: Repeated shapes with different values (cache hits), numbers the
#: skeleton normalizes, non-ASCII text, escapes, duplicate keys, blank
#: lines, garbage and a truncated line of a cached shape.
TYPED_LINES = [
    '{"id": 1, "name": "alpha", "tags": ["x", "y"], "ok": true}',
    '{"id": 2, "name": "beta", "tags": ["z", "w"], "ok": true}',
    '{"id": 4.5, "name": "", "tags": ["", "q"], "ok": true}',
    '{"id": -0, "name": "d", "tags": ["1", "2"], "ok": true}',
    '{"id": -0.0, "name": "e", "tags": ["a", "b"], "ok": true}',
    '{"id": 1e400, "name": "f", "tags": ["c", "d"], "ok": true}',
    '{"id": %d, "name": "g", "tags": ["e", "f"], "ok": true}' % 2**70,
    '{"id": -%s, "name": "h", "tags": ["g", "h"], "ok": true}' % ("9" * 400),
    "",
    '{"id": NaN, "name": "i", "tags": ["i", "j"], "ok": true}',
    '{"id": NaN, "name": "j", "tags": ["k", "l"], "ok": true}',
    '{"id": Infinity, "name": "k", "tags": [], "ok": false}',
    '{"id": -Infinity, "name": "l", "tags": [], "ok": false}',
    '{"λ": "αβγ", "esc": "a\\"b\\u00e9\\n", "id": 3}',
    '{"λ": "δεζ", "esc": "\\ud83c\\udf0d", "id": 4}',
    "   ",
    '{"dup": 1, "dup": "two", "k": null}',
    '{"dup": 3, "dup": "four", "k": null}',
    "garbage",
    '{"id": 5, "name": "m", "tags": ["m", "n"], "ok": true',
    "[1, 2, {\"a\": null}]",
    "[3, 4, {\"a\": null}]",
    '"just a string"',
    "7",
    '{"id": 6, "name": "n", "tags": ["o", "p"], "ok": true}',
]


def _classic_pairs(path, **kwargs):
    for value in read_jsonlines(path, **kwargs):
        yield type_of(value), value


def _fused_pairs(path, **kwargs):
    for tau in read_jsonlines_fused(path, **kwargs):
        yield tau, None


READERS = {
    "classic": _classic_pairs,
    "fused": _fused_pairs,
    "typed": read_jsonlines_typed,
}


def _run(reader, path, policy, **ranged):
    """(pairs, report, error text) of one read to its end or its
    first error."""
    report = IngestReport(path=str(path), policy=policy)
    pairs = []
    error = None
    try:
        for pair in READERS[reader](
            path, on_bad_record=policy, report=report, **ranged
        ):
            pairs.append(pair)
    except (DatasetError, RecursionDepthError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return pairs, report, error


def _assert_readers_agree(path, policy, **ranged):
    return _assert_runs_agree(
        *(_run(reader, path, policy, **ranged) for reader in READERS)
    )


def _assert_runs_agree(classic_run, fused_run, typed_run):
    """The classic, fused and typed runs (in ``READERS`` order) agree;
    returns the common report and error text."""
    classic, classic_report, classic_error = classic_run
    fused, fused_report, fused_error = fused_run
    typed, typed_report, typed_error = typed_run
    assert len(typed) == len(fused) == len(classic)
    for (tau, value), (fused_tau, _), (classic_tau, classic_value) in zip(
        typed, fused, classic
    ):
        assert tau is fused_tau is classic_tau
        # repr tells 1 from 1.0 and -0.0 from 0.0, keeps key order and
        # compares NaN; a line's value is json.loads of it.
        assert repr(value) == repr(classic_value)
    assert typed_report == fused_report == classic_report
    assert typed_error == fused_error == classic_error
    return typed_report, typed_error


@pytest.mark.parametrize("policy", ["raise", "skip", "collect"])
@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_typed_reader_agrees_with_fused_and_classic(
    tmp_path, policy, compress
):
    suffix = ".jsonl.gz" if compress else ".jsonl"
    path = _write(
        tmp_path / f"typed{suffix}", TYPED_LINES, compress=compress, bom=True
    )
    report, error = _assert_readers_agree(path, policy)
    if policy == "raise":
        assert error.startswith(f"DatasetError: {path}:19: invalid JSON")
    else:
        assert error is None
        assert report.bad_line_numbers() == [19, 20]
        # Two blank lines and two bad ones.
        assert report.record_count == len(TYPED_LINES) - 4


def test_typed_reader_serves_repeated_shapes_from_the_cache(tmp_path):
    from repro.engine.instrument import counters

    path = _write(tmp_path / "hits.jsonl", TYPED_LINES)
    before = counters.snapshot()
    _assert_readers_agree(path, "skip")
    after = counters.snapshot()
    hits = after["ingest.shape_hits"] - before.get("ingest.shape_hits", 0)
    # The fused and the typed reader: 11 hits each.
    assert hits == 2 * 11


@pytest.mark.parametrize("policy", ["raise", "skip", "collect"])
def test_typed_reader_agrees_on_an_over_deep_record(tmp_path, policy):
    deep = "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1)
    path = _write(tmp_path / "deep.jsonl", TYPED_LINES[:8] + [deep, "{}"])
    report, error = _assert_readers_agree(path, policy)
    assert error == (
        "RecursionDepthError: value exceeds maximum nesting depth"
    )
    # Every reader counts the over-deep record before it raises.
    assert report.record_count == 9


@pytest.mark.parametrize("policy", ["raise", "skip", "collect"])
def test_typed_reader_agrees_on_byte_ranges(tmp_path, policy):
    path = _write(tmp_path / "ranged.jsonl", TYPED_LINES * 3)
    ranges = split_byte_ranges(path, 4)
    assert len(ranges) == 4
    for start, end in ranges:
        _assert_readers_agree(path, policy, start=start, end=end)


#: One int literal past the default int-parse limit (4,300 digits).
LONG_INT_LINE = '{"a": 1%s, "b": "x"}' % ("0" * 5000)


@pytest.mark.parametrize("policy", ["raise", "skip", "collect"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "after"])
def test_readers_agree_on_an_int_past_the_parse_limit(
    tmp_path, policy, first
):
    # After a valid line of the same shape, the long line's skeleton
    # would hit that line's cache entry if it were not refused one.
    valid = '{"a": 5, "b": "y"}'
    lines = [LONG_INT_LINE, valid] if first else [valid, LONG_INT_LINE]
    path = _write(tmp_path / "long.jsonl", lines + [valid])
    report, error = _assert_readers_agree(path, policy)
    bad_line = 1 if first else 2
    if policy == "raise":
        assert error.startswith(
            f"DatasetError: {path}:{bad_line}: invalid JSON: Exceeds the limit"
        )
    else:
        assert report.bad_line_numbers() == [bad_line]
        assert report.record_count == 2
        assert report.bad_records[0].error.startswith(
            "ValueError: Exceeds the limit (4300 digits)"
        )


# ---------------------------------------------------------------------------
# The line source: one buffered stream, on pipes too, whose memory does
# not grow with the file.
# ---------------------------------------------------------------------------


def _feed_fifo(fifo, payload=b""):
    """Start a thread that opens ``fifo`` for writing (which blocks
    until a reader opens it), writes ``payload`` and closes it."""

    def write():
        with open(fifo, "wb") as pipe:
            pipe.write(payload)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def _join(writer):
    writer.join(timeout=30)
    assert not writer.is_alive()


needs_fifo = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="needs named pipes"
)


@needs_fifo
@pytest.mark.parametrize("policy", ["raise", "collect"])
def test_readers_agree_on_a_fifo(tmp_path, policy):
    # The same bytes at the same path, first as a file, then as a pipe.
    path = _write(tmp_path / "lines.jsonl", TYPED_LINES, bom=True)
    payload = path.read_bytes()
    plain = [_run(reader, path, policy) for reader in READERS]
    expected = _assert_runs_agree(*plain)
    path.unlink()
    os.mkfifo(path)
    piped = []
    for reader in READERS:
        writer = _feed_fifo(path, payload)
        piped.append(_run(reader, path, policy))
        _join(writer)
    assert _assert_runs_agree(*piped) == expected
    # The fused reader's types (READERS order: classic, fused, typed).
    assert piped[1][0] == plain[1][0]


@needs_fifo
def test_a_fifo_is_not_range_split(tmp_path):
    fifo = tmp_path / "lines.jsonl"
    os.mkfifo(fifo)
    writer = _feed_fifo(fifo)
    assert split_byte_ranges(fifo, 2) is None
    _join(writer)
    # Which is why: a pipe cannot seek to a range's start.
    writer = _feed_fifo(fifo)
    with _open_binary(fifo) as handle, pytest.raises(io.UnsupportedOperation):
        handle.seek(1)
    _join(writer)


#: Run in a fresh interpreter: read a file whole, then its second half,
#: and print how far the peak RSS rose, in KiB.  Linux carries a
#: process's peak RSS across ``exec`` (this one would start at the test
#: runner's), so the reads run in a forked child, whose peak starts at
#: its own size.
PEAK_RSS_PROBE = """
import collections, os, resource, sys
from repro.io.fastpath import (
    read_jsonlines_fused, read_jsonlines_typed, split_byte_ranges,
)
from repro.io.jsonlines import read_jsonlines

reader, path = sys.argv[1:]
read = {
    "classic": read_jsonlines,
    "fused": read_jsonlines_fused,
    "typed": read_jsonlines_typed,
}[reader]
start, end = split_byte_ranges(path, 2)[1]
pid = os.fork()
if pid == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    collections.deque(read(path), maxlen=0)
    collections.deque(read(path, start=start, end=end), maxlen=0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    sys.stdout.flush()
    os._exit(0)
assert os.waitpid(pid, 0)[1] == 0
"""


@pytest.fixture(scope="module")
def repetitive_corpus(tmp_path_factory):
    """About 20 MB of JSON lines in three repeated shapes."""
    filler = "x" * 160
    block = "".join(
        '{"id": %d, "name": "%s", "tags": ["a", "b"], "ok": true}\n'
        '{"id": %d, "event": {"kind": "push", "size": %d.5}}\n'
        '[%d, "%s", null]\n' % (i, filler, i, i, i, filler)
        for i in range(1000)
    )
    path = tmp_path_factory.mktemp("memory") / "repetitive.jsonl"
    path.write_text(block * (20 * 2**20 // len(block)))
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
@pytest.mark.parametrize("reader", list(READERS))
def test_peak_memory_of_a_read_does_not_grow_with_the_file(
    repetitive_corpus, reader
):
    assert repetitive_corpus.stat().st_size >= 16 * 2**20
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, reader, str(repetitive_corpus)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    grown_kib = int(done.stdout.split()[-1])
    # A reader holds one buffer and one line, not the bytes it has read.
    assert grown_kib < 4 * 1024
