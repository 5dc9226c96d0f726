"""Fused JSON-lines ingestion: bytes → interned JsonType in one pass.

The classic pipeline crosses the data three times per line — ``bytes →
str → json.loads value tree → type_of → JsonType`` — and throws two of
the three intermediate representations away.  :func:`read_jsonlines_fused`
collapses it: raw line bytes go straight to an interned
:class:`~repro.jsontypes.types.JsonType` via
the :mod:`repro.jsontypes.tokenizer` scanner, with a structural-hash
fast path in front: each eligible line's key-shape skeleton
(:meth:`~repro.jsontypes.tokenizer.ShapeCache.skeleton`, which both
readers call) probes a bounded
:class:`~repro.jsontypes.tokenizer.ShapeCache`, and a hit reuses the
already-interned type without parsing at all.  A hit costs the
skeleton's C-level string operations plus two dict lookups: the key
positions of the line's structure, then the shape.  On corpora with
structural repetition — every corpus schema discovery is for — the
cache absorbs ~99% of lines.

**Contract: byte-identical to the slow path.**  For any file and any
``on_bad_record`` policy, feeding this reader's types into a
:class:`~repro.discovery.state.DiscoveryState` produces the same
``to_bytes()`` as absorbing the classic reader's values, and the
:class:`~repro.io.jsonlines.IngestReport` (line numbers, byte offsets,
error strings) is equal as well.  The pieces that guarantee it:

* the skeleton's collision-safety contract (see the tokenizer module)
  means a hit can only ever return the exact type the scanner would
  have produced, and malformed lines never hit;
* a shape's *first* occurrence is always a miss that parses, interns,
  and absorbs the type — so bag first-occurrence order (the codec's
  byte order) matches the classic fold exactly, and FIFO eviction
  cannot reorder anything (a re-parse re-interns to the same object);
* misses parse with the same C scanner as ``json.loads`` on the same
  decoded text, so malformed lines produce the same exception text,
  and lines that only fail the ``MAX_DEPTH`` bound raise
  :class:`~repro.errors.RecursionDepthError` *after* being counted —
  exactly when the classic consumer's ``absorb`` would have.

This reader yields **types**, not values, so it serves discovery
(and anything else that is a function of types only).  Its sibling
:func:`read_jsonlines_typed` yields ``(type, value)`` pairs for the
enrichment sketches, with the same shape cache: a hit takes the type
from the cache and the value from the stdlib decoder.

:func:`absorb_file` is the one way a file enters a discovery state:
it picks the fused reader, the typed one (enriched states) or the
classic reader.  All three read the same buffered stream
(:func:`~repro.io.jsonlines._open_binary`), so a read holds one buffer
and one line at a time, and its memory does not grow with the file.

Counters (flushed once per file, not per line):
``ingest.fused_records`` or ``ingest.typed_records``,
``ingest.shape_hits``, ``ingest.shape_misses``, ``ingest.bytes``, and
the shared ``ingest.bad_records``.
"""

from __future__ import annotations

import gzip
import io
import json
from typing import Iterator, Optional, Tuple

from repro.errors import RecursionDepthError
from repro.io.jsonlines import (
    IngestReport,
    PathLike,
    _BOM_BYTES,
    _bad_line,
    _check_ingest_mode,
    _check_policy,
    _open_binary,
    _seek_range_start,
    read_jsonlines,
)
from repro.jsontypes.bag import CountedBag
from repro.jsontypes.tokenizer import (
    ShapeCache,
    depth_exceeds,
    int_digit_limit,
    scan_type,
    scan_typed,
)
from repro.jsontypes.types import JsonType, MAX_DEPTH, type_of


def split_byte_ranges(path: PathLike, shards: int):
    """Newline-aligned byte ranges covering ``path``, or ``None``.

    Divides the file into at most ``shards`` contiguous ranges whose
    boundaries sit just after a newline, so every range starts at a
    line start and the ranges partition the file exactly — each
    boundary is the end of the line at or after an evenly spaced
    candidate offset, found with one ``seek`` and one ``readline``
    without reading any records.  Returns ``None`` when the file cannot
    be range-split (gzip, empty, not seekable); callers then fall back
    to a single whole-file shard.  Short files yield fewer ranges than
    requested rather than empty ones.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    with _open_binary(path) as handle:
        if isinstance(handle, gzip.GzipFile) or not handle.seekable():
            return None
        size = handle.seek(0, io.SEEK_END)
        if size == 0:
            return None
        boundaries = [0]
        for index in range(1, shards):
            candidate = index * size // shards
            if candidate <= boundaries[-1]:
                continue
            handle.seek(candidate)
            boundary = candidate + len(handle.readline())
            if boundaries[-1] < boundary < size:
                boundaries.append(boundary)
        boundaries.append(size)
        return list(zip(boundaries, boundaries[1:]))


def read_jsonlines_fused(
    path: PathLike,
    *,
    on_bad_record: str = "raise",
    report: Optional[IngestReport] = None,
    shape_cache: Optional[ShapeCache] = None,
    start: int = 0,
    end: Optional[int] = None,
) -> Iterator[JsonType]:
    """Stream the interned record *types* of a ``.jsonl`` file.

    Same signature, policies, report accounting, and error behaviour
    as :func:`~repro.io.jsonlines.read_jsonlines` (including its
    ``start``/``end`` ranged reads with range-relative line numbers
    and absolute byte offsets), but each yielded item is the record's
    :class:`~repro.jsontypes.types.JsonType` rather than its parsed
    value.  Pass a :class:`ShapeCache` to share shape state across
    files (e.g. an append sequence); by default each call gets a fresh
    bounded cache.
    """
    _check_policy(on_bad_record)
    if report is None:
        report = IngestReport(path=str(path), policy=on_bad_record)
    else:
        report.policy = on_bad_record
    cache = shape_cache if shape_cache is not None else ShapeCache()
    cache.digit_limit = int_digit_limit()
    skeleton_of = cache.skeleton
    cache_get = cache._table.get
    hits = 0
    misses = 0
    records = 0
    byte_offset = start
    handle = _open_binary(path)
    if start:
        _seek_range_start(handle, path, start)
    try:
        for line_number, line in enumerate(handle, start=1):
            if end is not None and byte_offset >= end:
                break
            byte_offset += len(line)
            report.total_lines = line_number
            if line_number == 1 and start == 0 and line.startswith(_BOM_BYTES):
                line = line[len(_BOM_BYTES):]
            stripped = line.strip()
            if not stripped:
                continue
            # -- the structural-hash fast path, the hot loop of a
            # default discover: on a repetitive corpus ~99% of lines end
            # here, after the skeleton's key-position lookup and one
            # shape lookup.
            skeleton = skeleton_of(stripped)
            if skeleton is not None:
                tau = cache_get(skeleton)
                if tau is not None:
                    hits += 1
                    records += 1
                    report.record_count += 1
                    yield tau
                    continue
            # -- the scanner path (first occurrence of a shape, or a
            # line the skeleton refuses: escapes, non-ASCII, garbage).
            try:
                tau = scan_type(stripped.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                _bad_line(
                    report, path, line_number, byte_offset - len(line),
                    stripped, exc,
                )
                continue
            if depth_exceeds(tau, MAX_DEPTH):
                # The classic path counts the record at yield time and
                # crashes in the consumer's type_of; mirror that exact
                # ordering so reports and failure modes line up.
                records += 1
                report.record_count += 1
                raise RecursionDepthError(
                    "value exceeds maximum nesting depth"
                )
            misses += 1
            records += 1
            report.record_count += 1
            if skeleton is not None:
                cache.put(skeleton, tau)
            yield tau
    finally:
        cache.hits += hits
        cache.misses += misses
        _flush_counters("fused", records, hits, misses, byte_offset - start)
        handle.close()


def _flush_counters(
    reader: str, records: int, hits: int, misses: int, nbytes: int
) -> None:
    # One locked add per counter per file; never per line.
    from repro.engine.instrument import counters

    counters.add(f"ingest.{reader}_records", records)
    counters.add("ingest.shape_hits", hits)
    counters.add("ingest.shape_misses", misses)
    counters.add("ingest.bytes", nbytes)


def read_jsonlines_typed(
    path: PathLike,
    *,
    on_bad_record: str = "raise",
    report: Optional[IngestReport] = None,
    start: int = 0,
    end: Optional[int] = None,
) -> Iterator[Tuple[JsonType, object]]:
    """Stream ``(type, value)`` pairs of a ``.jsonl`` file in one pass.

    The enrichment sibling of :func:`read_jsonlines_fused`: the same
    policies, report accounting, ranged reads, error behaviour and
    shape cache (a fresh one per call).  A line whose skeleton hits
    takes its type from the cache and its value from the stdlib C
    decoder, with no hooks; the skeleton's collision safety means that
    decode cannot fail.  A miss parses with the typed scanner, which
    builds the value and the type in one pass, and fills the cache.

    Yields the same types (the same interned objects) in the same
    order as the fused reader, with the same :class:`IngestReport`, so
    discovery over this reader is byte-identical to discovery over the
    fused one; each value is ``json.loads`` of its line.
    """
    _check_policy(on_bad_record)
    if report is None:
        report = IngestReport(path=str(path), policy=on_bad_record)
    else:
        report.policy = on_bad_record
    cache = ShapeCache()
    skeleton_of = cache.skeleton
    cache_get = cache._table.get
    loads = json.JSONDecoder().decode
    hits = 0
    misses = 0
    records = 0
    byte_offset = start
    handle = _open_binary(path)
    if start:
        _seek_range_start(handle, path, start)
    try:
        for line_number, line in enumerate(handle, start=1):
            if end is not None and byte_offset >= end:
                break
            byte_offset += len(line)
            report.total_lines = line_number
            if line_number == 1 and start == 0 and line.startswith(_BOM_BYTES):
                line = line[len(_BOM_BYTES):]
            stripped = line.strip()
            if not stripped:
                continue
            skeleton = skeleton_of(stripped)
            if skeleton is not None:
                tau = cache_get(skeleton)
                if tau is not None:
                    hits += 1
                    records += 1
                    report.record_count += 1
                    # A skeleton line is ASCII.
                    yield tau, loads(stripped.decode("ascii"))
                    continue
            try:
                tau, value = scan_typed(stripped.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                _bad_line(
                    report, path, line_number, byte_offset - len(line),
                    stripped, exc,
                )
                continue
            if depth_exceeds(tau, MAX_DEPTH):
                # Count first, then raise — the fused reader's exact
                # ordering, which itself mirrors the classic path.
                records += 1
                report.record_count += 1
                raise RecursionDepthError(
                    "value exceeds maximum nesting depth"
                )
            misses += 1
            records += 1
            report.record_count += 1
            if skeleton is not None:
                cache.put(skeleton, tau)
            yield tau, value
    finally:
        _flush_counters("typed", records, hits, misses, byte_offset - start)
        handle.close()


def absorb_file(
    state,
    path: PathLike,
    *,
    ingest: str,
    on_bad_record: str,
    start: int = 0,
    end: Optional[int] = None,
) -> IngestReport:
    """Fold a file into a :class:`~repro.discovery.state.DiscoveryState`.

    This is the one way a file enters a state: the CLI, resumed and
    appended runs, ``JxplainPipeline.run_file`` and every shard worker
    make this call.  ``ingest`` picks the reader (``"fused"`` or
    ``"classic"``); ``start``/``end`` bound the read to a byte range.

    The records' types are folded into a
    :class:`~repro.jsontypes.bag.CountedBag`.  When the state is
    enriched, their values are observed into a fresh sidecar
    (``state.enrichment.empty_like()``) in the same pass.  Then the bag
    is absorbed once and the sidecar merged once, so:

    * the state is updated at per-*distinct*-type cost;
    * the bytes equal per-record absorption over the classic reader
      (bag order is first-occurrence order, and the sidecar is a
      monoid), with the same report;
    * the file is absorbed whole or not at all: if reading raises
      (:class:`~repro.errors.DatasetError` under the ``raise`` policy,
      :class:`~repro.errors.RecursionDepthError` for an over-deep
      record), the state is left untouched.

    Returns the filled report.
    """
    _check_ingest_mode(ingest)
    report = IngestReport(path=str(path), policy=on_bad_record)
    ranged = {
        "on_bad_record": on_bad_record,
        "report": report,
        "start": start,
        "end": end,
    }
    if state.enrichment is None:
        if ingest == "fused":
            types = read_jsonlines_fused(path, **ranged)
        else:
            types = map(type_of, read_jsonlines(path, **ranged))
        state.absorb_bag(CountedBag.from_types(types))
        return report
    # Sketches need the parsed values, so an enriched read yields
    # (type, value) pairs.
    if ingest == "fused":
        pairs = read_jsonlines_typed(path, **ranged)
    else:
        pairs = (
            (type_of(value), value)
            for value in read_jsonlines(path, **ranged)
        )
    bag = CountedBag()
    add = bag.add
    sidecar = state.enrichment.empty_like()
    observe = sidecar.observe
    for tau, value in pairs:
        add(tau)
        observe(value, tau)
    state.absorb_bag(bag)
    state.enrichment = state.enrichment.merge(sidecar)
    return report
