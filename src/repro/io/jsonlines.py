"""JSON-lines reading and writing, with an error channel.

All of the paper's corpora ship as newline-delimited JSON; these
helpers stream them without materializing the file.  Real collections
are dirty — truncated tails, byte-order marks, NUL bytes, nesting
deeper than the parser's stack, garbage lines — and a single bad line
must not abort a million-record run, so ingestion supports three
``on_bad_record`` policies:

* ``"raise"`` (default, the seed behaviour) — abort on the first
  malformed line with a :class:`~repro.errors.DatasetError` naming the
  line;
* ``"skip"`` — drop malformed lines, recording each one's line number,
  byte offset, and error in the :class:`IngestReport` (payloads are
  not retained);
* ``"collect"`` — like ``skip``, but additionally retain a truncated
  copy of each bad line's payload for postmortems.

Every read fills a per-file :class:`IngestReport`; pass your own to
:func:`read_jsonlines` to observe it, or use :func:`ingest_jsonlines`
to get ``(records, report)`` in one call.  Files are read as raw
bytes and split on ``\\n`` only, so byte offsets are sums of raw line
lengths in the (decompressed) stream — exact for CRLF files and for
multi-byte UTF-8 content alike, with no re-encoding step that could
drift.  Each line is decoded to UTF-8 individually; a line that is
not valid UTF-8 is a bad record under the active policy rather than a
stream-killing exception.

Tolerated without counting as errors: blank lines, and a UTF-8 BOM at
the start of the file.  Lines whose JSON is syntactically valid but
abusive (e.g. nesting past the recursion limit) are treated as bad
records rather than crashing the reader.

:mod:`repro.io.fastpath` provides the fused variant of this reader —
same files, same policies, same report accounting, but yielding
interned record *types* directly; ``ingest="fused"`` on
:func:`load_jsonlines` (and on the dataset/pipeline/CLI layers above)
selects it.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path as FsPath
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import DatasetError
from repro.jsontypes.types import JsonValue
from repro.records import FrozenRecord, Record

PathLike = Union[str, FsPath]

#: The recognised ``on_bad_record`` policies.
INGEST_POLICIES = ("raise", "skip", "collect")

#: The recognised ingestion modes: the classic value reader and the
#: fused bytes\u2192type reader of :mod:`repro.io.fastpath`.
INGEST_MODES = ("classic", "fused")

#: Longest bad-line payload retained under the ``collect`` policy.
BAD_PAYLOAD_LIMIT = 160

#: The UTF-8 byte-order mark, as raw bytes (readers work on bytes).
_BOM_BYTES = b"\xef\xbb\xbf"


class BadRecord(FrozenRecord):
    """One malformed line: where it was and why it failed."""

    __slots__ = ("line_number", "byte_offset", "error", "payload")

    def __init__(
        self,
        #: 1-based line number in the file.
        line_number: int,
        #: Byte offset of the line's first byte in the decompressed
        #: stream.
        byte_offset: int,
        #: What the parser objected to.
        error: str,
        #: The offending line, truncated to :data:`BAD_PAYLOAD_LIMIT`
        #: characters (empty under the ``skip`` policy, which does not
        #: retain payloads).
        payload: str = "",
    ) -> None:
        self._init(line_number, byte_offset, error, payload)


class IngestReport(Record):
    """Per-file account of an ingestion run."""

    __slots__ = (
        "path", "policy", "total_lines", "record_count", "bad_records",
    )

    def __init__(
        self,
        path: str,
        policy: str = "raise",
        #: Lines seen, including blank and malformed ones.
        total_lines: int = 0,
        #: Well-formed records yielded.
        record_count: int = 0,
        bad_records: Optional[List[BadRecord]] = None,
    ) -> None:
        self._init(
            path, policy, total_lines, record_count,
            [] if bad_records is None else bad_records,
        )

    @property
    def bad_count(self) -> int:
        return len(self.bad_records)

    @property
    def ok(self) -> bool:
        """Whether every non-blank line parsed."""
        return not self.bad_records

    def bad_line_numbers(self) -> List[int]:
        return [bad.line_number for bad in self.bad_records]

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.path}: {self.record_count} records, no bad lines"
            )
        positions = ", ".join(
            str(number) for number in self.bad_line_numbers()[:8]
        )
        suffix = ", ..." if self.bad_count > 8 else ""
        return (
            f"{self.path}: {self.record_count} records, "
            f"{self.bad_count} bad line(s) at {positions}{suffix}"
        )


def merge_ingest_reports(
    reports: Iterable[IngestReport],
    *,
    path: Optional[str] = None,
    policy: Optional[str] = None,
) -> IngestReport:
    """Combine shard-relative reports into one whole-file report.

    ``reports`` must come in shard order (ascending byte ranges).
    Each ranged read numbers lines relative to its own range, so bad
    records are re-based by the total line count of every preceding
    report; byte offsets are already absolute and pass through
    untouched.  With newline-aligned ranges covering the file exactly,
    the merged report equals the one a single whole-file read under
    the same policy would have produced.
    """
    reports = list(reports)
    merged = IngestReport(
        path=path
        if path is not None
        else (reports[0].path if reports else ""),
        policy=policy
        if policy is not None
        else (reports[0].policy if reports else "raise"),
    )
    lines_before = 0
    for report in reports:
        for bad in report.bad_records:
            merged.bad_records.append(
                BadRecord(
                    line_number=lines_before + bad.line_number,
                    byte_offset=bad.byte_offset,
                    error=bad.error,
                    payload=bad.payload,
                )
            )
        merged.record_count += report.record_count
        lines_before += report.total_lines
    merged.total_lines = lines_before
    return merged


def _open_text(path: PathLike, mode: str, newline: Optional[str] = None) -> IO[str]:
    path = FsPath(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)


#: Read buffer of a plain input: every reader's line loop runs over it,
#: refilling 16 times less often than with a 4 KiB ``st_blksize``
#: default.
READ_BUFFER_BYTES = 64 * 1024


def _open_binary(path: PathLike) -> IO[bytes]:
    """Open a (possibly gzipped) file as a raw byte stream.

    Line iteration over the result splits on ``\\n`` only, matching
    text mode with newline translation disabled; byte offsets are then
    plain sums of line lengths.  The one line source of every reader.
    """
    path = FsPath(path)
    try:
        if path.suffix == ".gz":
            return gzip.open(path, "rb")
        return open(path, "rb", buffering=READ_BUFFER_BYTES)
    except OSError as exc:
        raise DatasetError(
            f"{path}: cannot read input: {exc.strerror or exc}"
        ) from exc


def _check_policy(on_bad_record: str) -> None:
    if on_bad_record not in INGEST_POLICIES:
        known = ", ".join(INGEST_POLICIES)
        raise DatasetError(
            f"unknown on_bad_record policy {on_bad_record!r}; known: {known}"
        )


def _check_ingest_mode(ingest: str) -> None:
    if ingest not in INGEST_MODES:
        known = ", ".join(INGEST_MODES)
        raise DatasetError(f"unknown ingest mode {ingest!r}; known: {known}")


def _seek_range_start(handle: IO[bytes], path: PathLike, start: int) -> None:
    """Position a byte stream at a shard range's first line.

    Ranged reads require random access to the *stored* bytes, so they
    are defined only for uncompressed files; a gzip member would have
    to be inflated from byte 0 anyway, which is why the sharding layer
    gives compressed inputs a single whole-file range instead.
    """
    if isinstance(handle, gzip.GzipFile):
        raise DatasetError(
            f"{path}: ranged reads require an uncompressed file"
        )
    handle.seek(start)


def read_jsonlines(
    path: PathLike,
    *,
    on_bad_record: str = "raise",
    report: Optional[IngestReport] = None,
    start: int = 0,
    end: Optional[int] = None,
) -> Iterator[JsonValue]:
    """Stream records from a ``.jsonl`` (optionally ``.gz``) file.

    ``on_bad_record`` selects the error-channel policy (see module
    docstring); pass an :class:`IngestReport` as ``report`` to observe
    per-line accounting.  The report is filled incrementally as the
    stream is consumed.

    ``start``/``end`` bound the read to a newline-aligned byte range
    (uncompressed files only; see
    :func:`repro.io.fastpath.split_byte_ranges`).  Within a range,
    line numbers are **range-relative** (the first line is 1) while
    byte offsets stay absolute; :func:`merge_ingest_reports` rebuilds
    whole-file line numbers from per-range reports.
    """
    _check_policy(on_bad_record)
    if report is None:
        report = IngestReport(path=str(path), policy=on_bad_record)
    else:
        report.policy = on_bad_record
    byte_offset = start
    # Raw bytes in, one decode per line: offsets are sums of raw line
    # lengths (exact for multi-byte UTF-8 with no re-encoding), and a
    # line that is not valid UTF-8 is a policy-governed bad record
    # (UnicodeDecodeError is a ValueError) instead of a stream killer.
    with _open_binary(path) as handle:
        if start:
            _seek_range_start(handle, path, start)
        for line_number, line in enumerate(handle, start=1):
            line_offset = byte_offset
            if end is not None and line_offset >= end:
                break
            byte_offset += len(line)
            report.total_lines = line_number
            if line_number == 1 and start == 0 and line.startswith(_BOM_BYTES):
                line = line[len(_BOM_BYTES):]
            stripped = line.strip()
            if not stripped:
                continue
            try:
                value = json.loads(stripped.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                _bad_line(
                    report, path, line_number, line_offset, stripped, exc
                )
                continue
            report.record_count += 1
            yield value


def _bad_line(
    report: IngestReport,
    path: PathLike,
    line_number: int,
    byte_offset: int,
    stripped: bytes,
    exc: Exception,
) -> None:
    """Apply ``report.policy`` to a line that failed to parse: raise a
    :class:`DatasetError` under ``raise``, else record the line (with
    its payload under ``collect``).  Every reader shares this, so their
    error text and reports agree."""
    if report.policy == "raise":
        raise DatasetError(
            f"{path}:{line_number}: invalid JSON: {exc}"
        ) from exc
    report.bad_records.append(
        BadRecord(
            line_number=line_number,
            byte_offset=byte_offset,
            error=f"{type(exc).__name__}: {exc}",
            payload=(
                stripped.decode("utf-8", "replace")[:BAD_PAYLOAD_LIMIT]
                if report.policy == "collect"
                else ""
            ),
        )
    )
    # Lazy import: io must stay importable without the engine layer.
    from repro.engine.instrument import counters

    counters.add("ingest.bad_records")


def ingest_jsonlines(
    path: PathLike, *, on_bad_record: str = "skip"
) -> Tuple[List[JsonValue], IngestReport]:
    """Read a whole file under an error-channel policy.

    Returns ``(records, report)``; with the default ``skip`` policy the
    records are every well-formed line and the report pins down the
    rest.
    """
    report = IngestReport(path=str(path), policy=on_bad_record)
    records = list(
        read_jsonlines(path, on_bad_record=on_bad_record, report=report)
    )
    return records, report


def write_jsonlines(path: PathLike, records: Iterable[JsonValue]) -> int:
    """Write records as newline-delimited JSON; returns the count."""
    count = 0
    with _open_text(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def load_jsonlines(
    path: PathLike,
    *,
    on_bad_record: str = "raise",
    ingest: str = "classic",
) -> list:
    """Read a whole ``.jsonl`` file into a list.

    ``ingest="classic"`` returns parsed values; ``ingest="fused"``
    returns the records' interned *types* (see
    :mod:`repro.io.fastpath`) — the right input for anything that is a
    function of types only, at a fraction of the parse cost.
    """
    _check_ingest_mode(ingest)
    if ingest == "fused":
        from repro.io.fastpath import read_jsonlines_fused

        return list(read_jsonlines_fused(path, on_bad_record=on_bad_record))
    return list(read_jsonlines(path, on_bad_record=on_bad_record))
