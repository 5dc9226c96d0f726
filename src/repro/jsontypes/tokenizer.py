"""Bytes-to-type scanning: build interned :class:`JsonType`\\ s from
raw JSON-lines bytes without materializing the value tree.

Classic ingestion runs every line through ``json.loads`` (building a
Python dict/list tree) and then :func:`~repro.jsontypes.types.type_of`
(walking that tree to build the type, then discarding the tree).  For
schema discovery the tree is pure waste — only the type survives.
This module removes it in two layers:

**The type scanner** (:func:`scan_type`) parses a line with a
``json.JSONDecoder`` whose hooks construct interned types *during*
parsing: every object literal becomes an interned
:class:`~repro.jsontypes.types.ObjectType` the moment its closing
brace is consumed, every number collapses to the ``NUMBER`` singleton
without ever becoming a float.  The C scanner still does the
tokenizing, so error positions and messages are byte-for-byte those of
``json.loads`` — which is what keeps the fused reader's error channel
identical to the classic one.

**The structural skeleton** (:func:`structural_skeleton`, the
reference; :meth:`ShapeCache.skeleton`, what the readers call) is the
fast path over the scanner: a cheap, collision-safe summary of a line's
*key shape* computed with a handful of C-level operations (one
``translate`` guard, one ``split`` on quotes, one number-normalizing
regex, one ``replace`` that spells ``false`` as ``true``, and a key
pick by one memoized ``itemgetter``).  Its contract is::

    skeleton(a) == skeleton(b)  and  both not None
        implies  scan_type(a) is scan_type(b)   (valid lines)
        and      a malformed iff b malformed    (invalid lines)

so a bounded :class:`ShapeCache` keyed on skeletons can serve repeated
record shapes without re-parsing, and a malformed line can never hit a
cache entry left by a valid one.  The contract is *conservative*:
lines containing escapes, control bytes, or non-ASCII bytes get no
skeleton (``None``) and simply take the scanner path — a hit-rate
loss, never a correctness loss.

Why the skeleton is collision-safe (each rule maps to a guard below):

* Quotes, backslashes, and control bytes never occur inside UTF-8
  multi-byte sequences, and the guard rejects any line containing a
  backslash, a control byte, or a non-ASCII byte — so splitting the
  raw bytes on ``"`` exactly alternates outside-string and
  inside-string spans, and byte equality coincides with text equality.
* An even split count means an unterminated string: no skeleton.
* Outside-string spans are kept verbatim (punctuation, ``true`` /
  ``false`` / ``null``, *and any garbage*), except that number
  literals are normalized to ``0`` by a regex that matches exactly the
  JSON number grammar — so two lines share a skeleton only if they
  agree on everything outside strings up to valid-number spelling
  (and, by the next rule, boolean spelling).  Invalid almost-numbers
  (``00``, ``1.``, ``+5``) are *not* fully absorbed by the regex and
  stay distinct from every valid spelling.
  The regex starts with the class ``[-0-9]`` and picks its branch by
  lookbehind, a spelling whose start-position scan is one C loop.
* After number normalization every ``false`` is spelled ``true``.  Both
  keywords are ``BOOLEAN`` and fill the same grammatical slot, and no
  number literal holds an ``f``, so in a valid line each ``false``
  outside strings is the keyword: the replacement keeps a valid line
  valid with the same type, and an invalid line invalid (``fals``,
  ``falsee``, ``truefalse`` and ``-false`` stay as malformed as
  ``fals``, ``truee``, ``truetrue`` and ``-true``).  It never crosses a
  ``\x01`` separator (neither word holds one), and it never changes a
  leading space or colon, so the key rule below still reads the
  structure alone.
* An int literal longer than Python's int-parse limit
  (``sys.get_int_max_str_digits()``) is malformed to ``json.loads``
  but normalizes to ``0`` like any other, so a line holding a run of
  more digits than the limit gets no skeleton.  Only a line longer
  than the limit can hold one, so shorter lines skip the search.
* Inside-string spans that are object keys (the following outside
  span starts with ``:`` after optional spaces) are kept verbatim;
  value-string contents are dropped.  Which positions are keys is
  itself a function of the outside spans, which the skeleton already
  pins.
* Which positions are keys is even a function of the *structure*, the
  normalized outside text alone: no number literal or keyword begins
  with ``:``, normalization only rewrites number literals and
  ``false`` (never a leading space or a colon), and the guard admits
  no whitespace but the space character, so "``:`` after optional
  spaces" reads the same before and after normalization.
  :meth:`ShapeCache.skeleton` therefore finds the key positions once
  per structure, keeps them as one ``itemgetter``, and reuses it for
  every later line with that structure.
"""

from __future__ import annotations

import json
import re
import sys
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple, Union

from repro.jsontypes import types as _types
from repro.jsontypes.types import (
    ArrayType,
    BOOLEAN,
    JsonType,
    MAX_DEPTH,
    NULL,
    NUMBER,
    ObjectType,
    STRING,
    _intern,
)

#: Bytes whose presence disqualifies a line from skeletonization:
#: control bytes (string escapes / malformed strings / exotic
#: whitespace), the backslash (escape sequences break quote
#: alternation), and everything non-ASCII (multi-byte text and invalid
#: UTF-8 must reach the real decoder).  Deleting these via
#: ``bytes.translate`` and comparing lengths is a single C scan.
UNSAFE_BYTES = bytes(range(0x20)) + b"\\" + bytes(range(0x80, 0x100))

#: Exactly the JSON number grammar (RFC 8259 §6), over bytes, spelled
#: so that it starts with a character class: every match starts at
#: ``-`` or a digit, and a leading class lets the regex engine skip
#: every other start position in one C-level charset scan (a leading
#: lookahead or an optional ``-?`` does not).  A lookbehind then picks
#: the branch the first byte opened: after ``-`` the int part
#: ``0|[1-9][0-9]*``, after ``0`` nothing, after ``1``-``9`` more
#: digits.  The spans matched are those of
#: ``-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?``.
NUMBER_RE = re.compile(
    rb"[-0-9](?:(?<=-)(?:0|[1-9][0-9]*)|(?<=0)|(?<=[1-9])[0-9]*)"
    rb"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
)

#: Joins outside-string spans in skeletons; cannot occur in a
#: skeletonizable line (it is a control byte).
_SPAN_SEP = b"\x01"

#: A skeleton: (normalized outside-string text, object-key tuple).
Skeleton = Tuple[bytes, Tuple[bytes, ...]]


def int_digit_limit() -> int:
    """The most digits an int literal may have for ``json.loads`` to
    accept it (``sys.get_int_max_str_digits()``), or ``sys.maxsize``
    where there is no limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return (get_limit() if get_limit is not None else 0) or sys.maxsize


def exceeds_int_digits(line: bytes, limit: int) -> bool:
    """Whether ``line`` holds a run of more than ``limit`` digits, as
    an int literal ``json.loads`` refuses does.  Callers skip the call
    for lines no longer than ``limit``, which cannot hold one."""
    return re.search(rb"\d{%d}" % (limit + 1), line) is not None


def structural_skeleton(line: bytes) -> Optional[Skeleton]:
    """The key-shape skeleton of one stripped JSON-lines line.

    Returns ``None`` when the line is not eligible (escapes, control
    bytes, non-ASCII, unterminated string, a digit run past the
    int-parse limit) — callers treat that as a cache miss.  See the
    module docstring for the safety argument.
    """
    if len(line.translate(None, UNSAFE_BYTES)) != len(line):
        return None
    limit = int_digit_limit()
    if len(line) > limit and exceeds_int_digits(line, limit):
        return None
    parts = line.split(b'"')
    if len(parts) % 2 == 0:
        return None
    keys = tuple(map(parts.__getitem__, _key_positions(parts)))
    structure = NUMBER_RE.sub(b"0", _SPAN_SEP.join(parts[0::2]))
    return structure.replace(b"false", b"true"), keys


def _key_positions(parts) -> Tuple[int, ...]:
    """The indices in ``line.split(b'"')`` of the spans that are object
    keys: inside-string spans (odd indices) whose following outside
    span starts with ``:`` after optional spaces."""
    return tuple(
        index - 1
        for index in range(2, len(parts), 2)
        if parts[index][:1] == b":"
        or (parts[index][:1] == b" " and parts[index].lstrip()[:1] == b":")
    )


def _key_picker(positions: Tuple[int, ...]):
    """What :meth:`ShapeCache.skeleton` memoizes per structure: an
    ``itemgetter`` that picks the keys out of a line's quote split in
    one C-level call, or, for zero or one key, the positions themselves
    (an ``itemgetter`` of one position returns a bare item, not a
    tuple)."""
    return itemgetter(*positions) if len(positions) > 1 else positions


def line_token_count(line: bytes) -> int:
    """String + number token count of a line (throughput metric).

    Counts quote-delimited strings and valid number literals outside
    strings; punctuation and keyword literals are not counted.  For
    escape-bearing or non-ASCII lines this is approximate (escaped
    quotes split strings), which is fine for a rate denominator.
    """
    parts = line.split(b'"')
    outside = _SPAN_SEP.join(parts[0::2])
    return len(parts) // 2 + len(NUMBER_RE.findall(outside))


# ---------------------------------------------------------------------------
# The hooked decoder: parse straight into interned types.
# ---------------------------------------------------------------------------


def _as_type(value) -> JsonType:
    # Hook outputs arrive here either as already-built JsonTypes
    # (nested objects), raw lists (arrays — json has no array hook),
    # or raw primitives the parse hooks could not intercept.
    if type(value) is list:
        return _list_type(value)
    if isinstance(value, JsonType):
        return value
    if value is None:
        return NULL
    if value is True or value is False:
        return BOOLEAN
    # Strings are the only other value the hooks let through.
    return STRING


def _list_type(root: list) -> JsonType:
    # Post-order over an explicit stack: the C scanner parses arrays
    # nested as deep as its own recursion allows (matching the classic
    # reader), and converting them must not re-impose a smaller Python
    # recursion bound.  Frame: [source list, next index, built types].
    frames = [[root, 0, []]]
    while True:
        frame = frames[-1]
        source, index, converted = frame
        if index < len(source):
            frame[1] = index + 1
            item = source[index]
            if type(item) is list:
                frames.append([item, 0, []])
            else:
                converted.append(_as_type(item))
        else:
            frames.pop()
            built = ArrayType(tuple(converted))
            tau = _intern(built) if _types._INTERN_ENABLED else built
            if not frames:
                return tau
            frames[-1][2].append(tau)


def _pairs_hook(pairs) -> JsonType:
    built = ObjectType({key: _as_type(value) for key, value in pairs})
    return _intern(built) if _types._INTERN_ENABLED else built


def _number_hook(_literal: str) -> JsonType:
    return NUMBER


#: No int-parse limit can be set below this many digits, so shorter int
#: literals never need ``int`` to check them.
_INT_CHECK_THRESHOLD = getattr(
    sys.int_info, "str_digits_check_threshold", sys.maxsize
)


def _int_hook(literal: str) -> JsonType:
    if len(literal) > _INT_CHECK_THRESHOLD:
        # Raises json.loads' own ValueError past the int-parse limit.
        int(literal)
    return NUMBER


_DECODER = json.JSONDecoder(
    object_pairs_hook=_pairs_hook,
    parse_float=_number_hook,
    parse_int=_int_hook,
    parse_constant=_number_hook,
)


def scan_type(text: str) -> JsonType:
    """Parse one JSON document into its (interned) :class:`JsonType`.

    Equivalent to ``type_of(json.loads(text))`` — same result object
    under interning, same ``ValueError`` / ``RecursionError`` with the
    same message on malformed input — but never builds the value tree.
    The ``type_of`` depth bound is *not* applied here; callers that
    need it use :func:`depth_exceeds` after a successful scan.
    """
    return _as_type(_DECODER.decode(text))


# ---------------------------------------------------------------------------
# The typed scanner: one parse producing the value AND its type.
# ---------------------------------------------------------------------------
#
# Enriched discovery needs the values structural discovery discards,
# so this second hooked decoder builds both trees in a single C-scanner
# pass.  Hooks pass ``(value, type)`` tuples upward — unambiguous,
# since the stock decoder never produces a tuple itself.


def _as_typed(item) -> tuple:
    if type(item) is tuple:
        return item
    if type(item) is list:
        return _list_typed(item)
    if item is None:
        return (None, NULL)
    if item is True or item is False:
        return (item, BOOLEAN)
    return (item, STRING)


def _list_typed(root: list) -> tuple:
    # Same explicit-stack post-order as _list_type, carrying the value
    # list alongside the type tuple.  Frame: [source, next index,
    # built values, built types].
    frames = [[root, 0, [], []]]
    while True:
        frame = frames[-1]
        source, index, values, element_types = frame
        if index < len(source):
            frame[1] = index + 1
            item = source[index]
            if type(item) is list:
                frames.append([item, 0, [], []])
            else:
                value, tau = _as_typed(item)
                values.append(value)
                element_types.append(tau)
        else:
            frames.pop()
            built = ArrayType(tuple(element_types))
            tau = _intern(built) if _types._INTERN_ENABLED else built
            if not frames:
                return (values, tau)
            frames[-1][2].append(values)
            frames[-1][3].append(tau)


def _typed_pairs_hook(pairs) -> tuple:
    values = {}
    fields = {}
    for key, item in pairs:
        value, tau = _as_typed(item)
        values[key] = value
        fields[key] = tau
    built = ObjectType(fields)
    return (values, _intern(built) if _types._INTERN_ENABLED else built)


def _typed_int_hook(literal: str) -> tuple:
    return (int(literal), NUMBER)


def _typed_float_hook(literal: str) -> tuple:
    return (float(literal), NUMBER)


_TYPED_CONSTANTS = {
    "NaN": float("nan"),
    "Infinity": float("inf"),
    "-Infinity": float("-inf"),
}


def _typed_constant_hook(literal: str) -> tuple:
    return (_TYPED_CONSTANTS[literal], NUMBER)


_TYPED_DECODER = json.JSONDecoder(
    object_pairs_hook=_typed_pairs_hook,
    parse_float=_typed_float_hook,
    parse_int=_typed_int_hook,
    parse_constant=_typed_constant_hook,
)


def scan_typed(text: str):
    """Parse one JSON document into ``(type, value)`` in one pass.

    The type is exactly ``scan_type(text)`` (same interned object);
    the value is exactly ``json.loads(text)``; errors match both.
    This is the typed reader's miss path; a shape-cache hit takes the
    cached type and decodes the value with ``json.loads``.
    """
    value, tau = _as_typed(_TYPED_DECODER.decode(text))
    return tau, value


def depth_exceeds(tau: JsonType, max_depth: int = MAX_DEPTH) -> bool:
    """Whether a type nests deeper than ``max_depth``.

    Mirrors the bound ``type_of`` enforces during extraction.  O(1):
    types carry their depth from construction, so the fused readers'
    per-miss check costs nothing proportional to the record.
    """
    return tau.depth() > max_depth


# ---------------------------------------------------------------------------
# The bounded shape cache.
# ---------------------------------------------------------------------------

#: Default bound on distinct shapes retained by a :class:`ShapeCache`.
DEFAULT_SHAPE_CACHE_SIZE = 65536


class ShapeCache:
    """A bounded skeleton → interned-type map with eviction stats, and
    the skeleton function its readers probe it with.

    Eviction is deterministic insertion-order FIFO: when the bound is
    hit, the oldest-inserted shape is dropped.  Hits do not refresh
    recency — a hit needs no bookkeeping at all, which keeps the fast
    path at two dict lookups (key positions, then the shape) — so the
    policy is a pure function of the miss sequence.  Evicting is always
    safe: a dropped shape's next occurrence re-parses and re-interns to
    the same type object.
    """

    __slots__ = (
        "max_size", "hits", "misses", "evictions", "digit_limit",
        "_table", "_key_positions",
    )

    def __init__(self, max_size: int = DEFAULT_SHAPE_CACHE_SIZE):
        if max_size <= 0:
            raise ValueError("ShapeCache max_size must be positive")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: The int-parse limit :meth:`skeleton` guards against; a reader
        #: re-reads it (:func:`int_digit_limit`) when it starts.
        self.digit_limit = int_digit_limit()
        self._table: Dict[Skeleton, JsonType] = {}
        # Structure → key picker (:func:`_key_picker`) over the line's
        # quote split, bounded and evicted like the table.
        self._key_positions: Dict[
            bytes, Union[Callable, Tuple[int, ...]]
        ] = {}

    def skeleton(self, line: bytes) -> Optional[Skeleton]:
        """:func:`structural_skeleton` of ``line``, under
        :attr:`digit_limit`.

        Which quoted spans are keys is a function of the structure (see
        the module docstring), so the positions are found once per
        structure, kept as one ``itemgetter``, and each later line
        picks its keys out of its split in one C-level call.
        """
        size = len(line)
        if len(line.translate(None, UNSAFE_BYTES)) != size:
            return None
        limit = self.digit_limit
        if size > limit and exceeds_int_digits(line, limit):
            return None
        parts = line.split(b'"')
        if not len(parts) & 1:
            return None
        structure = NUMBER_RE.sub(
            b"0", _SPAN_SEP.join(parts[0::2])
        ).replace(b"false", b"true")
        memo = self._key_positions
        pick = memo.get(structure)
        if pick is None:
            pick = _key_picker(_key_positions(parts))
            if len(memo) >= self.max_size:
                del memo[next(iter(memo))]
            memo[structure] = pick
        if type(pick) is tuple:
            return structure, tuple(map(parts.__getitem__, pick))
        return structure, pick(parts)

    def get(self, skeleton: Skeleton) -> Optional[JsonType]:
        return self._table.get(skeleton)

    def put(self, skeleton: Skeleton, tau: JsonType) -> None:
        table = self._table
        if skeleton not in table and len(table) >= self.max_size:
            del table[next(iter(table))]
            self.evictions += 1
        table[skeleton] = tau

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, skeleton: Skeleton) -> bool:
        return skeleton in self._table

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._table),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShapeCache size={len(self._table)}/{self.max_size}"
            f" hits={self.hits} misses={self.misses}>"
        )
