"""Per-path value-domain enrichment monoids (JSONoid-style sketches).

Structural discovery deliberately forgets values: the fused tokenizer
collapses every record to an interned :class:`JsonType`.  This module
adds the orthogonal *value domain* layer — per-path sketches in the
style of JSONoid that satisfy the same commutative-monoid contract as
:class:`~repro.discovery.state.DiscoveryState` itself
(``empty``/``absorb``/``merge``/``to_bytes``/``from_bytes``), so they
ride through counted-bag absorption, sharded tree-merge, and
checkpoint/resume without any new distribution machinery:

* :class:`MinMaxSketch` — exact order statistics of the numbers at a
  path (``minimum``/``maximum`` annotations).
* :class:`BloomMembershipSketch` — fixed-width Bloom filter over the
  scalar values at a path (``x-repro-bloom``).
* :class:`HLLCardinalitySketch` — HyperLogLog distinct-count estimate
  (``x-repro-cardinality``).
* :class:`StringFormatSketch` — counters for RFC-ish string formats
  (``format: date-time`` etc.; a format is reported only when *every*
  string at the path matched it).

:class:`EnrichmentState` aggregates one :class:`PathSketches` bundle
per path plus, when tagged-union extraction is enabled, a
:class:`DiscriminantAccumulator` collecting root-level key →
scalar-value → record-shape evidence for
:mod:`repro.discovery.tagged_unions`.

Design invariants (the law suite in
``tests/discovery/test_sketch_laws.py`` pins all of them):

* Every ``merge`` is associative and commutative with ``empty`` as the
  identity, and equal states encode to equal bytes — equality *is*
  byte equality, exactly as for ``DiscoveryState``.
* All accumulators are order-canonical: min/max break ``1 == 1.0``
  ties toward the int, NaN is skipped (it has no order), and ints
  outside the codec's svarint range collapse to float at absorb time.
* Bounded accumulators saturate to an absorbing element (the
  discriminant value table past ``union_value_cap``), which keeps the
  merge a monoid: saturation of any part forces saturation of the
  whole, regardless of grouping.

Wire formats live in :mod:`repro.discovery.codec` (this module must
stay importable without it — codec imports us for the class
definitions); the module-level ``dumps_*``/``loads_*`` pairs below are
lazy delegates so callers get the public API here.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

# ``hashlib.blake2b`` is this class; importing it through ``hashlib``
# would also load OpenSSL (``_hashlib``), which nothing here uses.
from _blake2 import blake2b

from repro.jsontypes.paths import Path, ROOT, STAR
from repro.records import FrozenRecord

__all__ = [
    "BloomMembershipSketch",
    "DEFAULT_BLOOM_BITS",
    "DEFAULT_BLOOM_HASHES",
    "DEFAULT_HLL_PRECISION",
    "DiscriminantAccumulator",
    "ENRICH_FEATURES",
    "EnrichmentOptions",
    "EnrichmentState",
    "HLLCardinalitySketch",
    "KeyEvidence",
    "MinMaxSketch",
    "PathSketches",
    "SKETCH_CLASSES",
    "StringFormatSketch",
    "dumps_enrichment",
    "dumps_sketch",
    "loads_enrichment",
    "loads_sketch",
    "parse_enrich_spec",
    "record_shape",
    "scalar_fingerprint",
    "scalar_from_key",
    "scalar_key",
]

#: Default Bloom filter width in bits (128 bytes on the wire).
DEFAULT_BLOOM_BITS = 1024

#: Default number of Bloom hash functions.
DEFAULT_BLOOM_HASHES = 4

#: Default HyperLogLog precision (2**8 = 256 one-byte registers).
DEFAULT_HLL_PRECISION = 8

#: Largest Bloom geometry accepted: bits (128 KiB) and probes per
#: value.  Geometry also arrives from checkpoint bytes.
MAX_BLOOM_BITS = 1 << 20
MAX_BLOOM_HASHES = 64

#: Largest |int| the codec's svarint can carry; bigger ints collapse
#: to float at absorb time so the sketch always round-trips.
_SVARINT_MAX = 2**62 - 1

#: Root-level ints with |v| above this are not discriminant
#: candidates (they are ids, not tags).
MAX_DISCRIMINANT_INT = 2**31

Scalar = Union[None, bool, int, float, str]


def scalar_fingerprint(value: Scalar) -> bytes:
    """Canonical bytes of a JSON scalar for Bloom/HLL hashing.

    Booleans are tagged apart from numbers, but ``1`` and ``1.0``
    fingerprint identically (int-valued floats collapse to the int
    form) so membership matches Python/JSON equality.  Strings encode
    with ``surrogatepass``, so a lone escaped surrogate (``"\\ud800"``,
    which ``json.loads`` admits) hashes instead of raising; every
    valid string keeps its UTF-8 bytes.
    """
    if value is None:
        return b"z"
    if value is True:
        return b"t"
    if value is False:
        return b"f"
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, float):
        if value != value:
            return b"n:nan"
        if value in (math.inf, -math.inf):
            return b"n:" + repr(value).encode("ascii")
        if value.is_integer():
            return b"n:" + repr(int(value)).encode("ascii")
        return b"n:" + repr(value).encode("ascii")
    return b"n:" + repr(int(value)).encode("ascii")


def _collapse_int(value: int) -> Union[int, float]:
    """An int as :class:`MinMaxSketch` stores it: itself inside the
    svarint range, else the nearest float — past the float range, the
    signed infinity that ``1e400`` already parses to."""
    if -_SVARINT_MAX <= value <= _SVARINT_MAX:
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _split_kinds(values) -> Dict[type, list]:
    """A column's values grouped by exact type, in column order.  A
    homogeneous column (the usual case) is its own single group."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return {kinds.pop(): values}
    return {
        kind: [value for value in values if type(value) is kind]
        for kind in kinds
    }


#: Unkeyed blake2b hashers that :func:`_digests` copies: a copy is
#: cheaper than a constructor call with ``digest_size``, and gives the
#: same digest.
_BLAKE2B_16 = blake2b(digest_size=16)
_BLAKE2B_8 = blake2b(digest_size=8)


def _digests(empty, fingerprints) -> bytes:
    """The concatenated digests of ``fingerprints``, each hashed by a
    copy of the ``empty`` hasher."""
    copy = empty.copy
    digests = []
    append = digests.append
    for fingerprint in fingerprints:
        hasher = copy()
        hasher.update(fingerprint)
        append(hasher.digest())
    return b"".join(digests)


def _min_key(value):
    # Ties between an int and an equal float resolve to the int.
    return (value, 1 if isinstance(value, float) else 0)


def _max_key(value):
    return (value, 0 if isinstance(value, float) else 1)


class Sketch:
    """Base class: the monoid + codec contract shared by all sketches.

    Subclasses set :attr:`name` (the registry key used by the codec's
    tag table) and implement ``absorb``/``merge``/``_state_key``.
    """

    __slots__ = ()

    #: Registry name; also the codec tag-table key.
    name = ""

    @classmethod
    def empty(cls) -> "Sketch":
        return cls()

    def absorb(self, value) -> None:
        raise NotImplementedError

    def merge(self, other: "Sketch") -> "Sketch":
        raise NotImplementedError

    def _state_key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._state_key() == other._state_key()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable accumulator

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._state_key()!r})"

    def to_bytes(self) -> bytes:
        from repro.discovery import codec

        return codec.dumps_sketch(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        from repro.discovery import codec

        sketch = codec.loads_sketch(data)
        if cls is not Sketch and type(sketch) is not cls:
            raise TypeError(
                f"expected a {cls.__name__}, decoded "
                f"{type(sketch).__name__}"
            )
        return sketch


class MinMaxSketch(Sketch):
    """Exact count/min/max of the numbers observed at a path.

    NaN is skipped (it has no order); ints beyond the svarint range
    collapse to float (or to a signed infinity); ``1 == 1.0`` ties
    canonically prefer the int so absorb order never changes the stored
    object.
    """

    __slots__ = ("count", "minimum", "maximum")

    name = "minmax"

    def __init__(self) -> None:
        self.count = 0
        self.minimum: Optional[Union[int, float]] = None
        self.maximum: Optional[Union[int, float]] = None

    def absorb(self, value) -> None:
        self.absorb_many((value,))

    def absorb_many(self, values) -> None:
        """Absorb the numbers among ``values``; other scalars are skipped.

        Each type's group contributes its own min and max; equal values
        of one type encode alike, so only the int/float tie-break needs
        the sort keys.
        """
        count = 0
        ends = []
        for kind, group in _split_kinds(values).items():
            if issubclass(kind, float):
                # -0.0 == 0.0 but encodes with its sign bit; without a
                # canonical zero, min()/max() ties keep whichever sign
                # arrived first and merge stops being byte-commutative.
                group = [
                    0.0 if value == 0.0 else value
                    for value in group
                    if value == value
                ]
                if not group:
                    continue
                ends += (min(group), max(group))
            elif issubclass(kind, int) and kind is not bool:
                ends += (_collapse_int(min(group)), _collapse_int(max(group)))
            else:
                continue
            count += len(group)
        if not count:
            return
        low = min(ends, key=_min_key)
        high = max(ends, key=_max_key)
        if self.count == 0 or _min_key(low) < _min_key(self.minimum):
            self.minimum = low
        if self.count == 0 or _max_key(high) > _max_key(self.maximum):
            self.maximum = high
        self.count += count

    def merge(self, other: "MinMaxSketch") -> "MinMaxSketch":
        merged = MinMaxSketch()
        merged.count = self.count + other.count
        if self.count == 0:
            merged.minimum = other.minimum
            merged.maximum = other.maximum
        elif other.count == 0:
            merged.minimum = self.minimum
            merged.maximum = self.maximum
        else:
            merged.minimum = min(
                self.minimum, other.minimum, key=_min_key
            )
            merged.maximum = max(
                self.maximum, other.maximum, key=_max_key
            )
        return merged

    def _state_key(self):
        return (
            self.count,
            self.minimum,
            isinstance(self.minimum, float),
            self.maximum,
            isinstance(self.maximum, float),
        )


class BloomMembershipSketch(Sketch):
    """Fixed-width Bloom filter over scalar fingerprints at a path.

    ``bits`` is a Python int used as a bitset; merge is bitwise OR
    (idempotent, so the filter is a join-semilattice and trivially a
    commutative monoid).  ``count`` tracks absorbed values — an upper
    bound on distinct insertions, used for the false-positive estimate.
    """

    __slots__ = ("size", "hashes", "bits", "count")

    name = "bloom"

    def __init__(
        self,
        size: int = DEFAULT_BLOOM_BITS,
        hashes: int = DEFAULT_BLOOM_HASHES,
    ) -> None:
        if not 8 <= size <= MAX_BLOOM_BITS or size % 8:
            raise ValueError(
                "bloom size must be a positive multiple of 8 up to "
                f"{MAX_BLOOM_BITS}, got {size}"
            )
        if not 1 <= hashes <= MAX_BLOOM_HASHES:
            raise ValueError(
                f"bloom hashes must be in [1, {MAX_BLOOM_HASHES}], "
                f"got {hashes}"
            )
        self.size = size
        self.hashes = hashes
        self.bits = 0
        self.count = 0

    def _indexes(self, fingerprint: bytes) -> List[int]:
        digest = blake2b(fingerprint, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        # Forcing h2 odd keeps the double-hash probe sequence full
        # when ``size`` is a power of two.
        h2 = int.from_bytes(digest[8:], "little") | 1
        return [(h1 + i * h2) % self.size for i in range(self.hashes)]

    def add_fingerprint(self, fingerprint: bytes) -> None:
        self.add_fingerprints((fingerprint,))

    def add_fingerprints(self, fingerprints, count=None) -> None:
        """Set the bits of every fingerprint, and add ``count`` (by
        default, how many fingerprints were passed) to :attr:`count`.

        Bits are idempotent, so each distinct fingerprint is hashed
        once.  The probes are :meth:`_indexes` reduced mod ``size``
        step by step, which keeps the arithmetic on small ints; all
        probes of the call form one set, OR-ed in as one int.
        """
        distinct = set(fingerprints)
        if distinct:
            size = self.size
            words = struct.unpack(
                f"<{2 * len(distinct)}Q", _digests(_BLAKE2B_16, distinct)
            )
            probes = [h1 % size for h1 in words[::2]]
            # Odd mod a multiple of 8 is odd, so the step is >= 1.
            steps = [(h2 | 1) % size for h2 in words[1::2]]
            indexes = set(probes)
            for _ in range(self.hashes - 1):
                probes = [
                    (probe + step) % size
                    for probe, step in zip(probes, steps)
                ]
                indexes.update(probes)
            # Binary digits, least significant first: digit i is bit i.
            digits = bytearray(b"0") * size
            for index in indexes:
                digits[index] = 0x31
            self.bits |= int(digits[::-1], 2)
        self.count += len(fingerprints) if count is None else count

    def absorb(self, value) -> None:
        self.add_fingerprint(scalar_fingerprint(value))

    def might_contain(self, value) -> bool:
        fingerprint = scalar_fingerprint(value)
        return all(
            self.bits >> index & 1 for index in self._indexes(fingerprint)
        )

    def false_positive_rate(self) -> float:
        """Standard ``(1 - e^{-kn/m})^k`` bound with n = ``count``.

        ``count`` counts absorptions, not distinct values, so this is
        an upper bound on the true rate.
        """
        if self.count == 0:
            return 0.0
        return (
            1.0 - math.exp(-self.hashes * self.count / self.size)
        ) ** self.hashes

    def merge(self, other: "BloomMembershipSketch") -> "BloomMembershipSketch":
        if (self.size, self.hashes) != (other.size, other.hashes):
            raise ValueError(
                "cannot merge bloom sketches with different geometry: "
                f"({self.size}, {self.hashes}) vs "
                f"({other.size}, {other.hashes})"
            )
        merged = BloomMembershipSketch(self.size, self.hashes)
        merged.bits = self.bits | other.bits
        merged.count = self.count + other.count
        return merged

    def _state_key(self):
        return (self.size, self.hashes, self.bits, self.count)


#: ``2.0 ** -rank`` for every value a one-byte register can hold, so
#: an estimate sums table entries instead of computing 2**precision
#: powers.
_INV_POW2 = tuple(2.0 ** -rank for rank in range(256))


def _hll_alpha(registers: int) -> float:
    if registers == 16:
        return 0.673
    if registers == 32:
        return 0.697
    if registers == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / registers)


class HLLCardinalitySketch(Sketch):
    """HyperLogLog distinct-count estimator over scalar fingerprints.

    ``2**precision`` one-byte registers; merge takes the pointwise
    register maximum (a join-semilattice, hence order-free), and the
    estimate applies the standard small-range linear-counting
    correction.
    """

    __slots__ = ("precision", "registers", "count")

    name = "hll"

    def __init__(self, precision: int = DEFAULT_HLL_PRECISION) -> None:
        if not 4 <= precision <= 16:
            raise ValueError(
                f"hll precision must be in [4, 16], got {precision}"
            )
        self.precision = precision
        self.registers = bytearray(1 << precision)
        self.count = 0

    def add_fingerprint(self, fingerprint: bytes) -> None:
        self.add_fingerprints((fingerprint,))

    def add_fingerprints(self, fingerprints, count=None) -> None:
        """Raise the register of every fingerprint, and add ``count``
        (by default, how many fingerprints were passed) to
        :attr:`count`.  The register maximum is idempotent, so each
        distinct fingerprint is hashed once."""
        distinct = set(fingerprints)
        if distinct:
            width = 64 - self.precision
            low_bits = (1 << width) - 1
            registers = self.registers
            for value in struct.unpack(
                f">{len(distinct)}Q", _digests(_BLAKE2B_8, distinct)
            ):
                index = value >> width
                rank = width - (value & low_bits).bit_length() + 1
                if rank > registers[index]:
                    registers[index] = rank
        self.count += len(fingerprints) if count is None else count

    def absorb(self, value) -> None:
        self.add_fingerprint(scalar_fingerprint(value))

    def estimate(self) -> float:
        registers = self.registers
        m = len(registers)
        raw = (
            _hll_alpha(m)
            * m
            * m
            / sum(map(_INV_POW2.__getitem__, registers))
        )
        if raw <= 2.5 * m:
            zeros = registers.count(0)
            if zeros:
                return m * math.log(m / zeros)
        return raw

    def merge(self, other: "HLLCardinalitySketch") -> "HLLCardinalitySketch":
        if self.precision != other.precision:
            raise ValueError(
                "cannot merge hll sketches with different precision: "
                f"{self.precision} vs {other.precision}"
            )
        merged = HLLCardinalitySketch(self.precision)
        mine, theirs = self.registers, other.registers
        # The all-zero registers are the identity of the pointwise
        # maximum: merging with an empty side is a copy.
        if mine.count(0) == len(mine):
            merged.registers = bytearray(theirs)
        elif theirs.count(0) == len(theirs):
            merged.registers = bytearray(mine)
        else:
            merged.registers = bytearray(map(max, mine, theirs))
        merged.count = self.count + other.count
        return merged

    def _state_key(self):
        return (self.precision, bytes(self.registers), self.count)


#: Detected string formats, in fixed priority order (``dominant``
#: returns the first one that matched *every* string).  date-time must
#: precede date: every date-time prefix-matches the date pattern's
#: fullmatch cousin but not vice versa.  ``re.ASCII`` keeps ``\d`` to
#: ASCII digits, as RFC 3339 requires (``'٢٠٢٠-٠١-٠١'`` is no date).
FORMAT_PATTERNS: Tuple[Tuple[str, "re.Pattern"], ...] = (
    (
        "date-time",
        re.compile(
            r"\d{4}-\d{2}-\d{2}[Tt ]\d{2}:\d{2}:\d{2}"
            r"(?:\.\d+)?(?:[Zz]|[+-]\d{2}:\d{2})?\Z",
            re.ASCII,
        ),
    ),
    ("date", re.compile(r"\d{4}-\d{2}-\d{2}\Z", re.ASCII)),
    ("time", re.compile(r"\d{2}:\d{2}:\d{2}(?:\.\d+)?\Z", re.ASCII)),
    (
        "uuid",
        re.compile(
            r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-"
            r"[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\Z"
        ),
    ),
    ("email", re.compile(r"[^@\s]+@[^@\s]+\.[^@\s]+\Z")),
    ("uri", re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+\Z")),
)

#: The four digit-led formats as one match: no string matches two of
#: them (each is anchored at ``\Z`` with its separators at different
#: fixed positions), so the alternation's ``lastindex`` is the one
#: pattern that matched, in :data:`FORMAT_PATTERNS` order.
_DIGIT_LED_FORMAT = re.compile(
    "|".join(f"({pattern.pattern})" for _, pattern in FORMAT_PATTERNS[:4]),
    re.ASCII,
).match
_EMAIL, _URI = (pattern.match for _, pattern in FORMAT_PATTERNS[4:])


class StringFormatSketch(Sketch):
    """Per-format match counters for the strings observed at a path.

    Each format counts independently (a string can match several), so
    the merge is plain counter addition.  :meth:`dominant` reports the
    first format in :data:`FORMAT_PATTERNS` order that matched every
    observed string — the only situation where emitting ``format`` in
    the schema is sound.
    """

    __slots__ = ("total", "counts")

    name = "format"

    def __init__(self) -> None:
        self.total = 0
        self.counts: Dict[str, int] = {}

    def absorb(self, value) -> None:
        self.absorb_many((value,))

    def absorb_many(self, values) -> None:
        """Count the strings among ``values``; other scalars are skipped.

        ``values`` may instead be a mapping of distinct strings to
        their occurrences (a :class:`~collections.Counter`, as
        :meth:`PathSketches.absorb_column` passes it); each distinct
        string is then matched once.  The email and uri patterns run
        only on strings that contain ``@`` or ``://``, so the counts
        equal a match of every pattern against every string.
        """
        if not isinstance(values, dict):
            values = Counter(
                [value for value in values if isinstance(value, str)]
            )
        # Match counts in FORMAT_PATTERNS order.
        found = [0] * len(FORMAT_PATTERNS)
        for match in filter(None, map(_DIGIT_LED_FORMAT, values)):
            found[match.lastindex - 1] += values[match.string]
        for value, count in values.items():
            if "@" in value and _EMAIL(value):
                found[-2] += count
            if "://" in value and _URI(value):
                found[-1] += count
        self.total += sum(values.values())
        counts = self.counts
        for (format_name, _), count in zip(FORMAT_PATTERNS, found):
            if count:
                counts[format_name] = counts.get(format_name, 0) + count

    def dominant(self) -> Optional[str]:
        if self.total == 0:
            return None
        for format_name, _ in FORMAT_PATTERNS:
            if self.counts.get(format_name, 0) == self.total:
                return format_name
        return None

    def merge(self, other: "StringFormatSketch") -> "StringFormatSketch":
        merged = StringFormatSketch()
        merged.total = self.total + other.total
        for source in (self.counts, other.counts):
            for format_name, count in source.items():
                merged.counts[format_name] = (
                    merged.counts.get(format_name, 0) + count
                )
        return merged

    def _state_key(self):
        return (
            self.total,
            tuple(sorted(
                item for item in self.counts.items() if item[1]
            )),
        )


#: Registry: codec tag order is the index in this tuple.
SKETCH_CLASSES: Tuple[type, ...] = (
    MinMaxSketch,
    BloomMembershipSketch,
    HLLCardinalitySketch,
    StringFormatSketch,
)


#: Feature names accepted by ``--enrich``.
ENRICH_FEATURES = ("sketches", "unions")


class EnrichmentOptions(FrozenRecord):
    """What to collect and with which sketch geometry.

    Frozen and hashable so it travels inside pickled
    :class:`~repro.engine.sharding.ShardTask` objects and compares by
    value across checkpoint/resume.
    """

    __slots__ = (
        "sketches", "unions", "bloom_bits", "bloom_hashes", "hll_precision",
        "union_value_cap", "union_string_cap",
    )

    def __init__(
        self,
        sketches: bool = True,
        unions: bool = False,
        bloom_bits: int = DEFAULT_BLOOM_BITS,
        bloom_hashes: int = DEFAULT_BLOOM_HASHES,
        hll_precision: int = DEFAULT_HLL_PRECISION,
        #: Distinct values tracked per candidate discriminant key before
        #: its evidence saturates (saturation disqualifies the key).
        union_value_cap: int = 32,
        #: Longest string admissible as a discriminant value.
        union_string_cap: int = 64,
    ) -> None:
        self._init(
            sketches, unions, bloom_bits, bloom_hashes, hll_precision,
            union_value_cap, union_string_cap,
        )

    def validate(self) -> "EnrichmentOptions":
        if not (self.sketches or self.unions):
            raise ValueError(
                "enrichment must enable at least one of "
                f"{ENRICH_FEATURES}"
            )
        # The sketch constructors own the geometry bounds.
        BloomMembershipSketch(self.bloom_bits, self.bloom_hashes)
        HLLCardinalitySketch(self.hll_precision)
        if self.union_value_cap < 2:
            raise ValueError(
                f"union_value_cap must be >= 2, got {self.union_value_cap}"
            )
        if self.union_string_cap < 1:
            raise ValueError(
                f"union_string_cap must be >= 1, got "
                f"{self.union_string_cap}"
            )
        return self

    def spec(self) -> str:
        """Canonical ``--enrich`` spelling of the enabled features."""
        enabled = [
            name
            for name, on in (
                ("sketches", self.sketches),
                ("unions", self.unions),
            )
            if on
        ]
        return ",".join(enabled)


def parse_enrich_spec(
    spec: Union[None, str, EnrichmentOptions],
) -> Optional[EnrichmentOptions]:
    """Parse a ``--enrich`` spec like ``"sketches,unions"``.

    ``None`` means no enrichment; an :class:`EnrichmentOptions` passes
    through (validated).
    """
    if spec is None:
        return None
    if isinstance(spec, EnrichmentOptions):
        return spec.validate()
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ValueError(
            f"empty --enrich spec; expected features from {ENRICH_FEATURES}"
        )
    unknown = sorted(set(tokens) - set(ENRICH_FEATURES))
    if unknown:
        raise ValueError(
            f"unknown --enrich feature(s) {unknown}; "
            f"known: {ENRICH_FEATURES}"
        )
    return EnrichmentOptions(
        sketches="sketches" in tokens,
        unions="unions" in tokens,
    ).validate()


class PathSketches:
    """The four-sketch bundle accumulated for one path."""

    __slots__ = ("numbers", "strings", "members", "cardinality")

    def __init__(self, options: EnrichmentOptions) -> None:
        self.numbers = MinMaxSketch()
        self.strings = StringFormatSketch()
        self.members = BloomMembershipSketch(
            options.bloom_bits, options.bloom_hashes
        )
        self.cardinality = HLLCardinalitySketch(options.hll_precision)

    @classmethod
    def from_sketches(
        cls,
        numbers: MinMaxSketch,
        strings: StringFormatSketch,
        members: BloomMembershipSketch,
        cardinality: HLLCardinalitySketch,
    ) -> "PathSketches":
        bundle = cls.__new__(cls)
        bundle.numbers = numbers
        bundle.strings = strings
        bundle.members = members
        bundle.cardinality = cardinality
        return bundle

    def absorb(self, value: Scalar) -> None:
        self.absorb_column((value,))

    def absorb_column(self, values) -> None:
        """Absorb every scalar observed at this path, in one call per
        sketch.  Each sketch is a commutative monoid, so this is the
        same fold as absorbing the values one by one.

        The column is split by type once, and each distinct value is
        fingerprinted once (each distinct string format-matched once).
        """
        fingerprints = set()
        for kind, group in _split_kinds(values).items():
            if issubclass(kind, str):
                group = Counter(group)
                self.strings.absorb_many(group)
                fingerprints.update([
                    b"s" + value.encode("utf-8", "surrogatepass")
                    for value in group
                ])
                continue
            if kind is int:
                # scalar_fingerprint of an int, without the call.
                fingerprints.update(map(b"n:%d".__mod__, set(group)))
            else:
                fingerprints.update(map(scalar_fingerprint, set(group)))
            if kind is not bool and issubclass(kind, (int, float)):
                self.numbers.absorb_many(group)
        self.members.add_fingerprints(fingerprints, len(values))
        self.cardinality.add_fingerprints(fingerprints, len(values))

    def merge(self, other: "PathSketches") -> "PathSketches":
        return PathSketches.from_sketches(
            self.numbers.merge(other.numbers),
            self.strings.merge(other.strings),
            self.members.merge(other.members),
            self.cardinality.merge(other.cardinality),
        )

    def sketches(self) -> Tuple[Sketch, ...]:
        return (self.numbers, self.strings, self.members, self.cardinality)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathSketches):
            return NotImplemented
        return self.sketches() == other.sketches()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"PathSketches(numbers={self.numbers!r}, "
            f"strings={self.strings!r}, members={self.members!r}, "
            f"cardinality={self.cardinality!r})"
        )


#: Sort tag for scalar discriminant-value keys; the tuple itself is
#: the dict key (``True == 1`` would collide as plain dict keys).
def scalar_key(value: Scalar) -> Tuple[str, Union[bool, int, str]]:
    if value is None:
        return ("z", False)
    if value is True:
        return ("b", True)
    if value is False:
        return ("b", False)
    if isinstance(value, str):
        return ("s", value)
    return ("i", value)


def scalar_from_key(key: Tuple[str, Union[bool, int, str]]) -> Scalar:
    """Inverse of the tagged scalar key used in discriminant tables."""
    tag, payload = key
    if tag == "z":
        return None
    return payload


def record_shape(record: dict) -> Tuple[str, ...]:
    """Depth-2 key-path fingerprint of a record's shape.

    Each top-level key, plus ``key.child`` for dict-valued fields —
    deep enough to tell tagged variants apart when the tag predicts a
    nested payload's structure (the github-events pattern), shallow
    enough to stay a small sorted tuple.  Must mirror
    :func:`repro.discovery.tagged_unions.type_shape` exactly: branch
    membership joins this evidence against the type bag through it.
    """
    parts = []
    for key, value in record.items():
        parts.append(key)
        if isinstance(value, dict):
            for child in value:
                parts.append(key + "." + child)
    return tuple(sorted(set(parts)))


def _admissible_discriminant(value, string_cap: int) -> bool:
    """Scalars that can serve as a tag: bool/None, small ints, short
    strings.  Floats are excluded — ``1 == 1.0`` canonicalization
    would make the reported tag value ambiguous."""
    if value is None or isinstance(value, bool):
        return True
    if isinstance(value, int):
        return -MAX_DISCRIMINANT_INT <= value <= MAX_DISCRIMINANT_INT
    if isinstance(value, str):
        return len(value) <= string_cap
    return False


class KeyEvidence:
    """Evidence for one candidate discriminant key.

    ``values`` maps the key's tagged scalar value to a counter over
    the *shapes* (depth-2 key-path tuples; :func:`record_shape`) of
    the records carrying that value.  Past ``value_cap`` distinct values the table
    saturates: ``values`` is cleared and the key is disqualified.
    Saturation is absorbing, which keeps the merge associative — the
    union of value sets decides saturation no matter how absorptions
    are grouped.
    """

    __slots__ = ("present", "saturated", "values")

    def __init__(self) -> None:
        self.present = 0
        self.saturated = False
        self.values: Dict[
            Tuple[str, Union[bool, int, str]],
            Dict[Tuple[str, ...], int],
        ] = {}

    def observe(self, value: Scalar, shape: Tuple[str, ...], cap: int) -> None:
        self.present += 1
        if self.saturated:
            return
        key = scalar_key(value)
        shapes = self.values.get(key)
        if shapes is None:
            if len(self.values) >= cap:
                self.saturated = True
                self.values = {}
                return
            shapes = self.values[key] = {}
        shapes[shape] = shapes.get(shape, 0) + 1

    def merge(self, other: "KeyEvidence", cap: int) -> "KeyEvidence":
        merged = KeyEvidence()
        merged.present = self.present + other.present
        if self.saturated or other.saturated:
            merged.saturated = True
            return merged
        for source in (self.values, other.values):
            for key, shapes in source.items():
                target = merged.values.setdefault(key, {})
                for shape, count in shapes.items():
                    target[shape] = target.get(shape, 0) + count
        if len(merged.values) > cap:
            merged.saturated = True
            merged.values = {}
        return merged

    def _state_key(self):
        return (
            self.present,
            self.saturated,
            tuple(sorted(
                (key, tuple(sorted(shapes.items())))
                for key, shapes in self.values.items()
            )),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyEvidence):
            return NotImplemented
        return self._state_key() == other._state_key()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"KeyEvidence(present={self.present}, "
            f"saturated={self.saturated}, values={len(self.values)})"
        )


class DiscriminantAccumulator:
    """Root-level key → value → shape evidence for tagged unions.

    ``observe`` takes each record's shape from its interned type when
    the caller has one, through a memo of
    :func:`~repro.discovery.tagged_unions.type_shape` per distinct
    type; the memo is a cache, not part of the bytes or of equality.
    """

    __slots__ = ("value_cap", "string_cap", "records", "keys", "_shapes")

    def __init__(self, value_cap: int, string_cap: int) -> None:
        self.value_cap = value_cap
        self.string_cap = string_cap
        self.records = 0
        self.keys: Dict[str, KeyEvidence] = {}
        self._shapes: Dict[object, Tuple[str, ...]] = {}

    def observe(self, record: dict, tau=None) -> None:
        """Absorb one record; ``tau``, when given, is its type."""
        self.records += 1
        if tau is None:
            shape = record_shape(record)
        else:
            shape = self._shapes.get(tau)
            if shape is None:
                from repro.discovery.tagged_unions import type_shape

                shape = self._shapes[tau] = type_shape(tau)
        for key, value in record.items():
            if not _admissible_discriminant(value, self.string_cap):
                continue
            evidence = self.keys.get(key)
            if evidence is None:
                evidence = self.keys[key] = KeyEvidence()
            evidence.observe(value, shape, self.value_cap)

    def merge(self, other: "DiscriminantAccumulator") -> "DiscriminantAccumulator":
        if (self.value_cap, self.string_cap) != (
            other.value_cap,
            other.string_cap,
        ):
            raise ValueError(
                "cannot merge discriminant accumulators with different "
                f"caps: ({self.value_cap}, {self.string_cap}) vs "
                f"({other.value_cap}, {other.string_cap})"
            )
        merged = DiscriminantAccumulator(self.value_cap, self.string_cap)
        merged.records = self.records + other.records
        for name in self.keys.keys() | other.keys.keys():
            mine = self.keys.get(name)
            theirs = other.keys.get(name)
            if mine is None:
                merged.keys[name] = theirs.merge(
                    KeyEvidence(), self.value_cap
                )
            elif theirs is None:
                merged.keys[name] = mine.merge(
                    KeyEvidence(), self.value_cap
                )
            else:
                merged.keys[name] = mine.merge(theirs, self.value_cap)
        return merged

    def _state_key(self):
        return (
            self.value_cap,
            self.string_cap,
            self.records,
            tuple(sorted(
                (name, evidence._state_key())
                for name, evidence in self.keys.items()
            )),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscriminantAccumulator):
            return NotImplemented
        return self._state_key() == other._state_key()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"DiscriminantAccumulator(records={self.records}, "
            f"keys={len(self.keys)})"
        )


#: Scalars :class:`EnrichmentState` buffers before it absorbs them,
#: one column per path, into the sketches.
_COLUMN_SCALARS = 8192


class EnrichmentState:
    """All value-domain evidence for one discovery run.

    The monoid mirror of ``DiscoveryState``: ``observe`` plays the
    role of ``absorb`` (it takes the *value*, which structural absorb
    deliberately discards), ``merge`` requires equal options, and
    equality is byte equality through the codec.

    ``observe`` appends each scalar to its path's column and absorbs
    the columns, one sketch call each, once :data:`_COLUMN_SCALARS`
    are buffered.  Every read of :attr:`paths` flushes first, and the
    sketches are commutative monoids, so no reader sees a flush point.
    """

    __slots__ = (
        "options", "record_count", "_paths", "_pending", "_buffered",
        "discriminants",
    )

    def __init__(self, options: Optional[EnrichmentOptions] = None) -> None:
        self.options = (options or EnrichmentOptions()).validate()
        self.record_count = 0
        self._paths: Dict[Path, PathSketches] = {}
        self._pending: Dict[Path, List[Scalar]] = {}
        self._buffered = 0
        self.discriminants = DiscriminantAccumulator(
            self.options.union_value_cap, self.options.union_string_cap
        )

    @property
    def paths(self) -> Dict[Path, PathSketches]:
        """The sketch bundle of every path, with all buffered scalars
        absorbed."""
        if self._buffered:
            self._flush()
        return self._paths

    def _flush(self) -> None:
        paths = self._paths
        for path, column in self._pending.items():
            bundle = paths.get(path)
            if bundle is None:
                bundle = paths[path] = PathSketches(self.options)
            bundle.absorb_column(column)
        self._pending = {}
        self._buffered = 0

    @classmethod
    def empty(
        cls, options: Optional[EnrichmentOptions] = None
    ) -> "EnrichmentState":
        return cls(options)

    def empty_like(self) -> "EnrichmentState":
        return EnrichmentState(self.options)

    def observe(self, value, tau=None) -> None:
        """Absorb one record's values; ``tau``, when the caller holds
        it, is the record's type (it saves re-deriving the shape)."""
        self.record_count += 1
        if self.options.unions and isinstance(value, dict):
            self.discriminants.observe(value, tau)
        if not self.options.sketches:
            return
        pending = self._pending
        buffered = 0
        stack: List[Tuple[object, Path]] = [(value, ROOT)]
        while stack:
            node, path = stack.pop()
            if isinstance(node, dict):
                for key, child in node.items():
                    stack.append((child, path + (key,)))
            elif isinstance(node, list):
                child_path = path + (STAR,)
                for child in node:
                    stack.append((child, child_path))
            else:
                column = pending.get(path)
                if column is None:
                    pending[path] = [node]
                else:
                    column.append(node)
                buffered += 1
        self._buffered += buffered
        if self._buffered >= _COLUMN_SCALARS:
            self._flush()

    def merge(self, other: "EnrichmentState") -> "EnrichmentState":
        if self.options != other.options:
            raise ValueError(
                "cannot merge enrichment states with different options: "
                f"{self.options} vs {other.options}"
            )
        merged = EnrichmentState(self.options)
        merged.record_count = self.record_count + other.record_count
        empty_bundle = None
        for path in self.paths.keys() | other.paths.keys():
            mine = self.paths.get(path)
            theirs = other.paths.get(path)
            if mine is None or theirs is None:
                # Merge with an empty bundle so the result never
                # aliases either side's mutable sketches.
                if empty_bundle is None:
                    empty_bundle = PathSketches(self.options)
                present = mine if mine is not None else theirs
                merged.paths[path] = present.merge(empty_bundle)
            else:
                merged.paths[path] = mine.merge(theirs)
        merged.discriminants = self.discriminants.merge(other.discriminants)
        return merged

    def to_bytes(self) -> bytes:
        from repro.discovery import codec

        return codec.dumps_enrichment(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EnrichmentState":
        from repro.discovery import codec

        return codec.loads_enrichment(data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnrichmentState):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"EnrichmentState(options={self.options!r}, "
            f"record_count={self.record_count}, paths={len(self.paths)})"
        )


def dumps_sketch(sketch: Sketch) -> bytes:
    """Serialize one sketch (lazy delegate to the codec)."""
    from repro.discovery import codec

    return codec.dumps_sketch(sketch)


def loads_sketch(data: bytes) -> Sketch:
    """Deserialize one sketch (lazy delegate to the codec)."""
    from repro.discovery import codec

    return codec.loads_sketch(data)


def dumps_enrichment(state: EnrichmentState) -> bytes:
    """Serialize an :class:`EnrichmentState` (lazy codec delegate)."""
    from repro.discovery import codec

    return codec.dumps_enrichment(state)


def loads_enrichment(data: bytes) -> EnrichmentState:
    """Deserialize an :class:`EnrichmentState` (lazy codec delegate)."""
    from repro.discovery import codec

    return codec.loads_enrichment(data)
