"""Versioned, deterministic binary serialization of discovery state.

Every constituent of a :class:`~repro.discovery.state.DiscoveryState`
— counted bags, :class:`~repro.jsontypes.types.JsonType`\\ s, schemas,
configurations and the enrichment sidecar — has a codec here, so
partial states can cross the executor boundary (and checkpoint files)
in a compact wire form instead of as pickled live objects.

Design:

* Every payload starts with a fixed header: magic ``RDSC``, a codec
  version (uvarint), and a payload-kind string, and ends with the
  CRC-32 of every byte before it.  Decoding a payload of the wrong
  kind or version, with a bad checksum or nested deeper than the
  bounds below, fails loudly
  (:class:`~repro.errors.StateCodecError`), never silently.
* Version-2 payloads still load: they have no checksum, and the stat
  tree a JXPLAIN body held then is consumed by
  :func:`skip_v2_stat_tree` and dropped.
* Each payload carries a **type pool**: a table of the distinct
  :class:`JsonType` nodes it references, written bottom-up so every
  row only points at earlier rows.  The body then refers to types by
  pool id.  Decoding rebuilds each node bottom-up and re-interns it
  through :func:`~repro.jsontypes.types.intern_type`, so decoded types
  are pointer-equal to their live counterparts whenever interning is
  on.
* Encoding is **deterministic**: unordered containers (sets, hash
  dicts) are written in a canonical sort order, while containers whose
  iteration order is semantic (a counted bag's first-occurrence order,
  a union's branch order) are written in that order.  Equal states
  therefore produce equal bytes, which is what lets state equality be
  byte equality and lets the chaos tests assert byte-identical schemas
  across resume boundaries.

Integers use LEB128 (``uvarint``; zig-zag ``svarint`` where signs can
occur), floats use little-endian IEEE-754 doubles, and strings are
length-prefixed UTF-8.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.discovery.config import EntityStrategy, FeatureMode, JxplainConfig
from repro.discovery.sketches import (
    BloomMembershipSketch,
    EnrichmentOptions,
    EnrichmentState,
    HLLCardinalitySketch,
    KeyEvidence,
    MinMaxSketch,
    PathSketches,
    SKETCH_CLASSES,
    StringFormatSketch,
    scalar_from_key,
    scalar_key,
)
from repro.errors import SchemaConstructionError, StateCodecError
from repro.jsontypes.bag import CountedBag, ListBag, TypeBag
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, STAR
from repro.jsontypes.types import (
    ArrayType,
    JsonType,
    MAX_DEPTH,
    ObjectType,
    PRIMITIVES,
    PrimitiveType,
    intern_type,
)
from repro.schema.nodes import (
    ArrayCollection,
    ArrayTuple,
    NEVER,
    ObjectCollection,
    ObjectTuple,
    PRIMITIVE_SCHEMAS,
    PrimitiveSchema,
    Schema,
    Union,
)

#: Header magic of every payload ("Repro Discovery State Codec").
MAGIC = b"RDSC"

#: Bumped whenever the wire format changes incompatibly.
#: Version 2: state bodies carry a trailing enrichment section
#: (value-domain sketches + discriminant evidence).
#: Version 3: a JXPLAIN body drops its stat tree, and every payload ends
#: with a little-endian CRC-32 trailer.
CODEC_VERSION = 3

#: Deepest schema a payload may hold.  A schema built from types of
#: depth <= MAX_DEPTH adds at most a union above each type level.
MAX_SCHEMA_DEPTH = 2 * MAX_DEPTH

#: Fixed kind numbering shared by every codec below.
_KIND_ORDER: Tuple[Kind, ...] = (
    Kind.BOOLEAN,
    Kind.NUMBER,
    Kind.STRING,
    Kind.NULL,
    Kind.OBJECT,
    Kind.ARRAY,
)
_KIND_TAG: Dict[Kind, int] = {kind: tag for tag, kind in enumerate(_KIND_ORDER)}

# -- primitive writer / reader ------------------------------------------------


class _Writer:
    """Append-only byte buffer with the codec's primitive encodings."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def uvarint(self, value: int) -> None:
        if value < 0:
            raise StateCodecError(f"uvarint cannot encode {value}")
        buf = self._buf
        while value >= 0x80:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def svarint(self, value: int) -> None:
        # Zig-zag: small magnitudes of either sign stay small.
        self.uvarint((value << 1) ^ (value >> 63) if value >= 0 else (
            ((-value) << 1) - 1
        ))

    def boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def float64(self, value: float) -> None:
        self._buf += struct.pack("<d", value)

    def string(self, value: str) -> None:
        # surrogatepass: json.loads admits a lone escaped surrogate
        # ("\ud800"), which strict UTF-8 cannot encode.
        encoded = value.encode("utf-8", "surrogatepass")
        self.uvarint(len(encoded))
        self._buf += encoded

    def raw(self, data: bytes) -> None:
        self._buf += data

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class _Reader:
    """Bounds-checked counterpart of :class:`_Writer`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos

    def _take(self, size: int) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise StateCodecError("truncated payload")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self._take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise StateCodecError("malformed uvarint")

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def boolean(self) -> bool:
        byte = self._take(1)[0]
        if byte not in (0, 1):
            raise StateCodecError(f"malformed boolean byte {byte}")
        return byte == 1

    def float64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def string(self) -> str:
        size = self.uvarint()
        try:
            return self._take(size).decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise StateCodecError(f"malformed utf-8 string: {exc}") from None

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)


# -- the JsonType pool --------------------------------------------------------
#
# Type rows: 0..3 = the primitive singletons (in _KIND_ORDER order),
# 4 = object (field count, then (key, child id) pairs in the type's own
# sorted-field order), 5 = array (element count, then child ids).

_PRIM_ROW_TAG = {
    Kind.BOOLEAN: 0,
    Kind.NUMBER: 1,
    Kind.STRING: 2,
    Kind.NULL: 3,
}
_PRIM_BY_ROW_TAG = {
    tag: PRIMITIVES[kind] for kind, tag in _PRIM_ROW_TAG.items()
}


class _TypePool:
    """Assigns pool ids to types, children before parents."""

    __slots__ = ("_ids", "_rows")

    def __init__(self) -> None:
        self._ids: Dict[JsonType, int] = {}
        self._rows: List[bytes] = []

    def add(self, tau: JsonType) -> int:
        existing = self._ids.get(tau)
        if existing is not None:
            return existing
        row = _Writer()
        if isinstance(tau, PrimitiveType):
            row.uvarint(_PRIM_ROW_TAG[tau.kind])
        elif isinstance(tau, ObjectType):
            child_ids = [(key, self.add(value)) for key, value in tau.fields]
            row.uvarint(4)
            row.uvarint(len(child_ids))
            for key, child_id in child_ids:
                row.string(key)
                row.uvarint(child_id)
        elif isinstance(tau, ArrayType):
            child_ids = [self.add(value) for value in tau.elements]
            row.uvarint(5)
            row.uvarint(len(child_ids))
            for child_id in child_ids:
                row.uvarint(child_id)
        else:
            raise StateCodecError(f"not a JSON type: {tau!r}")
        # Children registered themselves during recursion; this node's
        # id is whatever slot comes next (strictly after its children).
        type_id = len(self._rows)
        self._rows.append(row.getvalue())
        self._ids[tau] = type_id
        return type_id

    def write_table(self, out: _Writer) -> None:
        out.uvarint(len(self._rows))
        for row in self._rows:
            out.raw(row)


def _read_type_table(reader: _Reader) -> List[JsonType]:
    count = reader.uvarint()
    types: List[JsonType] = []
    for _ in range(count):
        tag = reader.uvarint()
        if tag in _PRIM_BY_ROW_TAG:
            types.append(_PRIM_BY_ROW_TAG[tag])
            continue
        if tag == 4:
            fields = {}
            for _ in range(reader.uvarint()):
                key = reader.string()
                child_id = reader.uvarint()
                if child_id >= len(types):
                    raise StateCodecError("type row references later row")
                fields[key] = types[child_id]
            tau: JsonType = ObjectType(fields)
        elif tag == 5:
            elements = []
            for _ in range(reader.uvarint()):
                child_id = reader.uvarint()
                if child_id >= len(types):
                    raise StateCodecError("type row references later row")
                elements.append(types[child_id])
            tau = ArrayType(tuple(elements))
        else:
            raise StateCodecError(f"unknown type-row tag {tag}")
        if tau.depth() > MAX_DEPTH:
            raise StateCodecError(
                f"type row nests deeper than {MAX_DEPTH} levels"
            )
        types.append(intern_type(tau))
    return types


# -- encoder / decoder --------------------------------------------------------


class Encoder:
    """Accumulates a payload body plus the type pool it references.

    ``blob`` redirects writes into a temporary buffer and returns its
    bytes — the mechanism behind canonical (sorted-by-encoding) output
    for unordered containers.  Pool ids are assigned at encode time and
    are unaffected by blob reordering, so sorting blobs never perturbs
    the table.
    """

    def __init__(self) -> None:
        self._pool = _TypePool()
        self._stack: List[_Writer] = [_Writer()]

    @property
    def w(self) -> _Writer:
        return self._stack[-1]

    def type_ref(self, tau: JsonType) -> None:
        self.w.uvarint(self._pool.add(tau))

    def blob(self, write_fn: Callable, *args) -> bytes:
        self._stack.append(_Writer())
        write_fn(self, *args)
        return self._stack.pop().getvalue()

    def sorted_blobs(self, items: Iterable, write_fn: Callable) -> None:
        """Write ``items`` canonically: count, then the items' encodings
        in ascending byte order."""
        blobs = sorted(self.blob(write_fn, item) for item in items)
        self.w.uvarint(len(blobs))
        for blob in blobs:
            self.w.raw(blob)

    def finish(self, kind: str) -> bytes:
        if len(self._stack) != 1:
            raise StateCodecError("unbalanced blob encoding")
        head = _Writer()
        head.raw(MAGIC)
        head.uvarint(CODEC_VERSION)
        head.string(kind)
        self._pool.write_table(head)
        head.raw(self._stack[0].getvalue())
        payload = head.getvalue()
        return payload + zlib.crc32(payload).to_bytes(4, "little")


class Decoder:
    """Parses a payload header + type table and exposes the body.

    ``version`` is the payload's codec version (2 or 3); a version-3
    checksum is verified before anything after the version is parsed.
    """

    def __init__(self, data: bytes, expect_kind: Optional[str] = None):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise StateCodecError(
                f"payload must be bytes, got {type(data).__name__}"
            )
        data = bytes(data)
        if data[:4] != MAGIC:
            raise StateCodecError("bad magic: not a discovery-state payload")
        reader = _Reader(data, 4)
        version = reader.uvarint()
        if version not in (2, CODEC_VERSION):
            raise StateCodecError(
                f"unsupported codec version {version} "
                f"(this build reads versions 2 and {CODEC_VERSION})"
            )
        if version == CODEC_VERSION:
            body, crc = data[:-4], data[-4:]
            if zlib.crc32(body) != int.from_bytes(crc, "little"):
                raise StateCodecError("checksum mismatch: corrupt payload")
            reader = _Reader(body, reader._pos)
        self.version = version
        self.kind = reader.string()
        if expect_kind is not None and self.kind != expect_kind:
            raise StateCodecError(
                f"payload kind mismatch: expected {expect_kind!r}, "
                f"got {self.kind!r}"
            )
        self.types = _read_type_table(reader)
        self.r = reader

    def type_ref(self) -> JsonType:
        type_id = self.r.uvarint()
        if type_id >= len(self.types):
            raise StateCodecError(f"dangling type reference {type_id}")
        return self.types[type_id]

    def finish(self) -> None:
        if not self.r.exhausted:
            raise StateCodecError("trailing bytes after payload body")


def _dumps(kind: str, write_fn: Callable, value) -> bytes:
    enc = Encoder()
    write_fn(enc, value)
    return enc.finish(kind)


def _loads(kind: str, read_fn: Callable, data: bytes):
    dec = Decoder(data, expect_kind=kind)
    value = read_fn(dec)
    dec.finish()
    return value


# -- small shared pieces ------------------------------------------------------


def _write_kind(enc: Encoder, kind: Kind) -> None:
    enc.w.uvarint(_KIND_TAG[kind])


def _read_kind(dec: Decoder) -> Kind:
    tag = dec.r.uvarint()
    if tag >= len(_KIND_ORDER):
        raise StateCodecError(f"unknown kind tag {tag}")
    return _KIND_ORDER[tag]


def _write_opt_uvarint(enc: Encoder, value: Optional[int]) -> None:
    enc.w.boolean(value is not None)
    if value is not None:
        enc.w.uvarint(value)


def _read_opt_uvarint(dec: Decoder) -> Optional[int]:
    return dec.r.uvarint() if dec.r.boolean() else None


def write_path(enc: Encoder, path: Path) -> None:
    enc.w.uvarint(len(path))
    for step in path:
        if step is STAR:
            enc.w.uvarint(2)
        elif isinstance(step, str):
            enc.w.uvarint(0)
            enc.w.string(step)
        elif isinstance(step, int):
            enc.w.uvarint(1)
            enc.w.uvarint(step)
        else:
            raise StateCodecError(f"unknown path step {step!r}")


def read_path(dec: Decoder) -> Path:
    steps: list = []
    for _ in range(dec.r.uvarint()):
        tag = dec.r.uvarint()
        if tag == 0:
            steps.append(dec.r.string())
        elif tag == 1:
            steps.append(dec.r.uvarint())
        elif tag == 2:
            steps.append(STAR)
        else:
            raise StateCodecError(f"unknown path-step tag {tag}")
    return tuple(steps)


# -- schemas ------------------------------------------------------------------
#
# Tags: 0 NEVER, 1 primitive, 2 ObjectTuple, 3 ArrayTuple,
# 4 ArrayCollection, 5 ObjectCollection, 6 Union.  Union branch order
# is preserved (it is the presentation order the renderer shows), as
# are the sorted field tuples ObjectTuple stores.


def write_schema(enc: Encoder, schema: Schema) -> None:
    if schema is NEVER:
        enc.w.uvarint(0)
    elif isinstance(schema, PrimitiveSchema):
        enc.w.uvarint(1)
        _write_kind(enc, schema.kind)
    elif isinstance(schema, ObjectTuple):
        enc.w.uvarint(2)
        for fields in (schema.required, schema.optional):
            enc.w.uvarint(len(fields))
            for key, child in fields:
                enc.w.string(key)
                write_schema(enc, child)
    elif isinstance(schema, ArrayTuple):
        enc.w.uvarint(3)
        enc.w.uvarint(len(schema.elements))
        for child in schema.elements:
            write_schema(enc, child)
        enc.w.uvarint(schema.min_length)
    elif isinstance(schema, ArrayCollection):
        enc.w.uvarint(4)
        write_schema(enc, schema.element)
        enc.w.uvarint(schema.max_length_seen)
    elif isinstance(schema, ObjectCollection):
        enc.w.uvarint(5)
        write_schema(enc, schema.value)
        enc.sorted_blobs(
            schema.domain, lambda e, key: e.w.string(key)
        )
    elif isinstance(schema, Union):
        enc.w.uvarint(6)
        enc.w.uvarint(len(schema.branches))
        for branch in schema.branches:
            write_schema(enc, branch)
    else:
        raise StateCodecError(f"unknown schema node {schema!r}")


def read_schema(dec: Decoder) -> Schema:
    try:
        return _schema_node(dec, 1)
    except SchemaConstructionError as exc:
        raise StateCodecError(f"malformed schema node: {exc}") from None


def _schema_node(dec: Decoder, depth: int) -> Schema:
    # One frame per level (loops, not comprehensions): the bound trips
    # well before the interpreter's recursion limit.
    if depth > MAX_SCHEMA_DEPTH:
        raise StateCodecError(
            f"schema nests deeper than {MAX_SCHEMA_DEPTH} levels"
        )
    depth += 1
    tag = dec.r.uvarint()
    if tag == 0:
        return NEVER
    if tag == 1:
        kind = _read_kind(dec)
        if kind not in PRIMITIVE_SCHEMAS:
            raise StateCodecError(f"{kind} is not a primitive schema kind")
        return PRIMITIVE_SCHEMAS[kind]
    if tag == 2:
        required: Dict[str, Schema] = {}
        optional: Dict[str, Schema] = {}
        for fields in (required, optional):
            for _ in range(dec.r.uvarint()):
                key = dec.r.string()
                fields[key] = _schema_node(dec, depth)
        return ObjectTuple(required, optional)
    if tag == 3:
        elements = []
        for _ in range(dec.r.uvarint()):
            elements.append(_schema_node(dec, depth))
        return ArrayTuple(elements, dec.r.uvarint())
    if tag == 4:
        element = _schema_node(dec, depth)
        return ArrayCollection(element, max_length_seen=dec.r.uvarint())
    if tag == 5:
        value = _schema_node(dec, depth)
        domain = frozenset(
            dec.r.string() for _ in range(dec.r.uvarint())
        )
        return ObjectCollection(value, domain)
    if tag == 6:
        branches = []
        for _ in range(dec.r.uvarint()):
            branches.append(_schema_node(dec, depth))
        return Union(branches)
    raise StateCodecError(f"unknown schema tag {tag}")


# -- counted bags -------------------------------------------------------------
#
# First-occurrence order is SEMANTIC (it fixes primitive branch order
# and cluster discovery order downstream), so entries are written in
# iteration order, never sorted.


def write_bag(enc: Encoder, bag: TypeBag) -> None:
    enc.w.boolean(isinstance(bag, ListBag))
    enc.w.uvarint(bag.distinct_count)
    for tau, count in bag.items():
        enc.type_ref(tau)
        enc.w.uvarint(count)


def read_bag(dec: Decoder) -> TypeBag:
    bag: TypeBag = ListBag() if dec.r.boolean() else CountedBag()
    for _ in range(dec.r.uvarint()):
        tau = dec.type_ref()
        bag.add(tau, dec.r.uvarint())
    return bag


# -- version-2 stat trees -----------------------------------------------------
#
# A version-2 JXPLAIN body ends with pass ①'s stat tree.  Node: optional
# similarity depth, primitive-kind counts, optional object and array
# evidence, then children, each a step (tag 0 + string, or tag 1 +
# uvarint) followed by its node.


def _skip_v2_evidence(dec: Decoder) -> None:
    r = dec.r
    _read_kind(dec)
    r.uvarint()  # record count
    for _ in range(r.uvarint()):  # key counts
        r.string()
        r.uvarint()
    for _ in range(r.uvarint()):  # length counts
        r.uvarint()
        r.uvarint()
    r.boolean()  # mixed kinds
    _read_opt_uvarint(dec)  # similarity depth
    r.boolean()  # all similar
    r.uvarint()  # similarity count
    if r.boolean():
        dec.type_ref()  # maximal type


def skip_v2_stat_tree(dec: Decoder) -> None:
    """Consume a version-2 stat tree, checking it but building nothing.

    Iterative: ``remaining`` holds, per open level, how many nodes are
    still to read there, so a corrupt tree fails on the depth bound (a
    tree is as deep as the types it was built from), never on the
    interpreter's stack.
    """
    r = dec.r
    remaining = [1]
    while remaining:
        if not remaining[-1]:
            remaining.pop()
            continue
        remaining[-1] -= 1
        if len(remaining) > 1:
            tag = r.uvarint()
            if tag == 0:
                r.string()
            elif tag == 1:
                r.uvarint()
            else:
                raise StateCodecError(f"unknown stat-tree step tag {tag}")
        _read_opt_uvarint(dec)  # similarity depth
        for _ in range(r.uvarint()):  # primitive-kind counts
            _read_kind(dec)
            r.uvarint()
        for _ in range(2):  # object, then array evidence
            if r.boolean():
                _skip_v2_evidence(dec)
        children = r.uvarint()
        if children:
            if len(remaining) >= MAX_DEPTH:
                raise StateCodecError(
                    f"stat tree nests deeper than {MAX_DEPTH} levels"
                )
            remaining.append(children)


# -- configuration ------------------------------------------------------------


def write_config(enc: Encoder, config: JxplainConfig) -> None:
    enc.w.float64(config.entropy_threshold)
    _write_opt_uvarint(enc, config.similarity_depth)
    enc.w.boolean(config.detect_array_tuples)
    enc.w.boolean(config.detect_object_collections)
    enc.w.string(config.entity_strategy.value)
    enc.w.string(config.feature_mode.value)
    _write_opt_uvarint(enc, config.kmeans_k)
    enc.w.svarint(config.kmeans_seed)
    enc.w.boolean(config.kmeans_weighted)
    enc.w.uvarint(config.max_depth)


def read_config(dec: Decoder) -> JxplainConfig:
    try:
        config = JxplainConfig(
            entropy_threshold=dec.r.float64(),
            similarity_depth=_read_opt_uvarint(dec),
            detect_array_tuples=dec.r.boolean(),
            detect_object_collections=dec.r.boolean(),
            entity_strategy=EntityStrategy(dec.r.string()),
            feature_mode=FeatureMode(dec.r.string()),
            kmeans_k=_read_opt_uvarint(dec),
            kmeans_seed=dec.r.svarint(),
            kmeans_weighted=dec.r.boolean(),
            max_depth=dec.r.uvarint(),
        )
        config.validate()
    except StateCodecError:
        raise
    except ValueError as exc:
        raise StateCodecError(f"invalid configuration: {exc}") from None
    return config


# -- enrichment sketches (PR 8) -----------------------------------------------
#
# Sketch tags follow SKETCH_CLASSES order: 0 minmax, 1 bloom, 2 hll,
# 3 format.  All containers here hold plain data (no JsonType refs),
# so sorting before encoding is fully canonical.

_SKETCH_TAG = {cls.name: tag for tag, cls in enumerate(SKETCH_CLASSES)}


def _write_number(enc: Encoder, value) -> None:
    """A min/max bound: float64 when float, svarint when int.

    The float flag round-trips exactly, preserving the sketch's
    canonical int-vs-float distinction (``1`` vs ``1.0``).
    """
    is_float = isinstance(value, float)
    enc.w.boolean(is_float)
    if is_float:
        enc.w.float64(value)
    else:
        enc.w.svarint(value)


def _read_number(dec: Decoder):
    return dec.r.float64() if dec.r.boolean() else dec.r.svarint()


def write_sketch(enc: Encoder, sketch) -> None:
    tag = _SKETCH_TAG.get(sketch.name)
    if tag is None:
        raise StateCodecError(f"unknown sketch {sketch!r}")
    enc.w.uvarint(tag)
    if isinstance(sketch, MinMaxSketch):
        enc.w.uvarint(sketch.count)
        if sketch.count:
            _write_number(enc, sketch.minimum)
            _write_number(enc, sketch.maximum)
    elif isinstance(sketch, BloomMembershipSketch):
        enc.w.uvarint(sketch.size)
        enc.w.uvarint(sketch.hashes)
        enc.w.uvarint(sketch.count)
        enc.w.raw(sketch.bits.to_bytes(sketch.size // 8, "little"))
    elif isinstance(sketch, HLLCardinalitySketch):
        enc.w.uvarint(sketch.precision)
        enc.w.uvarint(sketch.count)
        enc.w.raw(bytes(sketch.registers))
    elif isinstance(sketch, StringFormatSketch):
        enc.w.uvarint(sketch.total)
        counts = sorted(
            item for item in sketch.counts.items() if item[1]
        )
        enc.w.uvarint(len(counts))
        for format_name, count in counts:
            enc.w.string(format_name)
            enc.w.uvarint(count)
    else:
        raise StateCodecError(f"unknown sketch {sketch!r}")


def read_sketch(dec: Decoder):
    tag = dec.r.uvarint()
    if tag >= len(SKETCH_CLASSES):
        raise StateCodecError(f"unknown sketch tag {tag}")
    cls = SKETCH_CLASSES[tag]
    if cls is MinMaxSketch:
        sketch = MinMaxSketch()
        sketch.count = dec.r.uvarint()
        if sketch.count:
            sketch.minimum = _read_number(dec)
            sketch.maximum = _read_number(dec)
        return sketch
    if cls is BloomMembershipSketch:
        size = dec.r.uvarint()
        hashes = dec.r.uvarint()
        # The constructors check geometry before they allocate.
        try:
            sketch = BloomMembershipSketch(size, hashes)
        except ValueError as exc:
            raise StateCodecError(str(exc)) from None
        sketch.count = dec.r.uvarint()
        sketch.bits = int.from_bytes(dec.r._take(size // 8), "little")
        return sketch
    if cls is HLLCardinalitySketch:
        precision = dec.r.uvarint()
        try:
            sketch = HLLCardinalitySketch(precision)
        except ValueError as exc:
            raise StateCodecError(str(exc)) from None
        sketch.count = dec.r.uvarint()
        sketch.registers = bytearray(
            dec.r._take(1 << sketch.precision)
        )
        return sketch
    sketch = StringFormatSketch()
    sketch.total = dec.r.uvarint()
    for _ in range(dec.r.uvarint()):
        format_name = dec.r.string()
        sketch.counts[format_name] = dec.r.uvarint()
    return sketch


def _write_path_sketches(enc: Encoder, bundle: PathSketches) -> None:
    for sketch in bundle.sketches():
        write_sketch(enc, sketch)


def _read_path_sketches(dec: Decoder) -> PathSketches:
    numbers = read_sketch(dec)
    strings = read_sketch(dec)
    members = read_sketch(dec)
    cardinality = read_sketch(dec)
    if not (
        isinstance(numbers, MinMaxSketch)
        and isinstance(strings, StringFormatSketch)
        and isinstance(members, BloomMembershipSketch)
        and isinstance(cardinality, HLLCardinalitySketch)
    ):
        raise StateCodecError("malformed path-sketches bundle")
    return PathSketches.from_sketches(numbers, strings, members, cardinality)


# Discriminant scalar tags: 0 null, 1 false, 2 true, 3 int, 4 str.


def _write_scalar(enc: Encoder, value) -> None:
    if value is None:
        enc.w.uvarint(0)
    elif value is False:
        enc.w.uvarint(1)
    elif value is True:
        enc.w.uvarint(2)
    elif isinstance(value, int):
        enc.w.uvarint(3)
        enc.w.svarint(value)
    elif isinstance(value, str):
        enc.w.uvarint(4)
        enc.w.string(value)
    else:
        raise StateCodecError(f"not a discriminant scalar: {value!r}")


def _read_scalar(dec: Decoder):
    tag = dec.r.uvarint()
    if tag == 0:
        return None
    if tag == 1:
        return False
    if tag == 2:
        return True
    if tag == 3:
        return dec.r.svarint()
    if tag == 4:
        return dec.r.string()
    raise StateCodecError(f"unknown scalar tag {tag}")


def _write_key_evidence(enc: Encoder, evidence: KeyEvidence) -> None:
    enc.w.uvarint(evidence.present)
    enc.w.boolean(evidence.saturated)
    enc.w.uvarint(len(evidence.values))
    for tagged in sorted(evidence.values):
        _write_scalar(enc, scalar_from_key(tagged))
        shapes = evidence.values[tagged]
        enc.w.uvarint(len(shapes))
        for shape in sorted(shapes):
            enc.w.uvarint(len(shape))
            for key in shape:
                enc.w.string(key)
            enc.w.uvarint(shapes[shape])


def _read_key_evidence(dec: Decoder) -> KeyEvidence:
    evidence = KeyEvidence()
    evidence.present = dec.r.uvarint()
    evidence.saturated = dec.r.boolean()
    for _ in range(dec.r.uvarint()):
        tagged = scalar_key(_read_scalar(dec))
        shapes = evidence.values[tagged] = {}
        for _ in range(dec.r.uvarint()):
            shape = tuple(
                dec.r.string() for _ in range(dec.r.uvarint())
            )
            shapes[shape] = dec.r.uvarint()
    return evidence


def _write_options(enc: Encoder, options: EnrichmentOptions) -> None:
    enc.w.boolean(options.sketches)
    enc.w.boolean(options.unions)
    enc.w.uvarint(options.bloom_bits)
    enc.w.uvarint(options.bloom_hashes)
    enc.w.uvarint(options.hll_precision)
    enc.w.uvarint(options.union_value_cap)
    enc.w.uvarint(options.union_string_cap)


def _read_options(dec: Decoder) -> EnrichmentOptions:
    options = EnrichmentOptions(
        sketches=dec.r.boolean(),
        unions=dec.r.boolean(),
        bloom_bits=dec.r.uvarint(),
        bloom_hashes=dec.r.uvarint(),
        hll_precision=dec.r.uvarint(),
        union_value_cap=dec.r.uvarint(),
        union_string_cap=dec.r.uvarint(),
    )
    try:
        return options.validate()
    except ValueError as exc:
        raise StateCodecError(f"invalid enrichment options: {exc}") from None


def write_enrichment(enc: Encoder, state: EnrichmentState) -> None:
    _write_options(enc, state.options)
    enc.w.uvarint(state.record_count)

    def write_path_entry(e: Encoder, entry) -> None:
        path, bundle = entry
        write_path(e, path)
        _write_path_sketches(e, bundle)

    enc.sorted_blobs(state.paths.items(), write_path_entry)
    enc.w.uvarint(state.discriminants.records)
    enc.w.uvarint(len(state.discriminants.keys))
    for name in sorted(state.discriminants.keys):
        enc.w.string(name)
        _write_key_evidence(enc, state.discriminants.keys[name])


def read_enrichment(dec: Decoder) -> EnrichmentState:
    state = EnrichmentState(_read_options(dec))
    state.record_count = dec.r.uvarint()
    options = state.options
    for _ in range(dec.r.uvarint()):
        path = read_path(dec)
        bundle = _read_path_sketches(dec)
        if (
            bundle.members.size != options.bloom_bits
            or bundle.members.hashes != options.bloom_hashes
            or bundle.cardinality.precision != options.hll_precision
        ):
            raise StateCodecError(
                f"sketch geometry at path {path!r} differs from the "
                "state's options"
            )
        state.paths[path] = bundle
    state.discriminants.records = dec.r.uvarint()
    for _ in range(dec.r.uvarint()):
        name = dec.r.string()
        state.discriminants.keys[name] = _read_key_evidence(dec)
    return state


def write_tagged_unions(enc: Encoder, decisions) -> None:
    enc.w.uvarint(len(decisions))
    for decision in decisions:
        write_path(enc, decision.path)
        enc.w.string(decision.key)
        enc.w.float64(decision.entropy)
        enc.w.float64(decision.coverage)
        enc.w.float64(decision.predictiveness)
        enc.w.uvarint(len(decision.branches))
        for branch in decision.branches:
            _write_scalar(enc, branch.value)
            enc.w.uvarint(branch.count)
            write_schema(enc, branch.schema)


def read_tagged_unions(dec: Decoder):
    from repro.discovery.tagged_unions import (
        TaggedUnionBranch,
        TaggedUnionDecision,
    )

    decisions = []
    for _ in range(dec.r.uvarint()):
        path = read_path(dec)
        key = dec.r.string()
        entropy = dec.r.float64()
        coverage = dec.r.float64()
        predictiveness = dec.r.float64()
        branches = [
            TaggedUnionBranch(
                value=_read_scalar(dec),
                count=dec.r.uvarint(),
                schema=read_schema(dec),
            )
            for _ in range(dec.r.uvarint())
        ]
        decisions.append(
            TaggedUnionDecision(
                path=path,
                key=key,
                entropy=entropy,
                coverage=coverage,
                predictiveness=predictiveness,
                branches=branches,
            )
        )
    return decisions


# -- standalone payloads ------------------------------------------------------
#
# Module-level function pairs, so executor tasks can carry them by
# reference through pickle.


def dumps_schema(schema: Schema) -> bytes:
    return _dumps("schema", write_schema, schema)


def loads_schema(data: bytes) -> Schema:
    return _loads("schema", read_schema, data)


def dumps_sketch(sketch) -> bytes:
    return _dumps("sketch", write_sketch, sketch)


def loads_sketch(data: bytes):
    return _loads("sketch", read_sketch, data)


def dumps_enrichment(state: EnrichmentState) -> bytes:
    return _dumps("enrichment", write_enrichment, state)


def loads_enrichment(data: bytes) -> EnrichmentState:
    return _loads("enrichment", read_enrichment, data)


def dumps_tagged_unions(decisions) -> bytes:
    return _dumps("tagged-unions", write_tagged_unions, decisions)


def loads_tagged_unions(data: bytes):
    return _loads("tagged-unions", read_tagged_unions, data)
