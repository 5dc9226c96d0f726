"""Immutable JSON types (Figure 2 of the paper).

A :class:`JsonType` is the *type* of a single JSON value: primitive
types are atoms, while the type of an object (resp. array) records the
type of the value nested under every key (resp. position).  Types are
immutable and hashable, so bags of types can be stored in
``collections.Counter`` and deduplicated for free — this is what makes
the L-reduction ("naive discovery") a one-liner.

The module also provides :func:`type_of`, which extracts the type of a
parsed JSON value (the output of ``json.loads``), and a hash-consing
intern table: with interning enabled (the default), structurally equal
complex types built by :func:`type_of` / :func:`intern_type` are the
*same object*.  Interning is a pure optimisation — equality semantics
are unchanged — but it collapses equality checks and dict lookups over
types to pointer comparisons, which is what makes the counted-bag
merge fast path (:mod:`repro.jsontypes.bag`) cheap on corpora with
heavy structural repetition.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence, Union

from repro.errors import InvalidJsonValueError, RecursionDepthError
from repro.jsontypes.kinds import Kind

#: A parsed JSON value, as produced by ``json.loads``.
JsonValue = Union[None, bool, int, float, str, list, dict]

#: Default bound on value/type nesting depth; prevents pathological
#: inputs from exhausting the interpreter stack.
MAX_DEPTH = 256


class JsonType:
    """Base class for all JSON types.

    Subclasses are immutable value objects: equality, hashing and
    ordering are structural.
    """

    __slots__ = ()

    #: Overridden by subclasses.
    kind: Kind

    @property
    def is_primitive(self) -> bool:
        return self.kind.is_primitive

    @property
    def is_complex(self) -> bool:
        return self.kind.is_complex

    def keys(self) -> tuple:
        """The keys mapped by this type (``keys(τ)`` in the paper).

        Objects return their field names; arrays return their valid
        indices; primitives return the empty tuple.
        """
        return ()

    def field(self, key) -> "JsonType":
        """The type nested under ``key`` (``τ.k`` in the paper)."""
        raise KeyError(key)

    def children(self) -> Iterator["JsonType"]:
        """Iterate over all directly nested types."""
        return iter(())

    def depth(self) -> int:
        """Nesting depth of the type (primitives have depth 1).

        O(1): every node records its depth when it is built, from its
        children's already-recorded depths.
        """
        return self._depth

    def node_count(self) -> int:
        """Total number of type nodes, including this one."""
        return 1 + sum(c.node_count() for c in self.children())


class PrimitiveType(JsonType):
    """A primitive JSON type: 𝔹, ℝ, 𝕊, or null.

    Instances are interned — there are exactly four of them, exposed as
    module-level constants :data:`BOOLEAN`, :data:`NUMBER`,
    :data:`STRING`, and :data:`NULL`.
    """

    __slots__ = ("kind",)

    _interned: dict = {}

    _depth = 1

    def __new__(cls, kind: Kind) -> "PrimitiveType":
        if not kind.is_primitive:
            raise InvalidJsonValueError(f"{kind} is not a primitive kind")
        cached = cls._interned.get(kind)
        if cached is None:
            cached = super().__new__(cls)
            object.__setattr__(cached, "kind", kind)
            cls._interned[kind] = cached
        return cached

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PrimitiveType is immutable")

    # Singletons: equality is identity, and the identity hash keeps
    # hashing a type tuple free of Python-level calls.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        # Unpickling re-enters __new__, which re-interns: primitive
        # singletons survive a round trip to a worker process.
        return (PrimitiveType, (self.kind,))

    def __repr__(self) -> str:
        return self.kind.value


#: The four primitive type singletons.
BOOLEAN = PrimitiveType(Kind.BOOLEAN)
NUMBER = PrimitiveType(Kind.NUMBER)
STRING = PrimitiveType(Kind.STRING)
NULL = PrimitiveType(Kind.NULL)

#: Mapping from primitive kind to its singleton type.
PRIMITIVES: Mapping[Kind, PrimitiveType] = {
    Kind.BOOLEAN: BOOLEAN,
    Kind.NUMBER: NUMBER,
    Kind.STRING: STRING,
    Kind.NULL: NULL,
}


class ObjectType(JsonType):
    """The type of a JSON object: ``{ k1: τ1, ..., kN: τN }``.

    Fields are stored as a tuple of ``(key, type)`` pairs sorted by key,
    which gives structural equality and hashing independent of the
    original key order.
    """

    __slots__ = ("fields", "_hash", "_depth")

    kind = Kind.OBJECT

    def __init__(self, fields: Mapping[str, JsonType]):
        depth = 0
        for key, value in fields.items():
            if not isinstance(key, str):
                raise InvalidJsonValueError(
                    f"object keys must be strings, got {key!r}"
                )
            if not isinstance(value, JsonType):
                raise InvalidJsonValueError(
                    f"field {key!r} maps to non-type {value!r}"
                )
            if value._depth > depth:
                depth = value._depth
        items = tuple(sorted(fields.items()))
        object.__setattr__(self, "fields", items)
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_depth", depth + 1)

    def __setattr__(self, name, value):
        raise AttributeError("ObjectType is immutable")

    def keys(self) -> tuple:
        return tuple(key for key, _ in self.fields)

    def key_set(self) -> frozenset:
        """The field names as a frozenset (used by entity discovery)."""
        return frozenset(key for key, _ in self.fields)

    def field(self, key: str) -> JsonType:
        for name, value in self.fields:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default=None):
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def items(self) -> tuple:
        return self.fields

    def children(self) -> Iterator[JsonType]:
        return (value for _, value in self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, key: str) -> bool:
        return any(name == key for name, _ in self.fields)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, ObjectType) and self.fields == other.fields

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ObjectType, (dict(self.fields),))

    def __repr__(self) -> str:
        body = ", ".join(f"{key}: {value!r}" for key, value in self.fields)
        return "{" + body + "}"


class ArrayType(JsonType):
    """The type of a JSON array: ``[ τ1, ..., τN ]``."""

    __slots__ = ("elements", "_hash", "_depth")

    kind = Kind.ARRAY

    def __init__(self, elements: Sequence[JsonType]):
        items = tuple(elements)
        depth = 0
        for value in items:
            if not isinstance(value, JsonType):
                raise InvalidJsonValueError(
                    f"array element is not a type: {value!r}"
                )
            if value._depth > depth:
                depth = value._depth
        object.__setattr__(self, "elements", items)
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_depth", depth + 1)

    def __setattr__(self, name, value):
        raise AttributeError("ArrayType is immutable")

    def keys(self) -> tuple:
        return tuple(range(len(self.elements)))

    def field(self, key: int) -> JsonType:
        try:
            return self.elements[key]
        except (IndexError, TypeError) as exc:
            raise KeyError(key) from exc

    def children(self) -> Iterator[JsonType]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, ArrayType) and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ArrayType, (self.elements,))

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(value) for value in self.elements) + "]"


#: The type of the empty object / empty array, exposed for convenience.
EMPTY_OBJECT = ObjectType({})
EMPTY_ARRAY = ArrayType(())


# -- hash-consing -------------------------------------------------------------

_INTERN_ENABLED = True
_INTERN_TABLE: Dict[JsonType, JsonType] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0


def set_interning(enabled: bool) -> bool:
    """Enable/disable hash-consing of complex types; returns the old
    setting.  Disabling does not clear the table, so re-enabling keeps
    previously interned nodes."""
    global _INTERN_ENABLED
    previous = _INTERN_ENABLED
    _INTERN_ENABLED = bool(enabled)
    return previous


def interning_enabled() -> bool:
    return _INTERN_ENABLED


def clear_intern_table() -> None:
    """Drop every interned node (frees memory between corpora)."""
    _INTERN_TABLE.clear()


def intern_stats() -> Dict[str, int]:
    """``hits`` / ``misses`` / ``size`` of the intern table."""
    return {
        "hits": _INTERN_HITS,
        "misses": _INTERN_MISSES,
        "size": len(_INTERN_TABLE),
    }


def reset_intern_stats() -> None:
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN_HITS = 0
    _INTERN_MISSES = 0


def _intern(tau: JsonType) -> JsonType:
    """Return the canonical instance structurally equal to ``tau``."""
    global _INTERN_HITS, _INTERN_MISSES
    cached = _INTERN_TABLE.get(tau)
    if cached is not None:
        _INTERN_HITS += 1
        return cached
    _INTERN_MISSES += 1
    _INTERN_TABLE[tau] = tau
    return tau


def intern_type(tau: JsonType) -> JsonType:
    """Recursively hash-cons a type: equal types become identical.

    Primitives are already singletons; complex nodes are rebuilt
    bottom-up over interned children, so interned trees share all
    repeated substructure.  A no-op when interning is disabled.
    """
    if not _INTERN_ENABLED or isinstance(tau, PrimitiveType):
        return tau
    cached = _INTERN_TABLE.get(tau)
    if cached is not None:
        global _INTERN_HITS
        _INTERN_HITS += 1
        return cached
    if isinstance(tau, ArrayType):
        rebuilt = ArrayType(
            tuple(intern_type(item) for item in tau.elements)
        )
    elif isinstance(tau, ObjectType):
        rebuilt = ObjectType(
            {key: intern_type(value) for key, value in tau.fields}
        )
    else:
        raise InvalidJsonValueError(f"not a JSON type: {tau!r}")
    return _intern(rebuilt)


def type_of(value: JsonValue, *, max_depth: int = MAX_DEPTH) -> JsonType:
    """Extract the :class:`JsonType` of a parsed JSON value.

    ``value`` must be a value in the JSON data model as produced by
    ``json.loads``: ``None``, ``bool``, ``int``/``float``, ``str``,
    ``list``, or ``dict`` with string keys.

    With interning enabled (the default), ``type_of(v1) is
    type_of(v2)`` whenever the extracted types are equal.

    Raises :class:`~repro.errors.InvalidJsonValueError` for anything
    else and :class:`~repro.errors.RecursionDepthError` when nesting
    exceeds ``max_depth``.
    """
    if max_depth <= 0:
        raise RecursionDepthError("value exceeds maximum nesting depth")
    if value is None:
        return NULL
    # bool must be tested before int: ``isinstance(True, int)`` holds.
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, str):
        return STRING
    if isinstance(value, list):
        built = ArrayType(
            tuple(type_of(item, max_depth=max_depth - 1) for item in value)
        )
        return _intern(built) if _INTERN_ENABLED else built
    if isinstance(value, dict):
        built = ObjectType(
            {
                key: type_of(item, max_depth=max_depth - 1)
                for key, item in value.items()
            }
        )
        return _intern(built) if _INTERN_ENABLED else built
    raise InvalidJsonValueError(
        f"not a JSON value: {value!r} (type {type(value).__name__})"
    )


def kind_of(value: JsonValue) -> Kind:
    """The :class:`Kind` of a parsed JSON value, without building a type."""
    if value is None:
        return Kind.NULL
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if isinstance(value, (int, float)):
        return Kind.NUMBER
    if isinstance(value, str):
        return Kind.STRING
    if isinstance(value, list):
        return Kind.ARRAY
    if isinstance(value, dict):
        return Kind.OBJECT
    raise InvalidJsonValueError(
        f"not a JSON value: {value!r} (type {type(value).__name__})"
    )
