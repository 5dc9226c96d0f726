"""The common interface of every schema-discovery algorithm.

A :class:`Discoverer` maps a collection of JSON values (or of their
types) to a :class:`~repro.schema.Schema`.  All four algorithms
compared in the paper — L-reduce, K-reduce, Bimax-Naive, Bimax-Merge —
implement this interface, which is what lets the benchmark harness
sweep them uniformly.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List

from repro.errors import EmptyInputError
from repro.jsontypes.types import JsonType, JsonValue, type_of
from repro.schema.nodes import Schema


class Discoverer:
    """Base class for schema-discovery algorithms."""

    #: Short name used in benchmark tables.
    name: str = "discoverer"

    def merge_types(self, types: Iterable[JsonType]) -> Schema:
        """Merge a bag of record types into a schema."""
        raise NotImplementedError

    def discover(self, values: Iterable[JsonValue]) -> Schema:
        """Extract a schema from parsed JSON records."""
        types = [type_of(value) for value in values]
        if not types:
            raise EmptyInputError(f"{self.name}: no input records")
        return self.merge_types(types)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionDiscoverer(Discoverer):
    """Wrap a plain merge function as a :class:`Discoverer`."""

    def __init__(
        self, name: str, merge: Callable[[List[JsonType]], Schema]
    ):
        self.name = name
        self._merge = merge

    def merge_types(self, types: Iterable[JsonType]) -> Schema:
        materialized = list(types)
        if not materialized:
            raise EmptyInputError(f"{self.name}: no input types")
        return self._merge(materialized)


_REGISTRY: Dict[str, Callable[[], Discoverer]] = {}

#: The modules whose import registers the built-in discoverers.  The
#: package loads them on first use, so the registry imports them
#: before every lookup.
_BUILTIN_MODULES = (
    "repro.discovery.jxplain",
    "repro.discovery.kreduce",
    "repro.discovery.lreduce",
    "repro.discovery.pipeline",
)


def _registry() -> Dict[str, Callable[[], Discoverer]]:
    for module in _BUILTIN_MODULES:
        import_module(module)
    return _REGISTRY


def register_discoverer(name: str, factory: Callable[[], Discoverer]) -> None:
    """Register a discoverer factory under a CLI-friendly name."""
    _REGISTRY[name] = factory


def make_discoverer(name: str) -> Discoverer:
    """Instantiate a registered discoverer by name."""
    registry = _registry()
    try:
        factory = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown discoverer {name!r}; known: {known}")
    return factory()


def discoverer_names() -> List[str]:
    """All registered discoverer names, sorted."""
    return sorted(_registry())
