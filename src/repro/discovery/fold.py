"""Pass ③ as an associative fold (Section 4.2).

The paper's central systems observation: what makes the simplified
Algorithm 4 non-distributable is only that its two heuristics need
global statistics.  Once pass ① has fixed the collection/tuple
designation of every path and pass ② has fixed a deterministic entity
partitioner for every tuple path, the remaining merge *is* an
associative fold — just like K-reduction — and can run as a fan-in
aggregation over a partitioned dataset.

:class:`DecidedFolder` implements that fold:

* :meth:`~DecidedFolder.lift` turns one record type into a
  :class:`FoldNode` (the fold's element type);
* :meth:`~DecidedFolder.combine` merges two fold nodes (associative
  and commutative — property-tested);
* :meth:`~DecidedFolder.schema` converts the final node to a
  :class:`~repro.schema.Schema`.

The result is identical to running the recursive merger with the same
precomputed decisions, which the test suite verifies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.discovery.config import JxplainConfig
from repro.discovery.stat_tree import CollectionDecisions
from repro.entities.partitioner import EntityPartitioner
from repro.errors import RecursionDepthError
from repro.heuristics.collection import Designation
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import ArrayType, JsonType, ObjectType, PrimitiveType
from repro.records import Record
from repro.schema.nodes import (
    ArrayCollection,
    ArrayTuple,
    NEVER,
    ObjectCollection,
    ObjectTuple,
    PRIMITIVE_SCHEMAS,
    Schema,
    union,
)


class ObjectEntityAcc(Record):
    """Accumulated state of one object entity (ObjectTuple-to-be)."""

    __slots__ = ("required", "fields")

    def __init__(
        self, required: Set[str], fields: Optional[Dict[str, FoldNode]] = None
    ) -> None:
        self.required = required
        self.fields = {} if fields is None else fields


class ObjectCollAcc(Record):
    """Accumulated state of an object collection."""

    __slots__ = ("value", "domain")

    def __init__(
        self, value: Optional[FoldNode] = None, domain: Optional[Set[str]] = None
    ) -> None:
        self.value = value
        self.domain = set() if domain is None else domain


class ArrayEntityAcc(Record):
    """Accumulated state of one array entity (ArrayTuple-to-be)."""

    __slots__ = ("min_length", "positions")

    def __init__(
        self, min_length: int, positions: Optional[List[FoldNode]] = None
    ) -> None:
        self.min_length = min_length
        self.positions = [] if positions is None else positions


class ArrayCollAcc(Record):
    """Accumulated state of an array collection."""

    __slots__ = ("element", "max_length")

    def __init__(
        self, element: Optional[FoldNode] = None, max_length: int = 0
    ) -> None:
        self.element = element
        self.max_length = max_length


class FoldNode(Record):
    """The fold's element/accumulator type for one path."""

    __slots__ = (
        "primitive_kinds", "object_entities", "object_collection",
        "array_entities", "array_collection",
    )

    def __init__(
        self,
        primitive_kinds: Optional[Set[Kind]] = None,
        object_entities: Optional[Dict[int, ObjectEntityAcc]] = None,
        object_collection: Optional[ObjectCollAcc] = None,
        array_entities: Optional[Dict[int, ArrayEntityAcc]] = None,
        array_collection: Optional[ArrayCollAcc] = None,
    ) -> None:
        self.primitive_kinds = (
            set() if primitive_kinds is None else primitive_kinds
        )
        self.object_entities = (
            {} if object_entities is None else object_entities
        )
        self.object_collection = object_collection
        self.array_entities = {} if array_entities is None else array_entities
        self.array_collection = array_collection


class DecidedFolder:
    """The associative pass-③ merge, given passes ① and ②'s outputs."""

    def __init__(
        self,
        decisions: CollectionDecisions,
        object_partitioners: Dict[Path, EntityPartitioner],
        array_partitioners: Dict[Path, EntityPartitioner],
        config: Optional[JxplainConfig] = None,
        extractor=None,
    ):
        self.decisions = decisions
        self.object_partitioners = object_partitioners
        self.array_partitioners = array_partitioners
        self.config = config or JxplainConfig()
        if extractor is None:
            from repro.discovery.pipeline import FeatureExtractor

            extractor = FeatureExtractor(decisions, self.config)
        self.extractor = extractor

    # -- lift -----------------------------------------------------------------

    def lift(self, tau: JsonType, path: Path = ROOT) -> FoldNode:
        """Turn one record type into a single-record fold node.

        A record (lifted at the root) is checked against
        ``config.max_depth`` with the recursive merger's bound: a leaf
        nested ``d`` levels below the root is merged at depth ``d``, so
        a record of type depth ``max_depth + 2`` is refused.
        """
        if not path and tau.depth() > self.config.max_depth + 1:
            raise RecursionDepthError(
                f"merge exceeded max_depth={self.config.max_depth}"
            )
        node = FoldNode()
        self._lift_into(node, tau, path)
        return node

    def _lift_into(self, node: FoldNode, tau: JsonType, path: Path) -> None:
        if isinstance(tau, PrimitiveType):
            node.primitive_kinds.add(tau.kind)
            return
        if isinstance(tau, ObjectType):
            if self._is_collection(path, Kind.OBJECT):
                acc = ObjectCollAcc()
                for key, value in tau.items():
                    acc.domain.add(key)
                    child = self.lift(value, path + (STAR,))
                    acc.value = (
                        child
                        if acc.value is None
                        else self.combine(acc.value, child)
                    )
                node.object_collection = acc
                return
            entity = self._assign_object(tau, path)
            acc = ObjectEntityAcc(required=set(tau.keys()))
            for key, value in tau.items():
                acc.fields[key] = self.lift(value, path + (key,))
            node.object_entities[entity] = acc
            return
        if isinstance(tau, ArrayType):
            if self._is_collection(path, Kind.ARRAY):
                acc = ArrayCollAcc(max_length=len(tau))
                for value in tau.elements:
                    child = self.lift(value, path + (STAR,))
                    acc.element = (
                        child
                        if acc.element is None
                        else self.combine(acc.element, child)
                    )
                node.array_collection = acc
                return
            entity = self._assign_array(tau, path)
            acc = ArrayEntityAcc(min_length=len(tau))
            for position, value in enumerate(tau.elements):
                acc.positions.append(self.lift(value, path + (position,)))
            node.array_entities[entity] = acc
            return
        raise TypeError(f"not a JSON type: {tau!r}")

    def _is_collection(self, path: Path, kind: Kind) -> bool:
        designation = self.decisions.get((path, kind))
        if designation is None:
            # A path unseen during pass ①: fall back to the
            # data-independent defaults (tuple objects, collection
            # arrays), which is also what a missing decision means to
            # the K-reduce-configured pipeline.
            return kind == Kind.ARRAY
        return designation is Designation.COLLECTION

    def _assign_object(self, tau: ObjectType, path: Path) -> int:
        partitioner = self.object_partitioners.get(path)
        if partitioner is None:
            return 0
        return partitioner.assign(self.extractor.features(tau, path))

    def _assign_array(self, tau: ArrayType, path: Path) -> int:
        partitioner = self.array_partitioners.get(path)
        if partitioner is None:
            return 0
        return partitioner.assign(
            frozenset(str(i) for i in range(len(tau)))
        )

    # -- combine ----------------------------------------------------------------

    def combine(self, left: FoldNode, right: FoldNode) -> FoldNode:
        """Merge two fold nodes (associative, commutative)."""
        out = FoldNode()
        out.primitive_kinds = left.primitive_kinds | right.primitive_kinds
        out.object_entities = self._combine_object_entities(
            left.object_entities, right.object_entities
        )
        out.object_collection = self._combine_object_colls(
            left.object_collection, right.object_collection
        )
        out.array_entities = self._combine_array_entities(
            left.array_entities, right.array_entities
        )
        out.array_collection = self._combine_array_colls(
            left.array_collection, right.array_collection
        )
        return out

    def _combine_object_entities(
        self,
        left: Dict[int, ObjectEntityAcc],
        right: Dict[int, ObjectEntityAcc],
    ) -> Dict[int, ObjectEntityAcc]:
        out: Dict[int, ObjectEntityAcc] = {}
        for entity in set(left) | set(right):
            first = left.get(entity)
            second = right.get(entity)
            if first is None:
                out[entity] = second
                continue
            if second is None:
                out[entity] = first
                continue
            merged = ObjectEntityAcc(
                required=first.required & second.required
            )
            for key in set(first.fields) | set(second.fields):
                mine = first.fields.get(key)
                theirs = second.fields.get(key)
                if mine is None:
                    merged.fields[key] = theirs
                elif theirs is None:
                    merged.fields[key] = mine
                else:
                    merged.fields[key] = self.combine(mine, theirs)
            out[entity] = merged
        return out

    def _combine_object_colls(
        self,
        left: Optional[ObjectCollAcc],
        right: Optional[ObjectCollAcc],
    ) -> Optional[ObjectCollAcc]:
        if left is None:
            return right
        if right is None:
            return left
        merged = ObjectCollAcc(domain=left.domain | right.domain)
        if left.value is None:
            merged.value = right.value
        elif right.value is None:
            merged.value = left.value
        else:
            merged.value = self.combine(left.value, right.value)
        return merged

    def _combine_array_entities(
        self,
        left: Dict[int, ArrayEntityAcc],
        right: Dict[int, ArrayEntityAcc],
    ) -> Dict[int, ArrayEntityAcc]:
        out: Dict[int, ArrayEntityAcc] = {}
        for entity in set(left) | set(right):
            first = left.get(entity)
            second = right.get(entity)
            if first is None:
                out[entity] = second
                continue
            if second is None:
                out[entity] = first
                continue
            merged = ArrayEntityAcc(
                min_length=min(first.min_length, second.min_length)
            )
            longer, shorter = (
                (first.positions, second.positions)
                if len(first.positions) >= len(second.positions)
                else (second.positions, first.positions)
            )
            for index, node in enumerate(longer):
                if index < len(shorter):
                    merged.positions.append(
                        self.combine(node, shorter[index])
                    )
                else:
                    merged.positions.append(node)
            out[entity] = merged
        return out

    def _combine_array_colls(
        self,
        left: Optional[ArrayCollAcc],
        right: Optional[ArrayCollAcc],
    ) -> Optional[ArrayCollAcc]:
        if left is None:
            return right
        if right is None:
            return left
        merged = ArrayCollAcc(
            max_length=max(left.max_length, right.max_length)
        )
        if left.element is None:
            merged.element = right.element
        elif right.element is None:
            merged.element = left.element
        else:
            merged.element = self.combine(left.element, right.element)
        return merged

    # -- schema extraction ---------------------------------------------------------

    def schema(self, node: Optional[FoldNode]) -> Schema:
        """Convert the final fold node into a schema."""
        if node is None:
            return NEVER
        branches: List[Schema] = [
            PRIMITIVE_SCHEMAS[kind]
            for kind in sorted(node.primitive_kinds, key=lambda k: k.value)
        ]
        for entity in sorted(node.array_entities):
            acc = node.array_entities[entity]
            elements = [self.schema(child) for child in acc.positions]
            branches.append(ArrayTuple(elements, acc.min_length))
        if node.array_collection is not None:
            acc = node.array_collection
            branches.append(
                ArrayCollection(
                    self.schema(acc.element), max_length_seen=acc.max_length
                )
            )
        for entity in sorted(node.object_entities):
            acc = node.object_entities[entity]
            required = {
                key: self.schema(child)
                for key, child in acc.fields.items()
                if key in acc.required
            }
            optional = {
                key: self.schema(child)
                for key, child in acc.fields.items()
                if key not in acc.required
            }
            branches.append(ObjectTuple(required, optional))
        if node.object_collection is not None:
            acc = node.object_collection
            branches.append(
                ObjectCollection(self.schema(acc.value), acc.domain)
            )
        return union(*branches)
