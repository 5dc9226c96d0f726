"""Per-path statistics for JXPLAIN's pass ① (Section 4.2, Figure 3).

The simplified Algorithm 4 gathers collection-detection evidence at
every path *during* the recursive merge, which requires the whole bag
of types at each path and defeats distribution.  The staged pipeline
instead accumulates a :class:`StatTree` — one
:class:`~repro.heuristics.collection.CollectionEvidence` per path plus
per-child sub-trees — in a **single pass**.  Stat trees form a
commutative monoid under :meth:`StatTree.merge`, so a partitioned
dataset can build one per partition and fan them in.

Collection decisions are then derived **top-down** by
:func:`decide_collections`: when a path is ruled a collection, the
statistics of all of its children are merged into a single ``*`` child
(evidence merges associatively, which is why this is sound) before
recursing.  The result maps ``(path, kind)`` to a
:class:`~repro.heuristics.collection.Designation`.

The same walk powers the Figure 4 experiment: :func:`entropy_profile`
reports the key-space entropy of every complex-kinded path whose
nested elements pass the similarity constraint.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.discovery.config import JxplainConfig
from repro.heuristics.collection import (
    CollectionEvidence,
    Designation,
    decide_designation,
)
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import ArrayType, JsonType, ObjectType, PrimitiveType
from repro.records import Record

#: A collection decision key: the (generalized) path plus which of the
#: path's complex kinds the decision is about.
DecisionKey = Tuple[Path, Kind]

#: The decisions produced by pass ①.
CollectionDecisions = Dict[DecisionKey, Designation]


class StatTree(Record):
    """Mergeable per-path statistics over a bag of record types.

    ``similarity_depth`` bounds the §5.2 similarity checks accumulated
    in the evidence (None = the paper's literal rule); it must match
    across merged trees.
    """

    __slots__ = (
        "primitive_kinds", "object_evidence", "array_evidence", "children",
        "similarity_depth",
    )

    def __init__(
        self,
        primitive_kinds: Optional[Counter] = None,
        object_evidence: Optional[CollectionEvidence] = None,
        array_evidence: Optional[CollectionEvidence] = None,
        children: Optional[Dict[object, "StatTree"]] = None,
        similarity_depth: Optional[int] = None,
    ) -> None:
        self.primitive_kinds = (
            Counter() if primitive_kinds is None else primitive_kinds
        )
        self.object_evidence = object_evidence
        self.array_evidence = array_evidence
        self.children = {} if children is None else children
        self.similarity_depth = similarity_depth

    def add(self, tau: JsonType, count: int = 1) -> None:
        """Fold one type (and its whole subtree) into the statistics.

        ``count`` folds ``count`` identical instances at once — the
        weighted form used by the counted-bag fast path; equivalent to
        ``count`` sequential ``add`` calls.
        """
        if isinstance(tau, PrimitiveType):
            self.primitive_kinds[tau.kind] += count
            return
        if isinstance(tau, ObjectType):
            if self.object_evidence is None:
                self.object_evidence = CollectionEvidence.with_depth(
                    Kind.OBJECT, self.similarity_depth
                )
            self.object_evidence.add(tau, count)
            for key, value in tau.items():
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = StatTree(
                        similarity_depth=self.similarity_depth
                    )
                child.add(value, count)
            return
        if isinstance(tau, ArrayType):
            if self.array_evidence is None:
                self.array_evidence = CollectionEvidence.with_depth(
                    Kind.ARRAY, self.similarity_depth
                )
            self.array_evidence.add(tau, count)
            for index, value in enumerate(tau.elements):
                child = self.children.get(index)
                if child is None:
                    child = self.children[index] = StatTree(
                        similarity_depth=self.similarity_depth
                    )
                child.add(value, count)
            return
        raise TypeError(f"not a JSON type: {tau!r}")

    def merge(self, other: "StatTree") -> "StatTree":
        """Combine two stat trees (associative, commutative)."""
        merged = StatTree(similarity_depth=self.similarity_depth)
        merged.primitive_kinds = self.primitive_kinds + other.primitive_kinds
        merged.object_evidence = _merge_evidence(
            self.object_evidence, other.object_evidence
        )
        merged.array_evidence = _merge_evidence(
            self.array_evidence, other.array_evidence
        )
        steps = set(self.children) | set(other.children)
        for step in steps:
            mine = self.children.get(step)
            theirs = other.children.get(step)
            if mine is None:
                merged.children[step] = theirs
            elif theirs is None:
                merged.children[step] = mine
            else:
                merged.children[step] = mine.merge(theirs)
        return merged

    @classmethod
    def from_types(
        cls,
        types: Iterable[JsonType],
        similarity_depth: Optional[int] = None,
        counts: Optional[Iterable[int]] = None,
    ) -> "StatTree":
        """Build a tree from types, optionally weighted by ``counts``
        (aligned multiplicities, as produced by a counted bag)."""
        tree = cls(similarity_depth=similarity_depth)
        if counts is None:
            for tau in types:
                tree.add(tau)
        else:
            for tau, count in zip(types, counts):
                tree.add(tau, count)
        return tree

    def _object_children(self) -> Dict[str, "StatTree"]:
        return {
            step: child
            for step, child in self.children.items()
            if isinstance(step, str)
        }

    def _array_children(self) -> Dict[int, "StatTree"]:
        return {
            step: child
            for step, child in self.children.items()
            if isinstance(step, int)
        }


def _merge_evidence(
    first: Optional[CollectionEvidence],
    second: Optional[CollectionEvidence],
) -> Optional[CollectionEvidence]:
    if first is None:
        return second
    if second is None:
        return first
    return first.merge(second)


def _merge_all(trees: List[StatTree]) -> Optional[StatTree]:
    merged: Optional[StatTree] = None
    for tree in trees:
        merged = tree if merged is None else merged.merge(tree)
    return merged


def decide_collections(
    tree: StatTree, config: Optional[JxplainConfig] = None
) -> CollectionDecisions:
    """Pass ①'s output: a Collection/Tuple designation per path.

    Decisions respect the configuration's detection toggles, so a
    pipeline configured like K-reduce designates every object a tuple
    and every array a collection.
    """
    config = config or JxplainConfig()
    decisions: CollectionDecisions = {}
    _decide_at(tree, ROOT, config, decisions)
    return decisions


def _designate(
    evidence: CollectionEvidence, kind: Kind, config: JxplainConfig
) -> Designation:
    if kind == Kind.OBJECT and not config.detect_object_collections:
        return Designation.TUPLE
    if kind == Kind.ARRAY and not config.detect_array_tuples:
        return Designation.COLLECTION
    return decide_designation(evidence, config.entropy_threshold)


def _decide_at(
    node: StatTree,
    path: Path,
    config: JxplainConfig,
    decisions: CollectionDecisions,
) -> None:
    star_children: List[StatTree] = []
    if node.object_evidence is not None:
        designation = _designate(node.object_evidence, Kind.OBJECT, config)
        decisions[(path, Kind.OBJECT)] = designation
        object_children = node._object_children()
        if designation is Designation.COLLECTION:
            star_children.extend(object_children.values())
        else:
            for key, child in object_children.items():
                _decide_at(child, path + (key,), config, decisions)
    if node.array_evidence is not None:
        designation = _designate(node.array_evidence, Kind.ARRAY, config)
        decisions[(path, Kind.ARRAY)] = designation
        array_children = node._array_children()
        if designation is Designation.COLLECTION:
            star_children.extend(array_children.values())
        else:
            for index, child in array_children.items():
                _decide_at(child, path + (index,), config, decisions)
    if star_children:
        merged = _merge_all(star_children)
        _decide_at(merged, path + (STAR,), config, decisions)


def collection_paths(decisions: CollectionDecisions) -> frozenset:
    """The set of paths designated Collection for either kind."""
    return frozenset(
        path
        for (path, _kind), designation in decisions.items()
        if designation is Designation.COLLECTION
    )


class PathEntropy(Record):
    """One point of Figure 4: a complex path and its key-space entropy."""

    __slots__ = (
        "path", "kind", "entropy", "instances", "distinct_keys",
        "elements_similar",
    )

    def __init__(
        self,
        path: Path,
        kind: Kind,
        entropy: float,
        instances: int,
        distinct_keys: int,
        elements_similar: bool,
    ) -> None:
        self._init(
            path, kind, entropy, instances, distinct_keys, elements_similar
        )


def entropy_profile(
    tree: StatTree, *, similar_only: bool = True
) -> List[PathEntropy]:
    """Key-space entropies of every complex path (Figure 4).

    ``similar_only`` keeps only paths whose nested elements pass the
    similarity constraint, matching the figure's caption ("each point
    is one complex-kinded path with self-similar nested elements").
    """
    points: List[PathEntropy] = []

    def walk(node: StatTree, path: Path) -> None:
        for kind, evidence in (
            (Kind.OBJECT, node.object_evidence),
            (Kind.ARRAY, node.array_evidence),
        ):
            if evidence is None:
                continue
            if similar_only and not evidence.elements_similar:
                continue
            points.append(
                PathEntropy(
                    path=path,
                    kind=kind,
                    entropy=evidence.entropy,
                    instances=evidence.record_count,
                    distinct_keys=evidence.distinct_keys,
                    elements_similar=evidence.elements_similar,
                )
            )
        for step, child in node.children.items():
            walk(child, path + (step,))

    walk(tree, ROOT)
    return points
