"""JXPLAIN's merge algorithm (Section 4.1, Algorithm 4).

At every complex-kinded path, two data-dependent decisions replace the
data-independent assumptions of K-reduction:

1. **Collection or tuple?** — decided by the entropy + similarity
   heuristic of Section 5 (Algorithm 5), for arrays *and* objects.
2. **How many entities?** — tuple-like bags are partitioned by the
   Bimax machinery of Section 6 and each entity is merged separately.

This module is the *reference* recursive implementation: it sees the
whole bag at each path, exactly as the simplified Algorithm 4 does.
Bags are threaded through the recursion as
:class:`~repro.jsontypes.bag.TypeBag`\\ s: with counted bags (the
default) every level operates on *distinct* types with multiplicities
— the heuristics consume weighted statistics that are exactly equal to
the duplicate-by-duplicate ones — so merge cost tracks distinct
structure rather than corpus size.  ``set_counted_merge(False)``
restores the seed's duplicate-preserving lists, which the equivalence
tests use to verify the two representations produce identical schemas.
The staged three-pass variant that decouples the heuristics for
distribution (Figure 3) lives in :mod:`repro.discovery.pipeline`; it
subclasses :class:`JxplainMerger` and overrides the two heuristic
hooks with precomputed per-path answers.

Paths threaded through the recursion are *data paths*: object keys and
array positions, with the :data:`~repro.jsontypes.paths.STAR` wildcard
for steps beneath a detected collection.  Entity partitioning does not
add a path step — all entities at a path share it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union as TUnion

from repro.discovery.base import Discoverer, register_discoverer
from repro.discovery.config import (
    EntityStrategy,
    FeatureMode,
    JxplainConfig,
    bimax_naive_config,
)
from repro.discovery import stat_tree
from repro.engine.instrument import counters
from repro.jsontypes.bag import TypeBag, as_bag
from repro.entities.bimax import (
    EntityCluster,
    bimax_naive,
    distinct_key_sets,
)
from repro.entities.greedy_merge import merge_to_fixpoint, greedy_merge
from repro.entities.features import type_paths
from repro.entities.partitioner import EntityPartitioner
from repro.errors import EmptyInputError, RecursionDepthError
from repro.heuristics.collection import (
    CollectionEvidence,
    Designation,
    decide_designation,
)
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import ArrayType, JsonType, ObjectType, PrimitiveType
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


def cluster_key_sets(
    key_sets: Sequence[frozenset],
    config: JxplainConfig,
    counts: Optional[Sequence[int]] = None,
) -> List[EntityCluster]:
    """Apply the configured entity strategy to a bag of key-sets.

    ``counts`` (aligned with ``key_sets``) carries record
    multiplicities from a counted bag; duplicates accumulate their
    weights during dedup and the resulting clusters expose them as
    ``member_counts``, so downstream weighting (partitioner weights,
    weighted k-means seeding) sees record frequencies rather than
    distinct-shape counts.
    """
    distinct, weights = distinct_key_sets(key_sets, counts)
    keep_counts = counts is not None
    strategy = config.entity_strategy
    if strategy is EntityStrategy.SINGLE:
        universe = frozenset().union(*distinct) if distinct else frozenset()
        return [
            EntityCluster(
                maximal=universe,
                members=list(distinct),
                member_counts=list(weights) if keep_counts else None,
            )
        ]
    if strategy is EntityStrategy.EXACT:
        return [
            EntityCluster(
                maximal=key_set,
                members=[key_set],
                member_counts=[weight] if keep_counts else None,
            )
            for key_set, weight in zip(distinct, weights)
        ]
    naive = bimax_naive(distinct, counts=weights if keep_counts else None)
    if strategy is EntityStrategy.BIMAX_NAIVE:
        return naive
    if strategy is EntityStrategy.BIMAX_MERGE:
        return merge_to_fixpoint(greedy_merge(naive))
    if strategy is EntityStrategy.KMEANS:
        from repro.entities.kmeans import kmeans_clusters

        k = config.kmeans_k if config.kmeans_k is not None else len(naive)
        k = min(k, len(distinct))
        kmeans_weights = (
            weights if (keep_counts and config.kmeans_weighted) else None
        )
        groups = kmeans_clusters(
            distinct, k, seed=config.kmeans_seed, weights=kmeans_weights
        )
        weight_of = dict(zip(distinct, weights))
        clusters = []
        for group in groups:
            if not group:
                continue
            clusters.append(
                EntityCluster(
                    maximal=frozenset().union(*group),
                    members=list(group),
                    member_counts=(
                        [weight_of[member] for member in group]
                        if keep_counts
                        else None
                    ),
                )
            )
        return clusters
    raise ValueError(f"unknown entity strategy {strategy!r}")


class JxplainMerger:
    """Stateful recursive merger implementing Algorithm 4.

    The :meth:`is_collection` and :meth:`partition_objects` /
    :meth:`partition_arrays` hooks may be overridden (the staged
    pipeline precomputes their answers per path); the defaults compute
    them from the local bag, exactly as the simplified algorithm does.
    """

    def __init__(self, config: Optional[JxplainConfig] = None):
        self.config = config or JxplainConfig()
        self.config.validate()

    # -- heuristic hooks ---------------------------------------------------

    def is_collection(
        self, kind: Kind, evidence: CollectionEvidence, path: Path
    ) -> bool:
        """Algorithm 5 on locally gathered evidence."""
        if kind == Kind.OBJECT and not self.config.detect_object_collections:
            return False
        if kind == Kind.ARRAY and not self.config.detect_array_tuples:
            return True
        designation = decide_designation(
            evidence, self.config.entropy_threshold
        )
        return designation is Designation.COLLECTION

    def object_features(
        self,
        objects: Sequence[ObjectType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[frozenset]:
        """The feature vector of each object, per the configured mode.

        ``PATHS`` mode (the paper's §6.4 implementation) runs a local
        mini pass ① over the bag to find nested collections, then
        prunes feature paths beneath them; ``KEYS`` mode uses the
        top-level key set.  ``counts`` carries the multiplicity of each
        object when the caller has deduplicated the bag, so the mini
        pass sees the same weighted statistics either way.
        """
        if self.config.feature_mode is FeatureMode.KEYS:
            return [tau.key_set() for tau in objects]
        # Through the module, so a patched ``decide_collections`` is
        # the one that runs.
        tree = stat_tree.StatTree.from_types(
            objects,
            similarity_depth=self.config.similarity_depth,
            counts=counts,
        )
        local_decisions = stat_tree.decide_collections(tree, self.config)
        nested_collections = stat_tree.collection_paths(local_decisions)
        return [
            type_paths(
                tau,
                collection_paths=nested_collections,
                prune_nested=True,
            )
            for tau in objects
        ]

    def partition_objects(
        self,
        objects: Sequence[ObjectType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ObjectType]]:
        """Split tuple-like objects into entities via feature clusters."""
        features = self.object_features(objects, path, counts=counts)
        clusters = cluster_key_sets(features, self.config, counts=counts)
        partitioner = EntityPartitioner(clusters)
        return partitioner.non_empty_groups(list(objects), features)

    def partition_arrays(
        self,
        arrays: Sequence[ArrayType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ArrayType]]:
        """Split tuple-like arrays into entities via position-sets."""
        key_sets = [
            frozenset(str(i) for i in range(len(tau))) for tau in arrays
        ]
        clusters = cluster_key_sets(key_sets, self.config, counts=counts)
        partitioner = EntityPartitioner(clusters)
        return partitioner.non_empty_groups(list(arrays), key_sets)

    # -- the merge itself ---------------------------------------------------

    def merge(self, types: TUnion[TypeBag, Iterable[JsonType]]) -> Schema:
        bag = as_bag(types)
        if not bag:
            raise EmptyInputError("jxplain: no input types")
        counters.add("jxplain.merge_total_types", bag.total)
        counters.add("jxplain.merge_distinct_types", bag.distinct_count)
        return self._merge_at(bag, path=ROOT, depth=0)

    def _merge_at(
        self,
        types: TUnion[TypeBag, Iterable[JsonType]],
        path: Path,
        depth: int,
    ) -> Schema:
        bag = as_bag(types)
        if depth > self.config.max_depth:
            raise RecursionDepthError(
                f"merge exceeded max_depth={self.config.max_depth} at {path}"
            )
        primitive_kinds: List[Kind] = []
        kinds_seen: set = set()
        arrays = bag.spawn()
        objects = bag.spawn()
        for tau, count in bag.items():
            if isinstance(tau, PrimitiveType):
                if tau.kind not in kinds_seen:
                    kinds_seen.add(tau.kind)
                    primitive_kinds.append(tau.kind)
            elif isinstance(tau, ArrayType):
                arrays.add(tau, count)
            else:
                objects.add(tau, count)
        branches: List[Schema] = [
            PRIMITIVE_SCHEMAS[kind] for kind in primitive_kinds
        ]
        if arrays:
            branches.append(self._merge_arrays(arrays, path, depth))
        if objects:
            branches.append(self._merge_objects(objects, path, depth))
        return union(*branches)

    def _merge_arrays(
        self, arrays: TypeBag, path: Path, depth: int
    ) -> Schema:
        evidence = CollectionEvidence.with_depth(
            Kind.ARRAY, self.config.similarity_depth
        )
        for tau, count in arrays.items():
            evidence.add(tau, count)
        if self.is_collection(Kind.ARRAY, evidence, path):
            return self._merge_array_collection(arrays, path, depth)
        groups = self.partition_arrays(
            arrays.distinct(), path, counts=arrays.counts()
        )
        return union(*(
            self._merge_array_entity(arrays.subset(group), path, depth)
            for group in groups
        ))

    def _merge_array_collection(
        self, arrays: TypeBag, path: Path, depth: int
    ) -> Schema:
        """Algorithm 2: a single-entity collection of the elements."""
        values = arrays.spawn()
        max_length = 0
        for tau, count in arrays.items():
            for value in tau.elements:
                values.add(value, count)
            if len(tau) > max_length:
                max_length = len(tau)
        nested = (
            self._merge_at(values, path + (STAR,), depth + 1)
            if values
            else NEVER
        )
        return ArrayCollection(nested, max_length_seen=max_length)

    def _merge_array_entity(
        self, arrays: TypeBag, path: Path, depth: int
    ) -> Schema:
        """One array entity: a tuple with an optional suffix."""
        lengths = [len(tau) for tau, _ in arrays.items()]
        min_length = min(lengths)
        max_length = max(lengths)
        elements: List[Schema] = []
        for position in range(max_length):
            values = arrays.spawn()
            for tau, count in arrays.items():
                if len(tau) > position:
                    values.add(tau.elements[position], count)
            elements.append(
                self._merge_at(values, path + (position,), depth + 1)
            )
        return ArrayTuple(elements, min_length)

    def _merge_objects(
        self, objects: TypeBag, path: Path, depth: int
    ) -> Schema:
        evidence = CollectionEvidence.with_depth(
            Kind.OBJECT, self.config.similarity_depth
        )
        for tau, count in objects.items():
            evidence.add(tau, count)
        if self.is_collection(Kind.OBJECT, evidence, path):
            return self._merge_object_collection(objects, path, depth)
        groups = self.partition_objects(
            objects.distinct(), path, counts=objects.counts()
        )
        return union(*(
            self._merge_object_entity(objects.subset(group), path, depth)
            for group in groups
        ))

    def _merge_object_collection(
        self, objects: TypeBag, path: Path, depth: int
    ) -> Schema:
        """Collection-like objects: one joint nested schema."""
        values = objects.spawn()
        domain: set = set()
        for tau, count in objects.items():
            for key, value in tau.items():
                domain.add(key)
                values.add(value, count)
        nested = (
            self._merge_at(values, path + (STAR,), depth + 1)
            if values
            else NEVER
        )
        return ObjectCollection(nested, domain)

    def _merge_object_entity(
        self, objects: TypeBag, path: Path, depth: int
    ) -> Schema:
        """Algorithm 3 for one entity: required ∩, optional ∪ − ∩."""
        universal: Optional[set] = None
        groups: dict = {}
        for tau, count in objects.items():
            keys = set(tau.keys())
            universal = keys if universal is None else universal & keys
            for key, value in tau.items():
                group = groups.get(key)
                if group is None:
                    group = groups[key] = objects.spawn()
                group.add(value, count)
        required = {
            key: self._merge_at(values, path + (key,), depth + 1)
            for key, values in groups.items()
            if key in universal
        }
        optional = {
            key: self._merge_at(values, path + (key,), depth + 1)
            for key, values in groups.items()
            if key not in universal
        }
        return ObjectTuple(required, optional)


def jxplain_merge(
    types: Iterable[JsonType], config: Optional[JxplainConfig] = None
) -> Schema:
    """Algorithm 4: JXPLAIN's merge with the given configuration."""
    return JxplainMerger(config).merge(types)


class Jxplain(Discoverer):
    """JXPLAIN as a :class:`Discoverer` (default: Bimax-Merge)."""

    name = "bimax-merge"

    def __init__(self, config: Optional[JxplainConfig] = None):
        self.config = config or JxplainConfig()

    def merge_types(self, types: Iterable[JsonType]) -> Schema:
        return jxplain_merge(types, self.config)


class JxplainNaive(Jxplain):
    """JXPLAIN with Bimax-Naive entity clustering (no GreedyMerge).

    ``config`` may leave the entity strategy at its default or name
    Bimax-Naive; any other strategy raises :class:`ValueError`.
    """

    name = "bimax-naive"

    def __init__(self, config: Optional[JxplainConfig] = None):
        super().__init__(bimax_naive_config(config))


register_discoverer(Jxplain.name, Jxplain)
register_discoverer(JxplainNaive.name, JxplainNaive)
