"""Feature-vector preprocessing for entity discovery (Section 6.4).

Entity discovery (Bimax + GreedyMerge) makes multiple passes over the
key-sets at every tuple-typed path, so a preprocessing step compacts
each record into a *feature vector* — the set of paths appearing in it.
Two storage strategies are offered, as in the paper:

* **sparse** — a frozenset of path identifiers per distinct vector
  (cheap when schemas are wide but records are sparse);
* **dense** — a bit-matrix over the path vocabulary (cheap when most
  fields are mandatory).

The *nested-collection pruning* optimisation keeps only paths contained
in the outer collection but not inside any nested collection: a nested
collection's internal keys (e.g. 2 397 drug names) would otherwise
explode the number of distinct feature vectors.  Figure 5's memory
comparison is reproduced by :func:`feature_memory_profile`.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import ArrayType, JsonType, ObjectType
from repro.records import Record

#: A feature vector: the set of (generalized) paths present in a record.
FeatureVector = FrozenSet[Path]


def type_paths(
    tau: JsonType,
    *,
    collection_paths: FrozenSet[Path] = frozenset(),
    prune_nested: bool = True,
) -> FeatureVector:
    """The feature vector of one record type.

    Every path with a complex or primitive node is a feature.  Steps
    beneath a path listed in ``collection_paths`` are either pruned
    (``prune_nested=True``, the paper's optimisation — the collection
    path itself remains a feature) or generalized to the ``*`` wildcard
    step so instances share features.
    """
    features: set = set()

    def walk(node: JsonType, path: Path) -> None:
        if path != ROOT:
            features.add(path)
        if path in collection_paths:
            if prune_nested:
                return
            if isinstance(node, ObjectType):
                for _, child in node.items():
                    walk(child, path + (STAR,))
            elif isinstance(node, ArrayType):
                for child in node.elements:
                    walk(child, path + (STAR,))
            return
        if isinstance(node, ObjectType):
            for key, child in node.items():
                walk(child, path + (key,))
        elif isinstance(node, ArrayType):
            for index, child in enumerate(node.elements):
                walk(child, path + (index,))

    walk(tau, ROOT)
    return frozenset(features)


def top_level_key_set(tau: ObjectType) -> FrozenSet[str]:
    """The paper's §6 problem-statement features: the record's keys."""
    return tau.key_set()


class FeatureVectorSet(Record):
    """A compacted bag of feature vectors with multiplicities."""

    __slots__ = ("counts", "_vocabulary")

    def __init__(self, counts: Counter) -> None:
        self.counts = counts
        self._vocabulary: Optional[Tuple[Path, ...]] = None

    @classmethod
    def from_vectors(cls, vectors: Iterable[FeatureVector]) -> "FeatureVectorSet":
        return cls(Counter(vectors))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def vocabulary(self) -> Tuple[Path, ...]:
        """The ``repr``-sorted union of all feature paths.

        Computed once and cached: both memory estimates and the dense
        encoding consult it, and a memory profile alone would otherwise
        rebuild it twice per estimate.  Call :meth:`invalidate` after
        mutating ``counts`` in place.
        """
        if self._vocabulary is None:
            paths: set = set()
            for vector in self.counts:
                paths |= vector
            self._vocabulary = tuple(sorted(paths, key=repr))
        return self._vocabulary

    def invalidate(self) -> None:
        """Drop the cached vocabulary after an in-place mutation."""
        self._vocabulary = None

    def sparse_memory_bytes(self) -> int:
        """Estimated bytes for the sparse (set-per-vector) encoding.

        Counts each distinct vector's set object plus one pointer per
        entry; the path vocabulary itself is shared and counted once.
        """
        vocab = self.vocabulary()
        vocab_bytes = sum(_path_bytes(path) for path in vocab)
        vector_bytes = 0
        for vector in self.counts:
            vector_bytes += sys.getsizeof(frozenset()) + 8 * len(vector)
        return vocab_bytes + vector_bytes

    def dense_memory_bytes(self) -> int:
        """Estimated bytes for the dense bit-matrix encoding."""
        vocab = self.vocabulary()
        vocab_bytes = sum(_path_bytes(path) for path in vocab)
        width = max(1, (len(vocab) + 7) // 8)
        return vocab_bytes + self.distinct * width

    def dense_matrix(self):
        """Materialize the dense encoding as ``numpy`` booleans."""
        import numpy as np

        vocab = self.vocabulary()
        index: Dict[Path, int] = {path: i for i, path in enumerate(vocab)}
        matrix = np.zeros((self.distinct, len(vocab)), dtype=bool)
        ordering = list(self.counts)
        for row, vector in enumerate(ordering):
            for path in vector:
                matrix[row, index[path]] = True
        return matrix, vocab, ordering


def _path_bytes(path: Path) -> int:
    total = sys.getsizeof(())
    for step in path:
        total += sys.getsizeof(step) if not isinstance(step, int) else 28
    return total


def extract_feature_vectors(
    types: Sequence[JsonType],
    *,
    collection_paths: FrozenSet[Path] = frozenset(),
    prune_nested: bool = True,
) -> FeatureVectorSet:
    """Compact a bag of record types into a feature-vector set."""
    vectors = (
        type_paths(
            tau,
            collection_paths=collection_paths,
            prune_nested=prune_nested,
        )
        for tau in types
    )
    return FeatureVectorSet.from_vectors(vectors)


class FeatureMemoryProfile(Record):
    """Figure 5's comparison for one dataset."""

    __slots__ = (
        "sparse_bytes", "dense_bytes", "pruned_sparse_bytes",
        "pruned_dense_bytes", "distinct_vectors", "pruned_distinct_vectors",
    )

    def __init__(
        self,
        sparse_bytes: int,
        dense_bytes: int,
        pruned_sparse_bytes: int,
        pruned_dense_bytes: int,
        distinct_vectors: int,
        pruned_distinct_vectors: int,
    ) -> None:
        self._init(
            sparse_bytes, dense_bytes, pruned_sparse_bytes,
            pruned_dense_bytes, distinct_vectors, pruned_distinct_vectors,
        )

    def rows(self) -> List[Tuple[str, int]]:
        return [
            ("sparse", self.sparse_bytes),
            ("dense", self.dense_bytes),
            ("sparse+pruning", self.pruned_sparse_bytes),
            ("dense+pruning", self.pruned_dense_bytes),
        ]


def feature_memory_profile(
    types: Sequence[JsonType],
    collection_paths: FrozenSet[Path],
) -> FeatureMemoryProfile:
    """Measure all four encodings on one bag of record types.

    The unpruned variant uses raw record paths — what a preprocessor
    unaware of collections would store; the pruned variant drops paths
    beneath the detected collections (§6.4's optimisation).
    """
    unpruned = extract_feature_vectors(
        types, collection_paths=frozenset(), prune_nested=False
    )
    pruned = extract_feature_vectors(
        types, collection_paths=collection_paths, prune_nested=True
    )
    return FeatureMemoryProfile(
        sparse_bytes=unpruned.sparse_memory_bytes(),
        dense_bytes=unpruned.dense_memory_bytes(),
        pruned_sparse_bytes=pruned.sparse_memory_bytes(),
        pruned_dense_bytes=pruned.dense_memory_bytes(),
        distinct_vectors=unpruned.distinct,
        pruned_distinct_vectors=pruned.distinct,
    )
