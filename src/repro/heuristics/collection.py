"""Collection-vs-tuple detection (Section 5, Algorithm 5).

A bag of like-kinded complex types is ruled a **collection** when

1. all nested element types are pairwise *similar* (Section 5.2's
   constraint, checked in one scan via
   :class:`~repro.jsontypes.similarity.SimilarityAccumulator`), and
2. its *key-space entropy* exceeds a threshold.

Key-space entropy for objects is the entropy of key membership:
``E_K = -Σ_k P_k ln P_k`` where ``P_k`` is the fraction of instances
containing key ``k``.  For arrays, the distribution of array lengths
plays the same role.  The paper uses natural logarithms (its worked
example has ``-½ ln ½ ≈ 0.35``) and a threshold of 1, to which the
decision is minimally sensitive because observed entropies are strongly
bimodal (Figure 4).

Algorithm 5 additionally short-circuits to **Tuple** when any single
instance mixes value *kinds* across its fields (its ``E_T > 0`` check);
that is a cheap first-level approximation of the similarity constraint
and is kept as an independent signal here.  ``null`` values are
transparent to the kind check, mirroring null's role in similarity.

Statistics are gathered in a mergeable :class:`CollectionEvidence`
accumulator so that JXPLAIN's pass ① can fold them associatively over
a partitioned dataset.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from typing import Iterable, Mapping, Optional

from repro.jsontypes.kinds import Kind
from repro.jsontypes.similarity import SimilarityAccumulator
from repro.jsontypes.types import ArrayType, JsonType, ObjectType
from repro.records import Record

#: The key-space entropy threshold used throughout the paper's
#: experiments ("Our experiments arbitrarily use a threshold of 1").
DEFAULT_ENTROPY_THRESHOLD = 1.0


class Designation(enum.Enum):
    """The outcome of collection detection for one path."""

    COLLECTION = "collection"
    TUPLE = "tuple"


def shannon_entropy(counts: Iterable[int], total: int) -> float:
    """``-Σ (c/total) ln (c/total)`` over nonzero counts.

    ``total`` need not equal ``sum(counts)``: for key-space entropy the
    probabilities are per-key membership fractions, which do not sum
    to 1.
    """
    if total <= 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count <= 0:
            continue
        probability = count / total
        if probability < 1.0:
            entropy -= probability * math.log(probability)
    return entropy


def key_space_entropy(
    key_counts: Mapping[str, int], record_count: int
) -> float:
    """Key-space entropy ``E_K`` of a bag of objects (Section 5.1)."""
    return shannon_entropy(key_counts.values(), record_count)


def length_entropy(
    length_counts: Mapping[int, int], record_count: int
) -> float:
    """Array-length entropy (Section 5.4).

    Here the counts *do* form a distribution over lengths, so the
    probabilities sum to 1.
    """
    return shannon_entropy(length_counts.values(), record_count)


class CollectionEvidence(Record):
    """Mergeable statistics for one complex-kinded path.

    Accumulates everything the detection decision needs: instance
    count, per-key membership counts (objects), length distribution
    (arrays), a mixed-kind flag (Algorithm 5's ``E_T > 0`` check), and
    a similarity accumulator over nested element types.
    """

    __slots__ = (
        "kind", "record_count", "key_counts", "length_counts",
        "mixed_kinds", "similarity",
    )

    def __init__(
        self,
        kind: Kind,
        record_count: int = 0,
        key_counts: Optional[Counter] = None,
        length_counts: Optional[Counter] = None,
        mixed_kinds: bool = False,
        similarity: Optional[SimilarityAccumulator] = None,
    ) -> None:
        self.kind = kind
        self.record_count = record_count
        self.key_counts = Counter() if key_counts is None else key_counts
        self.length_counts = (
            Counter() if length_counts is None else length_counts
        )
        self.mixed_kinds = mixed_kinds
        self.similarity = (
            SimilarityAccumulator() if similarity is None else similarity
        )

    @classmethod
    def with_depth(
        cls, kind: Kind, similarity_depth: "Optional[int]" = None
    ) -> "CollectionEvidence":
        """Evidence whose similarity check is depth-bounded."""
        return cls(kind, similarity=SimilarityAccumulator(similarity_depth))

    def add(self, tau: JsonType, count: int = 1) -> None:
        """Fold one object- or array-kinded type into the evidence.

        ``count`` folds ``count`` identical instances at once (the
        counted-bag fast path): every statistic below is a function of
        final counts, and re-adding a type already folded into the
        similarity accumulator is a no-op there (its maximal type
        already subsumes it), so this is exactly equivalent to calling
        ``add`` ``count`` times.
        """
        if tau.kind != self.kind:
            raise ValueError(
                f"evidence tracks {self.kind}, got {tau.kind} type"
            )
        self.record_count += count
        if isinstance(tau, ObjectType):
            children = [child for _, child in tau.items()]
            for key, _ in tau.items():
                self.key_counts[key] += count
        elif isinstance(tau, ArrayType):
            children = list(tau.elements)
            self.length_counts[len(children)] += count
        else:  # pragma: no cover - guarded by the kind check above
            raise ValueError(f"not a complex type: {tau!r}")
        kinds = {
            child.kind for child in children if child.kind != Kind.NULL
        }
        if len(kinds) > 1:
            self.mixed_kinds = True
        for child in children:
            self.similarity.add(child, count)

    def merge(self, other: "CollectionEvidence") -> "CollectionEvidence":
        """Combine evidence from two partitions (associative)."""
        if self.kind != other.kind:
            raise ValueError("cannot merge evidence of different kinds")
        merged = CollectionEvidence(self.kind)
        merged.record_count = self.record_count + other.record_count
        merged.key_counts = self.key_counts + other.key_counts
        merged.length_counts = self.length_counts + other.length_counts
        merged.mixed_kinds = self.mixed_kinds or other.mixed_kinds
        merged.similarity = self.similarity.merge(other.similarity)
        return merged

    @property
    def entropy(self) -> float:
        """Key-space entropy (objects) or length entropy (arrays)."""
        if self.kind == Kind.OBJECT:
            return key_space_entropy(self.key_counts, self.record_count)
        return length_entropy(self.length_counts, self.record_count)

    @property
    def elements_similar(self) -> bool:
        """Did every pair of nested element types pass similarity?"""
        return self.similarity.all_similar

    @property
    def distinct_keys(self) -> int:
        return len(self.key_counts)

    @property
    def max_length(self) -> int:
        return max(self.length_counts, default=0)


def decide_designation(
    evidence: CollectionEvidence,
    threshold: float = DEFAULT_ENTROPY_THRESHOLD,
) -> Designation:
    """Algorithm 5: designate a path Collection or Tuple.

    Tuples win when (i) any instance mixes nested kinds, (ii) nested
    types fail pairwise similarity, or (iii) key-space entropy is at or
    below ``threshold``.
    """
    if evidence.mixed_kinds:
        return Designation.TUPLE
    if not evidence.elements_similar:
        return Designation.TUPLE
    if evidence.entropy <= threshold:
        return Designation.TUPLE
    return Designation.COLLECTION


def _gather(kind: Kind, types: Iterable[JsonType]) -> CollectionEvidence:
    evidence = CollectionEvidence(kind)
    for tau in types:
        evidence.add(tau)
    return evidence


def is_collection_objects(
    types: Iterable[JsonType],
    threshold: float = DEFAULT_ENTROPY_THRESHOLD,
    evidence_out: Optional[list] = None,
) -> bool:
    """Is this bag of object-kinded types collection-like?

    ``evidence_out``, when given, receives the accumulated
    :class:`CollectionEvidence` (useful for reusing the statistics in
    the subsequent merge).
    """
    evidence = _gather(Kind.OBJECT, types)
    if evidence_out is not None:
        evidence_out.append(evidence)
    return decide_designation(evidence, threshold) is Designation.COLLECTION


def is_collection_arrays(
    types: Iterable[JsonType],
    threshold: float = DEFAULT_ENTROPY_THRESHOLD,
    evidence_out: Optional[list] = None,
) -> bool:
    """Is this bag of array-kinded types collection-like?"""
    evidence = _gather(Kind.ARRAY, types)
    if evidence_out is not None:
        evidence_out.append(evidence)
    return decide_designation(evidence, threshold) is Designation.COLLECTION
