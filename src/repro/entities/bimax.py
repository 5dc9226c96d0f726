"""Bimax bi-clustering (Section 6.2, Algorithms 6 and 7).

Bimax — borrowed from gene-expression analysis (Prelic et al.) — sorts
a list of key-sets so that similar sets end up adjacent, using only
subset/superset structure and never a distance measure.  That makes it
robust to entity-size skew, the failure mode of Jaccard-style measures
illustrated by the paper's Example 9.

:func:`bimax_order` is Algorithm 6 (the reordering);
:func:`bimax_naive` is Algorithm 7, which additionally emits each
``K_sub`` block — the seed set and all of its subsets — as one entity
cluster.

Both run internally on either frozensets or interned integer bitmasks
(:mod:`repro.entities.keyset`); the bitset path turns every
subset/overlap test of the O(n²) partition loop into a couple of
machine-word operations while emitting byte-identical clusters.  The
public API speaks frozensets regardless of representation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.instrument import counters
from repro.entities.keyset import KeySetUniverse, bitset_enabled, encode_all
from repro.records import Record

#: A feature set: record keys (strings) or record paths (tuples),
#: depending on the configured feature mode.  Any hashable works.
KeySet = FrozenSet


class EntityCluster(Record):
    """One discovered entity: a seed key-set and its member key-sets.

    ``maximal`` is the entity's maximal element — every member is a
    subset of it.  Bimax-Naive seeds it with the largest key-set of the
    block; GreedyMerge may later *synthesize* a larger one by unioning
    covers (tracked by ``synthesized``).

    ``member_counts``, when present, aligns with ``members`` and
    carries each member's record multiplicity, so downstream consumers
    (partition weighting, k-means seeding) can weight by record
    frequency rather than by distinct shape.  It is populated whenever
    the clustering entry point was given multiplicities.
    """

    __slots__ = ("maximal", "members", "synthesized", "member_counts")

    def __init__(
        self,
        maximal: KeySet,
        members: Optional[List[KeySet]] = None,
        synthesized: bool = False,
        member_counts: Optional[List[int]] = None,
    ) -> None:
        self.maximal = maximal
        self.members = [] if members is None else members
        self.synthesized = synthesized
        self.member_counts = member_counts

    @property
    def size(self) -> int:
        return len(self.maximal)

    @property
    def weight(self) -> int:
        """Total records covered: sum of multiplicities, or the member
        count when multiplicities were not threaded through."""
        if self.member_counts is None:
            return len(self.members)
        return sum(self.member_counts)

    def __contains__(self, key_set: KeySet) -> bool:
        return key_set in self.members

    def covers(self, key_set: KeySet) -> bool:
        """Is ``key_set`` within this entity's maximal element?"""
        return key_set <= self.maximal


@lru_cache(maxsize=65536)
def _repr_sort_key(key_set: KeySet) -> Tuple[str, ...]:
    """``tuple(sorted(map(repr, ks)))``, computed once per key-set.

    Keys are sorted by ``repr`` because feature vectors may mix key
    types (strings, array positions, path tuples), which are not
    mutually ordered.  The cache matters because Bimax re-sorts the
    same sets on every :func:`~repro.entities.greedy_merge.merge_to_fixpoint`
    round.
    """
    return tuple(sorted(map(repr, key_set)))


def _sorted_by_size(key_sets: Iterable[KeySet]) -> List[KeySet]:
    """Descending size; ties broken by the precomputed repr key for
    determinism."""
    return sorted(key_sets, key=lambda ks: (-len(ks), _repr_sort_key(ks)))


def _sorted_masks(masks: Sequence[int], universe: KeySetUniverse) -> List[int]:
    """The mask counterpart of :func:`_sorted_by_size`.

    Bit positions are repr-sorted, so a mask's bit-order repr tuple is
    exactly the frozenset tie-break key — the two sorts agree on every
    input, including the stability of equal keys.
    """
    keyed = {mask: (-mask.bit_count(), universe.sort_key(mask)) for mask in masks}
    return sorted(masks, key=keyed.__getitem__)


def distinct_key_sets(
    key_sets: Iterable[KeySet],
    counts: Optional[Sequence[int]] = None,
) -> Tuple[List[KeySet], List[int]]:
    """Multiplicity-preserving dedup: ``(distinct sets, multiplicities)``.

    Order is first occurrence.  Without explicit ``counts`` each
    occurrence weighs 1 (so the multiplicities are occurrence counts);
    with ``counts`` aligned to the input, duplicates accumulate their
    given weights — the bag semantics the counted-merge layer feeds in.
    """
    index: dict = {}
    unique: List[KeySet] = []
    weights: List[int] = []
    if counts is None:
        for key_set in key_sets:
            frozen = frozenset(key_set)
            at = index.get(frozen)
            if at is None:
                index[frozen] = len(unique)
                unique.append(frozen)
                weights.append(1)
            else:
                weights[at] += 1
    else:
        for key_set, count in zip(key_sets, counts):
            frozen = frozenset(key_set)
            at = index.get(frozen)
            if at is None:
                index[frozen] = len(unique)
                unique.append(frozen)
                weights.append(count)
            else:
                weights[at] += count
    return unique, weights


def _distinct(key_sets: Iterable[KeySet]) -> List[KeySet]:
    unique, _ = distinct_key_sets(key_sets)
    return unique


# -- Algorithm 6: the reordering -------------------------------------------


def _bimax_order_sets(ordering: List[KeySet]) -> List[KeySet]:
    """The seed frozenset implementation of the Bimax reorder loop."""
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[KeySet] = []
        overlap: List[KeySet] = []
        disjoint: List[KeySet] = []
        for key_set in ordering[index:]:
            subset_tests += 1
            if key_set <= k_max:
                subsets.append(key_set)
            elif not (key_set & k_max):
                disjoint.append(key_set)
            else:
                overlap.append(key_set)
        ordering[index:] = subsets + overlap + disjoint
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return ordering


def _bimax_order_masks(ordering: List[int]) -> List[int]:
    """The bitset implementation: the same loop over int masks."""
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[int] = []
        overlap: List[int] = []
        disjoint: List[int] = []
        for mask in ordering[index:]:
            inter = mask & k_max
            if inter == mask:
                subsets.append(mask)
            elif not inter:
                disjoint.append(mask)
            else:
                overlap.append(mask)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return ordering


def bimax_order(key_sets: Sequence[KeySet]) -> List[KeySet]:
    """Algorithm 6: reorder key-sets so similar sets are adjacent.

    Repeatedly takes the current head ``k_max`` and stably rearranges
    the remainder as (subsets of ``k_max``) < (overlapping) <
    (disjoint), then advances past the subset block.
    """
    if not bitset_enabled():
        return _bimax_order_sets(_sorted_by_size(key_sets))
    universe = KeySetUniverse.from_key_sets(key_sets)
    masks = _sorted_masks(encode_all(universe, key_sets), universe)
    return [universe.decode(mask) for mask in _bimax_order_masks(masks)]


# -- Algorithm 7: the naive clustering -------------------------------------


def _bimax_naive_sets(
    distinct: List[KeySet], weights: List[int]
) -> List[Tuple[KeySet, List[KeySet], List[int]]]:
    count_of = dict(zip(distinct, weights))
    ordering = _bimax_order_sets(_sorted_by_size(distinct))
    blocks: List[Tuple[KeySet, List[KeySet], List[int]]] = []
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[KeySet] = []
        overlap: List[KeySet] = []
        disjoint: List[KeySet] = []
        for key_set in ordering[index:]:
            if key_set <= k_max:
                subsets.append(key_set)
            elif not (key_set & k_max):
                disjoint.append(key_set)
            else:
                overlap.append(key_set)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        blocks.append(
            (k_max, list(subsets), [count_of[ks] for ks in subsets])
        )
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return blocks


def _bimax_naive_masks(
    distinct: List[KeySet], weights: List[int]
) -> List[Tuple[KeySet, List[KeySet], List[int]]]:
    universe = KeySetUniverse.from_key_sets(distinct)
    masks = encode_all(universe, distinct)
    count_of = dict(zip(masks, weights))
    ordering = _bimax_order_masks(_sorted_masks(masks, universe))
    blocks: List[Tuple[KeySet, List[KeySet], List[int]]] = []
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[int] = []
        overlap: List[int] = []
        disjoint: List[int] = []
        for mask in ordering[index:]:
            inter = mask & k_max
            if inter == mask:
                subsets.append(mask)
            elif not inter:
                disjoint.append(mask)
            else:
                overlap.append(mask)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        blocks.append(
            (
                universe.decode(k_max),
                [universe.decode(m) for m in subsets],
                [count_of[m] for m in subsets],
            )
        )
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return blocks


def bimax_naive(
    key_sets: Sequence[KeySet],
    counts: Optional[Sequence[int]] = None,
) -> List[EntityCluster]:
    """Algorithm 7: cluster key-sets into subset-blocks.

    Returns clusters in emission (insertion) order.  Each cluster's
    maximal element is its seed — the largest key-set of its block —
    and its members are that seed's subsets from the remaining input.
    Duplicates in the input collapse (a bag of identical key-sets forms
    a single member); their multiplicities accumulate and, when
    ``counts`` is given, are recorded on the clusters'
    ``member_counts``.
    """
    distinct, weights = distinct_key_sets(key_sets, counts)
    if bitset_enabled():
        blocks = _bimax_naive_masks(distinct, weights)
    else:
        blocks = _bimax_naive_sets(distinct, weights)
    counters.add("entities.clusters_emitted", len(blocks))
    keep_counts = counts is not None
    return [
        EntityCluster(
            maximal=maximal,
            members=members,
            member_counts=list(member_counts) if keep_counts else None,
        )
        for maximal, members, member_counts in blocks
    ]


def block_boundaries(key_sets: Sequence[KeySet]) -> List[Tuple[int, int]]:
    """The ``(start, end)`` spans of each subset block after ordering.

    A convenience for tests and visualisation of the Bimax structure.
    """
    clusters = bimax_naive(key_sets)
    spans: List[Tuple[int, int]] = []
    start = 0
    for cluster in clusters:
        end = start + len(cluster.members)
        spans.append((start, end))
        start = end
    return spans
