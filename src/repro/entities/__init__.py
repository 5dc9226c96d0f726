"""Entity discovery: Bimax bi-clustering, GreedyMerge, baselines.

Implements Section 6 of the paper: Algorithm 6 (Bimax ordering),
Algorithm 7 (Bimax-Naive clustering), Algorithm 8 (GreedyMerge), the
k-means baseline of Section 7.3, the feature-vector preprocessing of
Section 6.4, and the deterministic record→entity partitioner.

All of the subset/overlap-heavy algorithms run internally on interned
integer bitmasks (:mod:`repro.entities.keyset`) by default;
:func:`set_entity_representation` switches back to the seed's
frozenset implementations, and the two are cluster-identical.
"""

from repro import _lazy

# Bound eagerly: the function shares its submodule's name, and
# GreedyMerge is on every ``discover``'s path anyway.
from repro.entities.greedy_merge import greedy_merge

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.entities.bimax": (
            "EntityCluster",
            "KeySet",
            "bimax_naive",
            "bimax_order",
            "block_boundaries",
            "distinct_key_sets",
        ),
        "repro.entities.keyset": (
            "KeySetUniverse",
            "entity_representation",
            "iter_bits",
            "set_entity_representation",
        ),
        "repro.entities.features": (
            "FeatureMemoryProfile",
            "FeatureVector",
            "FeatureVectorSet",
            "extract_feature_vectors",
            "feature_memory_profile",
            "top_level_key_set",
            "type_paths",
        ),
        "repro.entities.greedy_merge": (
            "bimax_merge",
            "greedy_merge",
            "merge_to_fixpoint",
        ),
        "repro.entities.kmeans": (
            "KMeansResult",
            "encode_key_sets",
            "kmeans_clusters",
            "kmeans_key_sets",
        ),
        "repro.entities.partitioner": ("EntityPartitioner",),
        "repro.entities.set_cover": (
            "cover_exists",
            "greedy_set_cover",
            "greedy_set_cover_masks",
            "minimal_cover_size",
        ),
    },
)
