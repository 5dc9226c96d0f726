"""Configuration for JXPLAIN discovery.

The knobs here correspond one-to-one to the design choices called out
in the paper: the key-space entropy threshold (Section 5.3), whether
array-tuple / object-collection detection is enabled at all (existing
systems hard-code "arrays are collections, objects are tuples"), and
which entity strategy resolves multi-entity ambiguity (Section 6).
Table 4 disables collection detection on the Pharmaceutical dataset via
``detect_object_collections=False``; the ablation benches toggle the
rest.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.heuristics.collection import DEFAULT_ENTROPY_THRESHOLD
from repro.records import FrozenRecord


class FeatureMode(enum.Enum):
    """What a record's *feature vector* is for entity discovery (§6.4).

    * ``KEYS`` — the record's top-level key set (the §6 problem
      statement's simplification);
    * ``PATHS`` — the set of all paths in the record, pruned beneath
      nested collections (the paper's implementation; required to
      separate entities that share an envelope but differ in nested
      payloads, like GitHub events).
    """

    KEYS = "keys"
    PATHS = "paths"


class EntityStrategy(enum.Enum):
    """How a bag of tuple-like types is split into entities (§4.3).

    * ``SINGLE`` — one entity with optional fields (K-reduction's
      choice: high recall, low precision);
    * ``EXACT`` — one entity per distinct key-set (L-reduction's
      choice: high precision, low recall);
    * ``BIMAX_NAIVE`` — Algorithm 7;
    * ``BIMAX_MERGE`` — Algorithms 7 + 8 (JXPLAIN's default);
    * ``KMEANS`` — the k-means baseline of Section 7.3 (requires a
      ``kmeans_k``; uses the Bimax-Naive cluster count when unset).
    """

    SINGLE = "single"
    EXACT = "exact"
    BIMAX_NAIVE = "bimax-naive"
    BIMAX_MERGE = "bimax-merge"
    KMEANS = "kmeans"


class JxplainConfig(FrozenRecord):
    """All tunable behaviour of the JXPLAIN merge.

    The defaults reproduce the configuration used for "Bimax-Merge"
    rows throughout the paper's experiments.
    """

    __slots__ = (
        "entropy_threshold", "similarity_depth", "detect_array_tuples",
        "detect_object_collections", "entity_strategy", "feature_mode",
        "kmeans_k", "kmeans_seed", "kmeans_weighted", "max_depth",
    )

    def __init__(
        self,
        #: Key-space / length entropy threshold of Algorithm 5.
        entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD,
        #: Depth bound for the §5.2 similarity constraint; None = the
        #: paper's literal (unbounded) rule.  A small bound (e.g. 4)
        #: tolerates kind-mixing buried deep inside otherwise-homogeneous
        #: collection elements (Wikidata's datavalue.value).
        similarity_depth: Optional[int] = None,
        #: When False, arrays are always collections (the K-reduce rule).
        detect_array_tuples: bool = True,
        #: When False, objects are always tuples (the K-reduce rule).
        detect_object_collections: bool = True,
        #: Entity-partitioning strategy for tuple-like bags.
        entity_strategy: EntityStrategy = EntityStrategy.BIMAX_MERGE,
        #: Feature vectors for entity discovery: key sets or full paths.
        feature_mode: FeatureMode = FeatureMode.PATHS,
        #: k for the KMEANS strategy; None = use the Bimax-Naive count.
        kmeans_k: Optional[int] = None,
        #: Seed for the KMEANS strategy (the only stochastic component).
        kmeans_seed: int = 0,
        #: Weight k-means seeding/centroids by record multiplicity when
        #: the caller supplies counts (False preserves the paper's
        #: distinct-set clustering).
        kmeans_weighted: bool = False,
        #: Hard bound on schema/recursion depth.
        max_depth: int = 128,
    ) -> None:
        self._init(
            entropy_threshold, similarity_depth, detect_array_tuples,
            detect_object_collections, entity_strategy, feature_mode,
            kmeans_k, kmeans_seed, kmeans_weighted, max_depth,
        )

    def with_(self, **overrides) -> "JxplainConfig":
        """A copy with the given fields replaced."""
        return self._replace(**overrides)

    def validate(self) -> None:
        if self.entropy_threshold < 0:
            raise ValueError("entropy_threshold must be >= 0")
        if self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.similarity_depth is not None and self.similarity_depth <= 0:
            raise ValueError("similarity_depth must be positive when set")
        if (
            self.entity_strategy is EntityStrategy.KMEANS
            and self.kmeans_k is not None
            and self.kmeans_k <= 0
        ):
            raise ValueError("kmeans_k must be positive when set")


#: The configuration for the paper's "Bimax-Merge" (JXPLAIN) rows.
BIMAX_MERGE_CONFIG = JxplainConfig()

#: The configuration for the paper's "Bimax-Naive" rows.
BIMAX_NAIVE_CONFIG = JxplainConfig(
    entity_strategy=EntityStrategy.BIMAX_NAIVE
)


def bimax_naive_config(
    config: Optional[JxplainConfig] = None,
) -> JxplainConfig:
    """``config`` (default :class:`JxplainConfig`) with the Bimax-Naive
    entity strategy, as ``bimax-naive`` runs it.

    A config whose strategy is neither the default nor Bimax-Naive is
    refused with :class:`ValueError` rather than silently overridden.
    """
    base = config or JxplainConfig()
    if base.entity_strategy not in (
        EntityStrategy.BIMAX_MERGE, EntityStrategy.BIMAX_NAIVE
    ):
        raise ValueError(
            "bimax-naive fixes the entity strategy; entity_strategy "
            f"{base.entity_strategy.value} needs bimax-merge"
        )
    return base.with_(entity_strategy=EntityStrategy.BIMAX_NAIVE)
