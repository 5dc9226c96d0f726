"""Schema-discovery algorithms: L-reduce, K-reduce, and JXPLAIN.

* :mod:`repro.discovery.lreduce` — naive discovery (§2.1);
* :mod:`repro.discovery.kreduce` — the production-style baseline
  (§2.1, Algorithms 1–3), with its associative fold form;
* :mod:`repro.discovery.jxplain` — the recursive reference JXPLAIN
  (§4.1, Algorithm 4);
* :mod:`repro.discovery.pipeline` — the staged three-pass JXPLAIN
  (§4.2, Figure 3) over the dataflow engine;
* :mod:`repro.discovery.fold` — pass ③ as an associative fold;
* :mod:`repro.discovery.state` — the serializable, mergeable
  :class:`DiscoveryState` monoid every algorithm synthesizes from,
  with checkpoint save/load;
* :mod:`repro.discovery.codec` — the versioned binary wire format of
  states and their constituents;
* :mod:`repro.discovery.sketches` — value-domain enrichment monoids
  (min/max, Bloom, HyperLogLog, string formats) carried alongside any
  state as an :class:`EnrichmentState` sidecar;
* :mod:`repro.discovery.tagged_unions` — discriminant-key detection
  synthesizing ``if/then``/``oneOf`` tagged unions.
"""

from repro.discovery.base import (
    Discoverer,
    FunctionDiscoverer,
    discoverer_names,
    make_discoverer,
    register_discoverer,
)
from repro.discovery.config import (
    BIMAX_MERGE_CONFIG,
    BIMAX_NAIVE_CONFIG,
    EntityStrategy,
    FeatureMode,
    JxplainConfig,
    RobustnessConfig,
)
from repro.discovery.coref import (
    CoReference,
    find_coreferences,
    unify_coreferences,
)
from repro.discovery.fold import DecidedFolder, FoldNode
from repro.discovery.jxplain import (
    Jxplain,
    JxplainMerger,
    JxplainNaive,
    cluster_key_sets,
    jxplain_merge,
)
from repro.discovery.kreduce import (
    KReduce,
    merge_array_coll,
    merge_k,
    merge_k_schemas,
    merge_object_tuple,
)
from repro.discovery.lreduce import LReduce, merge_naive
from repro.discovery.pipeline import (
    JxplainPipeline,
    PipelineMerger,
    PipelineResult,
    TupleShapes,
    build_partitioners,
)
from repro.discovery.sketches import (
    EnrichmentOptions,
    EnrichmentState,
    parse_enrich_spec,
)
from repro.discovery.state import (
    DiscoveryState,
    JxplainState,
    KReduceState,
    LReduceState,
    load_state,
    save_state,
    state_for_algorithm,
)
from repro.discovery.tagged_unions import (
    TaggedUnionConfig,
    TaggedUnionDecision,
    extract_tagged_unions,
    tagged_union_json_schema,
)
from repro.discovery.stat_tree import (
    CollectionDecisions,
    PathEntropy,
    StatTree,
    collection_paths,
    decide_collections,
    entropy_profile,
)

__all__ = [
    "BIMAX_MERGE_CONFIG",
    "BIMAX_NAIVE_CONFIG",
    "CoReference",
    "CollectionDecisions",
    "DecidedFolder",
    "Discoverer",
    "DiscoveryState",
    "EnrichmentOptions",
    "EnrichmentState",
    "EntityStrategy",
    "FeatureMode",
    "FoldNode",
    "FunctionDiscoverer",
    "Jxplain",
    "JxplainConfig",
    "JxplainMerger",
    "JxplainNaive",
    "JxplainPipeline",
    "JxplainState",
    "KReduce",
    "KReduceState",
    "LReduce",
    "LReduceState",
    "PathEntropy",
    "PipelineMerger",
    "PipelineResult",
    "RobustnessConfig",
    "StatTree",
    "TaggedUnionConfig",
    "TaggedUnionDecision",
    "TupleShapes",
    "build_partitioners",
    "cluster_key_sets",
    "collection_paths",
    "decide_collections",
    "discoverer_names",
    "entropy_profile",
    "extract_tagged_unions",
    "find_coreferences",
    "unify_coreferences",
    "jxplain_merge",
    "parse_enrich_spec",
    "tagged_union_json_schema",
    "load_state",
    "make_discoverer",
    "merge_array_coll",
    "merge_k",
    "merge_k_schemas",
    "merge_naive",
    "merge_object_tuple",
    "register_discoverer",
    "save_state",
    "state_for_algorithm",
]
