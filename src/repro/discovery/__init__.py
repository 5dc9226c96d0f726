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

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.discovery.base": (
            "Discoverer",
            "FunctionDiscoverer",
            "discoverer_names",
            "make_discoverer",
            "register_discoverer",
        ),
        "repro.discovery.config": (
            "BIMAX_MERGE_CONFIG",
            "BIMAX_NAIVE_CONFIG",
            "EntityStrategy",
            "FeatureMode",
            "JxplainConfig",
        ),
        "repro.discovery.coref": (
            "CoReference",
            "find_coreferences",
            "unify_coreferences",
        ),
        "repro.discovery.fold": ("DecidedFolder", "FoldNode"),
        "repro.discovery.jxplain": (
            "Jxplain",
            "JxplainMerger",
            "JxplainNaive",
            "cluster_key_sets",
            "jxplain_merge",
        ),
        "repro.discovery.kreduce": (
            "KReduce",
            "merge_array_coll",
            "merge_k",
            "merge_k_schemas",
            "merge_object_tuple",
        ),
        "repro.discovery.lreduce": ("LReduce", "merge_naive"),
        "repro.discovery.pipeline": (
            "JxplainPipeline",
            "PipelineMerger",
            "PipelineResult",
            "TupleShapes",
            "build_partitioners",
        ),
        "repro.discovery.sketches": (
            "EnrichmentOptions",
            "EnrichmentState",
            "parse_enrich_spec",
        ),
        "repro.discovery.state": (
            "DiscoveryState",
            "JxplainState",
            "KReduceState",
            "LReduceState",
            "load_state",
            "save_state",
            "state_for_algorithm",
        ),
        "repro.discovery.tagged_unions": (
            "TaggedUnionConfig",
            "TaggedUnionDecision",
            "extract_tagged_unions",
            "tagged_union_json_schema",
        ),
        "repro.discovery.stat_tree": (
            "CollectionDecisions",
            "PathEntropy",
            "StatTree",
            "collection_paths",
            "decide_collections",
            "entropy_profile",
        ),
    },
)
