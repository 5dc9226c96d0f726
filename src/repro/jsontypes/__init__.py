"""JSON type system: kinds, immutable types, paths, and similarity.

This package implements the type algebra of Section 2 (Figure 2) of the
paper, plus the similarity relation of Section 5.2.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.jsontypes.bag": (
            "CountedBag",
            "ListBag",
            "TypeBag",
            "as_bag",
            "counted_merge_enabled",
            "set_counted_merge",
        ),
        "repro.jsontypes.kinds": ("COMPLEX_KINDS", "Kind", "PRIMITIVE_KINDS"),
        "repro.jsontypes.paths": (
            "Path",
            "PathStep",
            "ROOT",
            "STAR",
            "generalize",
            "iter_type_paths",
            "iter_value_paths",
            "parse_path",
            "render_path",
            "value_at",
        ),
        "repro.jsontypes.similarity": (
            "SimilarityAccumulator",
            "all_pairwise_similar",
            "set_similarity_cache",
            "similar",
            "similarity_cache_stats",
            "union_types",
        ),
        "repro.jsontypes.tokenizer": (
            "DEFAULT_SHAPE_CACHE_SIZE",
            "ShapeCache",
            "depth_exceeds",
            "line_token_count",
            "scan_type",
            "structural_skeleton",
        ),
        "repro.jsontypes.types": (
            "ArrayType",
            "BOOLEAN",
            "EMPTY_ARRAY",
            "EMPTY_OBJECT",
            "JsonType",
            "JsonValue",
            "MAX_DEPTH",
            "NULL",
            "NUMBER",
            "ObjectType",
            "PRIMITIVES",
            "PrimitiveType",
            "STRING",
            "clear_intern_table",
            "intern_stats",
            "intern_type",
            "interning_enabled",
            "kind_of",
            "set_interning",
            "type_of",
        ),
    },
)
