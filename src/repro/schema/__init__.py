"""Schema grammar, admission, entropy, rendering, and JSON Schema IO.

Implements Section 4's grammar with the admission semantics of
Definition 1, plus the schema-entropy measure of Section 7.2.
"""

from repro import _lazy

# Bound eagerly: the function shares its submodule's name, and the
# renderer is on every ``discover``'s path anyway.
from repro.schema.render import render

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.schema.entropy": (
            "LOG2_ZERO",
            "log2_add",
            "log2_geometric_sum",
            "log2_one_plus",
            "log2_sum",
            "log2_type_count",
            "schema_entropy",
        ),
        "repro.schema.docgen": ("schema_to_markdown",),
        "repro.schema.enrich": ("annotate_json_schema",),
        "repro.schema.jsonschema": (
            "DIALECT",
            "from_json_schema",
            "to_json_schema",
        ),
        "repro.schema.subsume": ("simplify_union", "subsumes"),
        "repro.schema.nodes": (
            "ArrayCollection",
            "ArrayTuple",
            "BOOLEAN_S",
            "NEVER",
            "NULL_S",
            "NUMBER_S",
            "ObjectCollection",
            "ObjectTuple",
            "PRIMITIVE_SCHEMAS",
            "PrimitiveSchema",
            "STRING_S",
            "Schema",
            "Union",
            "entity_count",
            "exact_schema",
            "iter_branches",
            "top_level_entity_count",
            "union",
            "union_of",
        ),
        "repro.schema.render": ("render", "summary"),
        "repro.schema.sample": (
            "estimate_false_positive_rate",
            "sample_value",
            "sample_values",
        ),
    },
)
