"""repro — a reproduction of "Reducing Ambiguity in Json Schema Discovery".

JXPLAIN (SIGMOD 2021) is an ambiguity-aware JSON schema discovery
system: instead of the data-independent assumptions used in production
extractors ("arrays are collections, objects are tuples, a collection
holds one entity"), it decides per path — via entropy and similarity
heuristics — whether a nested structure is a collection or a tuple, and
partitions tuple-like bags into entities with Bimax bi-clustering.

Quickstart::

    from repro import Jxplain, render

    records = [
        {"ts": 7, "event": "login", "user": {"name": "Ada"}},
        {"ts": 8, "event": "serve", "files": ["a.txt", "b.txt"]},
    ]
    schema = Jxplain().discover(records)
    print(render(schema))
    schema.admits_value({"ts": 9, "event": "login", "user": {"name": "Bo"}})

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.
"""

from repro import _lazy

__version__ = "1.0.0"

#: Each name is served by its subpackage on first use, so the CLI,
#: which imports this package before every ``discover``, loads none of
#: them here.
__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.discovery": (
            "Discoverer",
            "EntityStrategy",
            "Jxplain",
            "JxplainConfig",
            "JxplainNaive",
            "JxplainPipeline",
            "KReduce",
            "LReduce",
            "discoverer_names",
            "find_coreferences",
            "jxplain_merge",
            "make_discoverer",
            "merge_k",
            "merge_naive",
        ),
        "repro.jsontypes": ("JsonType", "JsonValue", "Kind", "type_of"),
        "repro.schema": (
            "Schema",
            "from_json_schema",
            "render",
            "sample_value",
            "schema_entropy",
            "schema_to_markdown",
            "to_json_schema",
        ),
        "repro.validation": (
            "ValidationReport",
            "diff_schemas",
            "validate_records",
        ),
    },
)
__all__.append("__version__")
