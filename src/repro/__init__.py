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

import typing

from repro.discovery import (
    Discoverer,
    EntityStrategy,
    Jxplain,
    JxplainConfig,
    JxplainNaive,
    JxplainPipeline,
    KReduce,
    LReduce,
    discoverer_names,
    find_coreferences,
    jxplain_merge,
    make_discoverer,
    merge_k,
    merge_naive,
)
from repro.jsontypes import JsonType, JsonValue, Kind, type_of
from repro.schema import (
    Schema,
    from_json_schema,
    render,
    sample_value,
    schema_entropy,
    schema_to_markdown,
    to_json_schema,
)

if typing.TYPE_CHECKING:
    from repro.validation import (
        ValidationReport,
        diff_schemas,
        validate_records,
    )

#: Served on first use (PEP 562): the CLI imports this package before
#: every ``discover``, which never validates.
_VALIDATION_NAMES = ("ValidationReport", "diff_schemas", "validate_records")


def __getattr__(name: str):
    if name not in _VALIDATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro import validation

    value = getattr(validation, name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "Discoverer",
    "EntityStrategy",
    "JsonType",
    "JsonValue",
    "Jxplain",
    "JxplainConfig",
    "JxplainNaive",
    "JxplainPipeline",
    "KReduce",
    "Kind",
    "LReduce",
    "Schema",
    "ValidationReport",
    "diff_schemas",
    "find_coreferences",
    "__version__",
    "discoverer_names",
    "from_json_schema",
    "jxplain_merge",
    "make_discoverer",
    "merge_k",
    "merge_naive",
    "render",
    "sample_value",
    "schema_entropy",
    "schema_to_markdown",
    "to_json_schema",
    "type_of",
    "validate_records",
]
