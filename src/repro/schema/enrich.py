"""Value-domain annotations for exported JSON Schema documents.

Structural discovery says what *shapes* the data takes; the PR-8
enrichment sidecar (:mod:`repro.discovery.sketches`) additionally
remembers, per leaf path, what *values* lived there.  This module
joins the two: :func:`annotate_json_schema` walks a document produced
by :func:`~repro.schema.jsonschema.to_json_schema` in lockstep with an
:class:`~repro.discovery.sketches.EnrichmentState` and decorates every
scalar position with the standard keywords the sketches support —
``minimum``/``maximum`` from the min/max sketch and ``format`` from
the dominant-format sketch — plus two ``x-repro-`` extensions:

``x-repro-cardinality``
    The HyperLogLog distinct-value estimate (a float; relative error
    ~1.04/sqrt(2^precision)).

``x-repro-bloom``
    The Bloom membership filter — geometry, absorbed count, expected
    false-positive rate, and the bit array base64-encoded — enough for
    a reader to answer "was this value ever observed here?".

An infinite bound (from ``1e400`` or an int past the float range) is
left out, as an absent bound already means unbounded, so the document
stays JSON.

Annotations are strictly additive: every keyword this module writes
is ignored by :func:`~repro.schema.jsonschema.from_json_schema`, so
``from_json_schema(annotate_json_schema(doc, e)) ==
from_json_schema(doc)`` — the round-trip invariant the enriched
differential oracle checks.

Path alignment mirrors ``EnrichmentState.observe``: object properties
descend by key, arrays descend by ``STAR``.  A map-like
``additionalProperties`` position fans out to every observed key at
that point, merging their sketch bundles (sketches are monoids, so the
merge is exact, not an approximation of an approximation).
"""

from __future__ import annotations

import base64
import math
from typing import Any, Dict, List, Optional

from repro.discovery.sketches import EnrichmentState, PathSketches
from repro.jsontypes.paths import Path, STAR

__all__ = ["annotate_json_schema"]


def annotate_json_schema(document: Any, enrichment: Optional[EnrichmentState]) -> Any:
    """Return a copy of ``document`` decorated with sketch annotations.

    ``document`` must come from
    :func:`~repro.schema.jsonschema.to_json_schema`.  ``enrichment``
    may be ``None`` or sketch-less (``--enrich unions``), in which
    case the document is returned unchanged (same object).  The input
    document is never mutated.
    """
    if enrichment is None or not enrichment.options.sketches:
        return document
    return _annotate(document, [()], enrichment.paths)


def _annotate(
    document: Any,
    prefixes: List[Path],
    paths: Dict[Path, PathSketches],
) -> Any:
    if not isinstance(document, dict):
        # ``false`` (NEVER) has no interior to annotate.
        return document
    annotated = dict(document)
    if "anyOf" in annotated:
        annotated["anyOf"] = [
            _annotate(branch, prefixes, paths)
            for branch in annotated["anyOf"]
        ]
        return annotated
    type_name = annotated.get("type")
    if type_name == "object":
        properties = annotated.get("properties")
        if isinstance(properties, dict):
            annotated["properties"] = {
                key: _annotate(
                    child,
                    [prefix + (key,) for prefix in prefixes],
                    paths,
                )
                for key, child in properties.items()
            }
        extra = annotated.get("additionalProperties")
        if isinstance(extra, (dict, bool)) and extra is not False:
            annotated["additionalProperties"] = _annotate(
                extra, _map_key_prefixes(prefixes, paths), paths
            )
        return annotated
    if type_name == "array":
        starred = [prefix + (STAR,) for prefix in prefixes]
        items = annotated.get("items")
        if isinstance(items, dict):
            annotated["items"] = _annotate(items, starred, paths)
        prefix_items = annotated.get("prefixItems")
        if isinstance(prefix_items, list):
            # Tuple elements were still absorbed under STAR (the
            # enrichment walker does not know pass-1 designations), so
            # every element position shares the starred bundle.
            annotated["prefixItems"] = [
                _annotate(element, starred, paths)
                for element in prefix_items
            ]
        return annotated
    bundle = _merged_bundle(prefixes, paths)
    if bundle is None:
        return annotated
    if type_name == "number":
        if bundle.numbers.count:
            for keyword in ("minimum", "maximum"):
                bound = getattr(bundle.numbers, keyword)
                if bound not in (math.inf, -math.inf):
                    annotated[keyword] = bound
    elif type_name == "string":
        dominant = bundle.strings.dominant()
        if dominant is not None:
            annotated["format"] = dominant
    if bundle.members.count:
        annotated["x-repro-cardinality"] = bundle.cardinality.estimate()
        annotated["x-repro-bloom"] = {
            "size": bundle.members.size,
            "hashes": bundle.members.hashes,
            "count": bundle.members.count,
            "fpr": bundle.members.false_positive_rate(),
            "bits": base64.b64encode(
                bundle.members.bits.to_bytes(
                    bundle.members.size // 8, "little"
                )
            ).decode("ascii"),
        }
    return annotated


def _map_key_prefixes(
    prefixes: List[Path], paths: Dict[Path, PathSketches]
) -> List[Path]:
    """One-step extensions of ``prefixes`` by every observed map key.

    The observed keys are recovered from the sketch path table itself:
    any recorded path that strictly extends a prefix names, at the
    prefix's depth, a key that occurred there.  Sorted for determinism.
    """
    extended = set()
    for prefix in prefixes:
        depth = len(prefix)
        for path in paths:
            if len(path) > depth and path[:depth] == prefix:
                step = path[depth]
                if isinstance(step, str):
                    extended.add(prefix + (step,))
    return sorted(extended)


def _merged_bundle(
    prefixes: List[Path], paths: Dict[Path, PathSketches]
) -> Optional[PathSketches]:
    bundles = [paths[prefix] for prefix in prefixes if prefix in paths]
    if not bundles:
        return None
    merged = bundles[0]
    for bundle in bundles[1:]:
        merged = merged.merge(bundle)
    return merged
