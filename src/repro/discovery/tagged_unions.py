"""Tagged-union extraction from discriminant-key evidence.

"Extracting JSON Schemas with Tagged Unions" (PAPERS.md) observes that
heterogeneous record collections are often *tagged*: one low-entropy
key (``"type"``, ``"kind"``, ``"event"``) whose value predicts the
shape of the rest of the record.  Structural clustering recovers the
shapes but not the tag; this module recovers the tag from the
discriminant evidence that :class:`~repro.discovery.sketches
.EnrichmentState` accumulates (root-level key → scalar value →
record-shape counters) and synthesizes ``oneOf``/``if-then`` tagged
unions as an alternative entity representation, comparable
head-to-head with jxplain's Bimax/GreedyMerge path.

A key qualifies as a discriminant when, over the absorbed records:

* **coverage** — it is present (with an admissible scalar value) in at
  least ``min_coverage`` of the records;
* **cardinality** — it takes between 2 and ``max_branches`` distinct
  values, and its evidence never saturated (a saturated table means
  the key behaved like an id, not a tag);
* **entropy** — the Shannon entropy of its value distribution is at
  most ``max_entropy`` bits (a tag concentrates on a few values);
* **predictiveness** — knowing the value pins down the record's
  structure.  Each value's *signature* is the intersection of the
  depth-2 key-path shapes observed with it — optional fields and
  map-style random keys (``signatures.<server>``) drop out of the
  intersection, so the signature is the value's *required* structure.
  Predictiveness is the count-weighted fraction of records whose
  value's signature is unique among the key's values; it must reach
  ``min_predictiveness``, which also forces at least two structurally
  distinct branches.

The best qualifying key (by predictiveness, then coverage, then lower
entropy, then name — a total, deterministic order) becomes a
:class:`TaggedUnionDecision`.  Each branch's schema is the K-reduction
of the record types whose shape co-occurred with that value, so
branches stay consistent with the structural pass over the same bag.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.discovery.kreduce import merge_k
from repro.discovery.sketches import (
    EnrichmentState,
    Scalar,
    scalar_from_key,
)
from repro.jsontypes.bag import CountedBag
from repro.jsontypes.paths import Path, ROOT
from repro.jsontypes.types import ObjectType
from repro.records import FrozenRecord, Record
from repro.schema.nodes import Schema

__all__ = [
    "TaggedUnionBranch",
    "TaggedUnionConfig",
    "TaggedUnionDecision",
    "dumps_tagged_unions",
    "extract_tagged_unions",
    "loads_tagged_unions",
    "tagged_union_json_schema",
]


class TaggedUnionConfig(FrozenRecord):
    """Thresholds for discriminant-key qualification (see module doc)."""

    __slots__ = (
        "max_branches", "min_coverage", "max_entropy", "min_predictiveness",
        "min_records", "min_branch_support",
    )

    def __init__(
        self,
        max_branches: int = 16,
        min_coverage: float = 0.95,
        max_entropy: float = 4.0,
        min_predictiveness: float = 0.9,
        #: Below this many absorbed records the evidence is too thin to
        #: call anything a tag.
        min_records: int = 20,
        #: Every value must back its branch with at least this many
        #: records.
        min_branch_support: int = 2,
    ) -> None:
        self._init(
            max_branches, min_coverage, max_entropy, min_predictiveness,
            min_records, min_branch_support,
        )

    def validate(self) -> "TaggedUnionConfig":
        if self.max_branches < 2:
            raise ValueError(
                f"max_branches must be >= 2, got {self.max_branches}"
            )
        if not 0.0 < self.min_coverage <= 1.0:
            raise ValueError(
                f"min_coverage must be in (0, 1], got {self.min_coverage}"
            )
        if self.max_entropy <= 0.0:
            raise ValueError(
                f"max_entropy must be > 0, got {self.max_entropy}"
            )
        if not 0.0 < self.min_predictiveness <= 1.0:
            raise ValueError(
                "min_predictiveness must be in (0, 1], got "
                f"{self.min_predictiveness}"
            )
        if self.min_records < 1:
            raise ValueError(
                f"min_records must be >= 1, got {self.min_records}"
            )
        if self.min_branch_support < 1:
            raise ValueError(
                f"min_branch_support must be >= 1, got "
                f"{self.min_branch_support}"
            )
        return self


class TaggedUnionBranch(Record):
    """One arm of a tagged union: the tag value and its schema."""

    __slots__ = ("value", "count", "schema")

    def __init__(self, value: Scalar, count: int, schema: Schema) -> None:
        self._init(value, count, schema)


class TaggedUnionDecision(Record):
    """A detected discriminant key and its synthesized branches."""

    __slots__ = (
        "path", "key", "entropy", "coverage", "predictiveness", "branches",
    )

    def __init__(
        self,
        path: Path,
        key: str,
        entropy: float,
        coverage: float,
        predictiveness: float,
        branches: Optional[List[TaggedUnionBranch]] = None,
    ) -> None:
        self._init(
            path, key, entropy, coverage, predictiveness,
            [] if branches is None else branches,
        )

    def to_bytes(self) -> bytes:
        return dumps_tagged_unions([self])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaggedUnionDecision):
            return NotImplemented
        return other.to_bytes() == self.to_bytes()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None


class _Candidate(FrozenRecord):
    __slots__ = ("key", "entropy", "coverage", "predictiveness")

    def __init__(
        self, key: str, entropy: float, coverage: float, predictiveness: float
    ) -> None:
        self._init(key, entropy, coverage, predictiveness)

    def sort_key(self):
        # Descending predictiveness/coverage, ascending entropy, then
        # the key name: a total order, so extraction is deterministic.
        return (
            -self.predictiveness,
            -self.coverage,
            self.entropy,
            self.key,
        )


def type_shape(tau: ObjectType) -> Tuple[str, ...]:
    """Depth-2 key-path fingerprint of an :class:`ObjectType`.

    The exact mirror of :func:`repro.discovery.sketches.record_shape`
    on the type side: ``type_shape(type_of(record)) ==
    record_shape(record)`` for every dict record, which is what lets
    branch membership join discriminant evidence (collected from
    values) against the retained type bag (collected from types).
    """
    parts = []
    for key, child in tau.fields:
        parts.append(key)
        if isinstance(child, ObjectType):
            for grandchild, _ in child.fields:
                parts.append(key + "." + grandchild)
    return tuple(sorted(set(parts)))


def _value_counts(evidence) -> Dict[tuple, int]:
    return {
        tagged: sum(shapes.values())
        for tagged, shapes in evidence.values.items()
    }


def _shannon_entropy(counts, total: int) -> float:
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


def _signature(shapes: Dict[Tuple[str, ...], int]) -> frozenset:
    """A value's required structure: the key paths present in *every*
    shape observed with it.  Optional fields and random map keys occur
    in some shapes but not all, so they cancel out here."""
    iterator = iter(shapes)
    signature = set(next(iterator))
    for shape in iterator:
        signature.intersection_update(shape)
    return frozenset(signature)


def extract_tagged_unions(
    state,
    config: Optional[TaggedUnionConfig] = None,
) -> List[TaggedUnionDecision]:
    """Find root-level tagged unions in an enriched discovery state.

    ``state`` must carry a union-enabled enrichment sidecar *and* a
    retained type bag (L-reduce or JXPLAIN; K-reduce folds its bag
    away, so branch schemas cannot be reconstructed from it).  Returns
    at most one decision — the best-qualifying root discriminant — or
    an empty list when no key qualifies.
    """
    config = (config or TaggedUnionConfig()).validate()
    enrichment: Optional[EnrichmentState] = getattr(
        state, "enrichment", None
    )
    if enrichment is None or not enrichment.options.unions:
        raise ValueError(
            "tagged-union extraction needs a state discovered with "
            "--enrich unions (no discriminant evidence present)"
        )
    bag = getattr(state, "bag", None)
    if bag is None:
        raise ValueError(
            f"{type(state).__name__} retains no type bag; tagged-union "
            "branch schemas need l-reduce or jxplain state"
        )
    evidence = enrichment.discriminants
    if evidence.records < config.min_records:
        return []

    candidates: List[_Candidate] = []
    for key, key_evidence in evidence.keys.items():
        if key_evidence.saturated:
            continue
        counts = _value_counts(key_evidence)
        if not 2 <= len(counts) <= config.max_branches:
            continue
        present = key_evidence.present
        coverage = present / evidence.records
        if coverage < config.min_coverage:
            continue
        if min(counts.values()) < config.min_branch_support:
            continue
        entropy = _shannon_entropy(counts.values(), present)
        if entropy > config.max_entropy:
            continue
        signatures = {
            tagged: _signature(shapes)
            for tagged, shapes in key_evidence.values.items()
        }
        occurrences: Dict[frozenset, int] = {}
        for signature in signatures.values():
            occurrences[signature] = occurrences.get(signature, 0) + 1
        predicted = sum(
            counts[tagged]
            for tagged, signature in signatures.items()
            if occurrences[signature] == 1
        )
        predictiveness = predicted / present
        if predictiveness < config.min_predictiveness:
            continue
        candidates.append(
            _Candidate(key, entropy, coverage, predictiveness)
        )
    if not candidates:
        return []
    best = min(candidates, key=_Candidate.sort_key)
    key_evidence = evidence.keys[best.key]

    # Index the bag's object types by their shape once; every record
    # that fed the discriminant table contributed its type here, so
    # each observed shape resolves to at least one member type.
    by_shape: Dict[Tuple[str, ...], CountedBag] = {}
    for tau, count in bag.items():
        if isinstance(tau, ObjectType):
            shape = type_shape(tau)
            members = by_shape.get(shape)
            if members is None:
                members = by_shape[shape] = CountedBag()
            members.add(tau, count)

    branches = []
    for tagged in sorted(key_evidence.values):
        shapes = key_evidence.values[tagged]
        branch_bag = CountedBag()
        for shape in sorted(shapes):
            members = by_shape.get(shape)
            if members is not None:
                for tau, count in members.items():
                    branch_bag.add(tau, count)
        if not branch_bag:
            continue
        branches.append(
            TaggedUnionBranch(
                value=scalar_from_key(tagged),
                count=sum(shapes.values()),
                schema=merge_k(branch_bag),
            )
        )
    if len(branches) < 2:
        return []
    return [
        TaggedUnionDecision(
            path=ROOT,
            key=best.key,
            entropy=best.entropy,
            coverage=best.coverage,
            predictiveness=best.predictiveness,
            branches=branches,
        )
    ]


def tagged_union_json_schema(
    decision: TaggedUnionDecision, style: str = "one-of"
) -> dict:
    """Render a decision as a JSON Schema tagged union.

    ``one-of`` emits a ``oneOf`` whose arms pair a ``const`` guard on
    the discriminant with the branch schema; ``if-then`` chains the
    same guards as nested ``if``/``then``/``else``.
    """
    from repro.schema.jsonschema import to_json_schema

    if style not in ("one-of", "if-then"):
        raise ValueError(
            f"unknown tagged-union style {style!r}; "
            "known: one-of, if-then"
        )
    arms = []
    for branch in decision.branches:
        guard = {
            "properties": {decision.key: {"const": branch.value}},
            "required": [decision.key],
        }
        body = to_json_schema(branch.schema)
        arms.append((guard, body))
    if style == "one-of":
        return {
            "oneOf": [
                {"allOf": [guard, body]} for guard, body in arms
            ]
        }
    # if-then: fold from the last arm backwards so the first branch is
    # the outermost conditional.
    document: dict = {}
    for guard, body in reversed(arms):
        conditional = {"if": guard, "then": body}
        if document:
            conditional["else"] = document
        document = conditional
    return document


def dumps_tagged_unions(decisions: List[TaggedUnionDecision]) -> bytes:
    """Serialize decisions (lazy delegate to the codec)."""
    from repro.discovery import codec

    return codec.dumps_tagged_unions(decisions)


def loads_tagged_unions(data: bytes) -> List[TaggedUnionDecision]:
    """Deserialize decisions (lazy delegate to the codec)."""
    from repro.discovery import codec

    return codec.loads_tagged_unions(data)
