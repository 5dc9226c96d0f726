"""Co-reference detection (the future work of §8 / related work [30]).

Web APIs repeat entities at multiple paths — a tweet's ``user`` object
also appears under ``retweeted_status.user`` and every mention.  The
paper lists detecting these *co-references* as an open extension; this
module implements it over discovered schemas:

* :func:`find_coreferences` walks a schema, fingerprints every
  tuple-like object node, and groups paths whose schemas are exactly
  equal or nearly equal (key-set Jaccard above a threshold with no
  conflicting field kinds);
* :func:`unify_coreferences` rewrites the schema so every member of a
  group shares one *unified* node (fields unioned, required keys
  intersected) — shrinking the description and making the repeated
  entity explicit.

Detection is purely structural, matching the paper's setting (no node
labels, no values).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.jsontypes.paths import Path, ROOT, STAR, render_path
from repro.records import Record
from repro.schema.nodes import (
    ArrayCollection,
    ArrayTuple,
    ObjectCollection,
    ObjectTuple,
    Schema,
    Union,
    union,
)

#: Minimum key-set Jaccard index for near-equal grouping.
DEFAULT_JACCARD = 0.8

#: Minimum number of fields before a node is worth reporting: tiny
#: objects collide by chance.
MIN_FIELDS = 3


class CoReference(Record):
    """One repeated entity: its occurrence paths and unified schema."""

    __slots__ = ("paths", "unified", "exact", "members")

    def __init__(
        self,
        paths: List[Path],
        unified: ObjectTuple,
        exact: bool,
        members: Optional[List[ObjectTuple]] = None,
    ) -> None:
        self._init(paths, unified, exact, [] if members is None else members)

    @property
    def occurrences(self) -> int:
        return len(self.paths)

    def describe(self) -> str:
        kind = "exact" if self.exact else "near"
        keys = ", ".join(sorted(self.unified.all_keys)[:6])
        rendered = ", ".join(render_path(p) for p in self.paths)
        return (
            f"{kind} co-reference x{self.occurrences} "
            f"({{{keys}{', ...' if len(self.unified.all_keys) > 6 else ''}}})"
            f" at {rendered}"
        )


def _object_tuple_sites(
    schema: Schema, path: Path = ROOT
) -> List[Tuple[Path, ObjectTuple]]:
    """Every ObjectTuple node in the schema with its path."""
    sites: List[Tuple[Path, ObjectTuple]] = []
    if isinstance(schema, Union):
        for branch in schema.branches:
            sites.extend(_object_tuple_sites(branch, path))
        return sites
    if isinstance(schema, ObjectTuple):
        sites.append((path, schema))
        for key, child in schema.required + schema.optional:
            sites.extend(_object_tuple_sites(child, path + (key,)))
        return sites
    if isinstance(schema, ArrayTuple):
        for index, child in enumerate(schema.elements):
            sites.extend(_object_tuple_sites(child, path + (index,)))
        return sites
    if isinstance(schema, ArrayCollection):
        return _object_tuple_sites(schema.element, path + (STAR,))
    if isinstance(schema, ObjectCollection):
        return _object_tuple_sites(schema.value, path + (STAR,))
    return sites


def _jaccard(first: frozenset, second: frozenset) -> float:
    if not first and not second:
        return 1.0
    return len(first & second) / len(first | second)


def _kinds_compatible(first: ObjectTuple, second: ObjectTuple) -> bool:
    """Shared fields must agree on their admitted node structure."""
    for key in first.all_keys & second.all_keys:
        if first.field_schema(key) != second.field_schema(key):
            return False
    return True


def _unify(members: List[ObjectTuple]) -> ObjectTuple:
    """Union of fields; required = keys required by every member."""
    required_keys = set(members[0].required_keys)
    fields: Dict[str, Schema] = {}
    for member in members:
        required_keys &= member.required_keys
        for key, child in member.required + member.optional:
            existing = fields.get(key)
            fields[key] = child if existing is None else union(existing, child)
    return ObjectTuple(
        {k: v for k, v in fields.items() if k in required_keys},
        {k: v for k, v in fields.items() if k not in required_keys},
    )


def find_coreferences(
    schema: Schema,
    *,
    jaccard_threshold: float = DEFAULT_JACCARD,
    min_fields: int = MIN_FIELDS,
) -> List[CoReference]:
    """Find entities repeated at multiple paths of a schema.

    Exact groups first (identical ObjectTuple nodes at ≥ 2 distinct
    paths), then near groups (key-set Jaccard ≥ threshold and no
    conflicting shared fields).  Groups are disjoint; larger and
    exact-first.
    """
    sites = [
        (path, node)
        for path, node in _object_tuple_sites(schema)
        if len(node.all_keys) >= min_fields
    ]
    grouped: List[CoReference] = []
    used = [False] * len(sites)

    # Exact groups.
    by_node: Dict[ObjectTuple, List[int]] = {}
    for index, (_, node) in enumerate(sites):
        by_node.setdefault(node, []).append(index)
    for node, indices in by_node.items():
        distinct_paths = {sites[i][0] for i in indices}
        if len(distinct_paths) >= 2:
            for i in indices:
                used[i] = True
            grouped.append(
                CoReference(
                    paths=sorted(distinct_paths, key=repr),
                    unified=node,
                    exact=True,
                    members=[node],
                )
            )

    # Near groups over the remainder (greedy seeded by field count).
    order = sorted(
        (i for i in range(len(sites)) if not used[i]),
        key=lambda i: -len(sites[i][1].all_keys),
    )
    for seed_index in order:
        if used[seed_index]:
            continue
        _, seed = sites[seed_index]
        members = [seed_index]
        for other_index in order:
            if other_index == seed_index or used[other_index]:
                continue
            other_path, other = sites[other_index]
            if sites[seed_index][0] == other_path:
                continue
            score = _jaccard(seed.all_keys, other.all_keys)
            if score >= jaccard_threshold and _kinds_compatible(
                seed, other
            ):
                members.append(other_index)
        if len(members) >= 2:
            for i in members:
                used[i] = True
            member_nodes = [sites[i][1] for i in members]
            grouped.append(
                CoReference(
                    paths=sorted({sites[i][0] for i in members}, key=repr),
                    unified=_unify(member_nodes),
                    exact=False,
                    members=member_nodes,
                )
            )

    grouped.sort(key=lambda group: (-group.occurrences, not group.exact))
    return grouped


def unify_coreferences(
    schema: Schema,
    *,
    jaccard_threshold: float = DEFAULT_JACCARD,
    min_fields: int = MIN_FIELDS,
) -> Tuple[Schema, List[CoReference]]:
    """Rewrite the schema so each co-reference group shares one node.

    The unified node admits everything any occurrence admitted (fields
    unioned, required intersected), so the rewrite can only widen the
    schema — recall is preserved, precision may drop slightly, and the
    description shrinks.
    """
    groups = find_coreferences(
        schema,
        jaccard_threshold=jaccard_threshold,
        min_fields=min_fields,
    )
    replacement: Dict[ObjectTuple, ObjectTuple] = {}
    for group in groups:
        if group.exact:
            continue  # already a single node; nothing to rewrite
        for member in group.members:
            replacement[member] = group.unified
    return _rewrite(schema, replacement), groups


def _rewrite(
    schema: Schema, replacement: Dict[ObjectTuple, ObjectTuple]
) -> Schema:
    if isinstance(schema, Union):
        return union(*(_rewrite(b, replacement) for b in schema.branches))
    if isinstance(schema, ObjectTuple):
        target = replacement.get(schema, schema)
        return ObjectTuple(
            {k: _rewrite(v, replacement) for k, v in target.required},
            {k: _rewrite(v, replacement) for k, v in target.optional},
        )
    if isinstance(schema, ArrayTuple):
        return ArrayTuple(
            tuple(_rewrite(c, replacement) for c in schema.elements),
            schema.min_length,
        )
    if isinstance(schema, ArrayCollection):
        return ArrayCollection(
            _rewrite(schema.element, replacement), schema.max_length_seen
        )
    if isinstance(schema, ObjectCollection):
        return ObjectCollection(
            _rewrite(schema.value, replacement), schema.domain
        )
    return schema
