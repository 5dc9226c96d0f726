"""Incremental (streaming) schema discovery.

The paper's monitoring scenario is continuous: events keep arriving.
Re-running discovery from scratch per batch wastes the work already
done; this module maintains a schema incrementally, as a thin novelty
layer over the mergeable, serializable states of
:mod:`repro.discovery.state`:

* :class:`StreamingKReduce` — exact: K-reduction distributes over
  union, so a :class:`~repro.discovery.state.KReduceState` folded one
  record at a time *is* the batch K-reduce schema at every point in
  the stream.
* :class:`StreamingJxplain` — JXPLAIN's heuristics need global
  statistics, so per-record exact streaming is impossible (that is
  §4.2's whole point).  Instead every record is absorbed into a
  :class:`~repro.discovery.state.JxplainState` (config + type bag)
  continuously, and the schema is re-synthesized lazily — on demand,
  or whenever a configurable number of *novel* records (records the
  current schema rejects) accumulates.  At each synthesis point the
  schema equals one-shot batch discovery over everything observed so
  far (property-tested), because the state is exactly the batch
  pipeline's sufficient statistics.

Both expose ``observe`` / ``observe_many`` / ``current_schema``, carry
their state (``.state`` / ``from_state``) for checkpointing, and merge
associatively (``merge_with``) for partitioned streams.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.discovery.config import JxplainConfig
from repro.discovery.state import JxplainState, KReduceState
from repro.errors import EmptyInputError
from repro.jsontypes.types import JsonValue, type_of
from repro.schema.nodes import Schema


class StreamingKReduce:
    """Exact incremental K-reduction via the associative fold."""

    def __init__(self) -> None:
        self._state = KReduceState()

    @property
    def record_count(self) -> int:
        return self._state.record_count

    @property
    def state(self) -> KReduceState:
        """The underlying checkpointable state."""
        return self._state

    @classmethod
    def from_state(cls, state: KReduceState) -> "StreamingKReduce":
        """Resume a stream from a (loaded) state."""
        if not isinstance(state, KReduceState):
            raise TypeError(
                f"expected KReduceState, got {type(state).__name__}"
            )
        stream = cls()
        stream._state = state
        return stream

    def observe(self, record: JsonValue) -> Schema:
        """Fold one record in; returns the updated schema."""
        self._state.absorb(record)
        return self._state.schema

    def observe_many(self, records: Iterable[JsonValue]) -> Schema:
        for record in records:
            self.observe(record)
        return self._state.schema

    def current_schema(self) -> Schema:
        if self._state.record_count == 0:
            raise EmptyInputError("no records observed yet")
        return self._state.schema

    def merge_with(self, other: "StreamingKReduce") -> "StreamingKReduce":
        """Combine two independently-fed streams (associativity)."""
        return StreamingKReduce.from_state(
            self._state.merge(other._state)
        )


class StreamingJxplain:
    """Incremental JXPLAIN: absorb always, re-synthesize on novelty.

    ``resynthesize_after`` controls laziness: after that many *novel*
    records (ones the current schema rejects) the schema is rebuilt
    from the accumulated state.  ``max_retained`` bounds memory by
    capping how many *distinct* types the state retains — duplicates
    of retained types always fold in (they only bump multiplicities),
    while brand-new types past the cap are counted but not absorbed,
    so the synthesized schema degrades gracefully instead of growing
    without bound.
    """

    def __init__(
        self,
        config: Optional[JxplainConfig] = None,
        *,
        resynthesize_after: int = 32,
        max_retained: int = 50_000,
        enrich=None,
    ):
        if resynthesize_after <= 0:
            raise ValueError("resynthesize_after must be positive")
        self._state = JxplainState(config)
        if enrich is not None:
            from repro.discovery.sketches import (
                EnrichmentState,
                parse_enrich_spec,
            )

            self._state.enrichment = EnrichmentState(
                parse_enrich_spec(enrich)
            )
        self.config = self._state.config
        self.resynthesize_after = resynthesize_after
        self.max_retained = max_retained
        self._seen: set = set()
        self._schema: Optional[Schema] = None
        self._novel_since_synthesis = 0
        self._count = 0
        self._synthesis_count = 0
        self._dropped_types = 0

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def retained_types(self) -> int:
        """Distinct types held by the state (capped by ``max_retained``)."""
        return self._state.distinct_count

    @property
    def pending_novelty(self) -> int:
        """Novel records seen since the last synthesis."""
        return self._novel_since_synthesis

    @property
    def synthesis_count(self) -> int:
        """How many times the schema has been (re)synthesized."""
        return self._synthesis_count

    @property
    def dropped_types(self) -> int:
        """Distinct types not retained because of ``max_retained``."""
        return self._dropped_types

    @property
    def state(self) -> JxplainState:
        """The underlying checkpointable state."""
        return self._state

    @classmethod
    def from_state(
        cls,
        state: JxplainState,
        *,
        resynthesize_after: int = 32,
        max_retained: int = 50_000,
    ) -> "StreamingJxplain":
        """Resume a stream from a (loaded) state."""
        if not isinstance(state, JxplainState):
            raise TypeError(
                f"expected JxplainState, got {type(state).__name__}"
            )
        stream = cls(
            state.config,
            resynthesize_after=resynthesize_after,
            max_retained=max_retained,
        )
        stream._state = state
        stream._seen = set(state.bag.distinct())
        stream._count = state.record_count
        return stream

    def observe(self, record: JsonValue) -> bool:
        """Absorb one record; returns True if it was novel.

        Novel = its exact type was never seen AND the current schema
        (if any) rejects it.
        """
        self._count += 1
        tau = type_of(record)
        # ``absorb_typed`` keeps an enriched state's sidecar in step
        # with the structural fold: enrichment observes exactly the
        # records whose types are absorbed, so records dropped by the
        # ``max_retained`` cap leave both sides untouched.
        if tau in self._seen:
            self._state.absorb_typed(tau, record)
            return False
        self._seen.add(tau)
        if self._state.distinct_count < self.max_retained:
            self._state.absorb_typed(tau, record)
        else:
            self._dropped_types += 1
        novel = self._schema is None or not self._schema.admits_type(tau)
        if novel:
            self._novel_since_synthesis += 1
            if self._novel_since_synthesis >= self.resynthesize_after:
                self._synthesize()
        return novel

    def observe_many(self, records: Iterable[JsonValue]) -> int:
        """Absorb records; returns how many were novel."""
        return sum(1 for record in records if self.observe(record))

    def _synthesize(self) -> None:
        self._schema = self._state.synthesize()
        self._novel_since_synthesis = 0
        self._synthesis_count += 1

    def current_schema(self) -> Schema:
        """The up-to-date schema (synthesizing if novelty is pending)."""
        if self._state.record_count == 0:
            raise EmptyInputError("no records observed yet")
        if self._schema is None or self._novel_since_synthesis:
            self._synthesize()
        return self._schema

    def validates(self, record: JsonValue) -> bool:
        """Would the current schema accept this record?"""
        return self.current_schema().admits_type(type_of(record))

    def merge_with(self, other: "StreamingJxplain") -> "StreamingJxplain":
        """Combine two independently-fed streams (associativity)."""
        merged = StreamingJxplain.from_state(
            self._state.merge(other._state),
            resynthesize_after=self.resynthesize_after,
            max_retained=self.max_retained,
        )
        merged._count = self._count + other._count
        merged._dropped_types = self._dropped_types + other._dropped_types
        return merged
