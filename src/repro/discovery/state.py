"""Serializable, mergeable discovery state (the monoid core).

Every discovery algorithm in this package is, at heart, a fold over
record types whose accumulator forms a **commutative monoid**:
``empty()`` is the identity, ``absorb`` folds one record in, and
``merge`` combines two independently built accumulators.  JSONoid
(arXiv:2307.03113) showed that making this structure explicit is what
unlocks distributed and incremental schema inference; this module is
that formulation for L-reduce, K-reduce, and JXPLAIN.

A :class:`DiscoveryState` is the whole lifecycle in one object:

* ``empty()`` / ``absorb(value)`` / ``absorb_type(tau, count)`` —
  build a state from records (or pre-extracted types);
* ``merge(other)`` — combine partial states (associative, commutative
  up to schema equivalence; property-tested);
* ``synthesize()`` — derive the schema.  States carry *sufficient
  statistics*, not schemas, so synthesis can be re-run after more
  records arrive;
* ``to_bytes()`` / ``from_bytes()`` — the versioned wire format of
  :mod:`repro.discovery.codec`.  Serialization is deterministic, so
  state equality **is** byte equality.

:func:`save_state` / :func:`load_state` wrap the byte form in an
atomic checkpoint file, which is what gives the pipeline and CLI their
resume/append capability.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.discovery import codec
from repro.discovery.codec import Decoder, Encoder
from repro.discovery.config import EntityStrategy, JxplainConfig
from repro.discovery.sketches import EnrichmentState, parse_enrich_spec
from repro.engine.instrument import counters
from repro.errors import CheckpointError, EmptyInputError, StateCodecError
from repro.jsontypes.bag import CountedBag
from repro.jsontypes.types import JsonType, JsonValue, type_of
from repro.schema.nodes import (
    NEVER,
    Schema,
    exact_schema,
    union_of,
)

#: Payload-kind prefix of every serialized state.
STATE_KIND_PREFIX = "state:"


class DiscoveryState:
    """Base class: the absorb/merge/synthesize lifecycle.

    Subclasses set :attr:`algorithm` (the registry name), implement
    :meth:`absorb_type`, :meth:`merge`, :meth:`synthesize`, and the
    codec hooks :meth:`_write_body` / :meth:`_read_body`.
    """

    #: Registry name; doubles as the payload-kind suffix.
    algorithm: str = ""

    #: Optional value-domain sidecar (PR 8): per-path sketches and
    #: discriminant evidence.  ``None`` (the default) keeps structural
    #: discovery value-free; when set, ``absorb``/``absorb_typed``
    #: also observe the record's *values*, and merge/serialization
    #: carry the sidecar along.  Strictly additive: the structural
    #: statistics and synthesized schema are untouched either way.
    enrichment: Optional[EnrichmentState] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "DiscoveryState":
        """The monoid identity: a state that has absorbed nothing."""
        return cls()

    # -- absorption -----------------------------------------------------------

    def absorb(self, value: JsonValue) -> None:
        """Fold one JSON value into the state."""
        # type_of runs first so depth/shape errors surface before the
        # enrichment sidecar sees anything — an errored record must
        # leave the state wholly untouched.
        tau = type_of(value)
        self.absorb_type(tau)
        if self.enrichment is not None:
            self.enrichment.observe(value, tau)

    def absorb_typed(self, tau: JsonType, value: JsonValue) -> None:
        """Fold a pre-tokenized ``(type, value)`` pair.

        The enriched fused-ingest path: the tokenizer already produced
        both the structural type and the value in one pass, so nothing
        is re-derived here.
        """
        self.absorb_type(tau)
        if self.enrichment is not None:
            self.enrichment.observe(value, tau)

    def absorb_type(self, tau: JsonType, count: int = 1) -> None:
        """Fold ``count`` records of type ``tau`` into the state."""
        raise NotImplementedError

    def absorb_types(self, types: Iterable[JsonType]) -> None:
        for tau in types:
            self.absorb_type(tau)

    def absorb_many(self, values: Iterable[JsonValue]) -> int:
        """Absorb an iterable of values; returns how many."""
        absorbed = 0
        for value in values:
            self.absorb(value)
            absorbed += 1
        return absorbed

    def absorb_bag(self, bag) -> None:
        """Fold a whole :class:`~repro.jsontypes.bag.CountedBag` in.

        Byte-identical to absorbing the bag's records one at a time
        (in bag order), at per-*distinct*-type cost — the sharding
        workers' fast path.  Subclasses may override with something
        cheaper (K-reduce folds the bag through ``merge_k`` once).
        """
        for tau, count in bag.items():
            self.absorb_type(tau, count)

    # -- the monoid operation -------------------------------------------------

    def merge(self, other: "DiscoveryState") -> "DiscoveryState":
        """Combine two states into a new one (inputs untouched)."""
        raise NotImplementedError

    def _check_mergeable(self, other: "DiscoveryState") -> None:
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        counters.add("state.merges")

    def _merge_enrichment(
        self, other: "DiscoveryState"
    ) -> Optional[EnrichmentState]:
        """The enrichment sidecar of ``self.merge(other)``.

        Both enriched or both plain; a mixed merge would silently drop
        half the value evidence, so it is an error.
        """
        if self.enrichment is None and other.enrichment is None:
            return None
        if self.enrichment is None or other.enrichment is None:
            raise ValueError(
                "cannot merge an enriched state with an unenriched one"
            )
        return self.enrichment.merge(other.enrichment)

    # -- synthesis ------------------------------------------------------------

    def synthesize(self) -> Schema:
        """Derive the schema from the accumulated statistics."""
        raise NotImplementedError

    @property
    def record_count(self) -> int:
        """Number of records absorbed (counting multiplicity)."""
        raise NotImplementedError

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        enc = Encoder()
        self._write_body(enc)
        enc.w.boolean(self.enrichment is not None)
        if self.enrichment is not None:
            codec.write_enrichment(enc, self.enrichment)
        return enc.finish(STATE_KIND_PREFIX + self.algorithm)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DiscoveryState":
        """Decode a serialized state.

        On the base class this dispatches on the payload kind, so
        ``DiscoveryState.from_bytes`` decodes any algorithm's state;
        on a subclass the payload must match that algorithm.
        """
        if cls is DiscoveryState:
            dec = Decoder(data)
            target = _state_class_for_kind(dec.kind)
        else:
            dec = Decoder(data, expect_kind=STATE_KIND_PREFIX + cls.algorithm)
            target = cls
        state = target._read_body(dec)
        if dec.r.boolean():
            state.enrichment = codec.read_enrichment(dec)
        dec.finish()
        return state

    def _write_body(self, enc: Encoder) -> None:
        raise NotImplementedError

    @classmethod
    def _read_body(cls, dec: Decoder) -> "DiscoveryState":
        raise NotImplementedError

    # -- equality is byte equality --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscoveryState):
            return NotImplemented
        return (
            type(other) is type(self)
            and other.to_bytes() == self.to_bytes()
        )

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # states are mutable accumulators

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} algorithm={self.algorithm!r}"
            f" records={self.record_count}>"
        )


class BagState(DiscoveryState):
    """A counted bag of record types: the whole sufficient statistic of
    every algorithm that synthesizes from the bag (L-reduce, JXPLAIN).

    Subclasses add synthesis, and any configuration, on top of the one
    absorb/merge/codec implementation here.
    """

    def __init__(self) -> None:
        self.bag = CountedBag()

    def _empty_like(self) -> "BagState":
        """An empty state that may merge with this one."""
        return type(self)()

    def absorb_type(self, tau: JsonType, count: int = 1) -> None:
        self.bag.add(tau, count)

    def merge(self, other: "DiscoveryState") -> "BagState":
        self._check_mergeable(other)
        merged = self._empty_like()
        merged.bag = self.bag.merge(other.bag)
        merged.enrichment = self._merge_enrichment(other)
        return merged

    @property
    def record_count(self) -> int:
        return self.bag.total

    @property
    def distinct_count(self) -> int:
        return self.bag.distinct_count

    def __contains__(self, tau: JsonType) -> bool:
        return tau in self.bag

    def _write_body(self, enc: Encoder) -> None:
        codec.write_bag(enc, self.bag)

    @classmethod
    def _read_body(cls, dec: Decoder) -> "BagState":
        state = cls()
        state.bag = codec.read_bag(dec)
        return state


class LReduceState(BagState):
    """L-reduction's sufficient statistic: the bag of record types.

    Synthesis unions the exact schema of every distinct type, in
    first-occurrence order (which fixes the rendered branch order).
    """

    algorithm = "l-reduce"

    def synthesize(self) -> Schema:
        if not self.bag:
            raise EmptyInputError("l-reduce state: no records absorbed")
        return union_of(exact_schema(tau) for tau in self.bag.distinct())


class KReduceState(DiscoveryState):
    """K-reduction's state: the running folded schema plus a count.

    ``merge_k_schemas`` is associative and commutative and the K-merge
    is multiplicity-invariant, so the folded schema *is* a sufficient
    statistic — no bag needs to be retained.
    """

    algorithm = "k-reduce"

    def __init__(self) -> None:
        self._schema: Schema = NEVER
        self._count = 0

    @property
    def schema(self) -> Schema:
        """The running folded schema (NEVER before any absorption)."""
        return self._schema

    def absorb_type(self, tau: JsonType, count: int = 1) -> None:
        from repro.discovery.kreduce import merge_k, merge_k_schemas

        self._schema = merge_k_schemas(self._schema, merge_k([tau]))
        self._count += count

    def absorb_bag(self, bag) -> None:
        """Fold a whole bag at once (the counted-bag fast path)."""
        from repro.discovery.kreduce import merge_k, merge_k_schemas

        if not bag:
            return
        self._schema = merge_k_schemas(self._schema, merge_k(bag))
        self._count += bag.total

    def merge(self, other: "DiscoveryState") -> "KReduceState":
        from repro.discovery.kreduce import merge_k_schemas

        self._check_mergeable(other)
        merged = KReduceState()
        merged._schema = merge_k_schemas(self._schema, other._schema)
        merged._count = self._count + other._count
        merged.enrichment = self._merge_enrichment(other)
        return merged

    def synthesize(self) -> Schema:
        if self._count == 0:
            raise EmptyInputError("k-reduce state: no records absorbed")
        return self._schema

    @property
    def record_count(self) -> int:
        return self._count

    def _write_body(self, enc: Encoder) -> None:
        enc.w.uvarint(self._count)
        codec.write_schema(enc, self._schema)

    @classmethod
    def _read_body(cls, dec: Decoder) -> "KReduceState":
        state = cls()
        state._count = dec.r.uvarint()
        state._schema = codec.read_schema(dec)
        return state


class JxplainState(BagState):
    """JXPLAIN's sufficient statistic: the type bag, under a config.

    The bag (with multiplicities) determines all three passes: pass ①
    builds its stat tree from the bag's distinct types weighted by
    their counts, pass ② reads the distinct types, and pass ③ folds
    them (its combine is idempotent over identical types, and the shape
    accumulator is a set union).  So absorb, merge and the wire format
    carry the bag alone, and checkpointing never needs the records.

    Merging requires equal configurations: the heuristics' thresholds
    are part of what the state means.
    """

    algorithm = "jxplain"

    def __init__(self, config: Optional[JxplainConfig] = None) -> None:
        super().__init__()
        self.config = config or JxplainConfig()
        self.config.validate()

    def _empty_like(self) -> "JxplainState":
        return JxplainState(self.config)

    def _check_mergeable(self, other: "DiscoveryState") -> None:
        super()._check_mergeable(other)
        if other.config != self.config:
            raise ValueError(
                "cannot merge jxplain states with different configurations"
            )

    def synthesize_result(self, *, heuristics=None, executor=None):
        """Run passes ①–③ over the statistics.

        Returns ``(schema, decisions, object_partitioners,
        array_partitioners)`` — everything
        :class:`~repro.discovery.pipeline.PipelineResult` needs.

        ``heuristics`` is a :class:`~repro.jsontypes.bag.CountedBag`
        (§4.2's sampling mitigation: one folded from a sample) that
        passes ① and ② read in place of this state's bag; pass ③
        always folds this state's bag.  ``executor`` fans pass ②'s
        per-path clustering out
        (:func:`~repro.discovery.pipeline.build_partitioners`).
        """
        from repro.discovery.fold import DecidedFolder, FoldNode
        from repro.discovery.pipeline import (
            FeatureExtractor,
            TupleShapes,
            build_partitioners,
        )
        from repro.discovery.stat_tree import StatTree, decide_collections

        if not self.bag:
            raise EmptyInputError("jxplain state: no records absorbed")
        evidence = self.bag if heuristics is None else heuristics
        tree = StatTree.from_types(
            evidence.distinct(),
            similarity_depth=self.config.similarity_depth,
            counts=evidence.counts(),
        )
        decisions = decide_collections(tree, self.config)
        extractor = FeatureExtractor(decisions, self.config)
        shapes = TupleShapes()
        for tau in evidence.distinct():
            shapes.add(tau, decisions, extractor)
        object_partitioners, array_partitioners = build_partitioners(
            shapes, self.config, executor=executor
        )
        folder = DecidedFolder(
            decisions,
            object_partitioners,
            array_partitioners,
            self.config,
            extractor=extractor,
        )
        node = FoldNode()
        for tau in self.bag.distinct():
            node = folder.combine(node, folder.lift(tau))
        return (
            folder.schema(node),
            decisions,
            object_partitioners,
            array_partitioners,
        )

    def synthesize(self) -> Schema:
        return self.synthesize_result()[0]

    def _write_body(self, enc: Encoder) -> None:
        codec.write_config(enc, self.config)
        super()._write_body(enc)

    @classmethod
    def _read_body(cls, dec: Decoder) -> "JxplainState":
        state = cls(codec.read_config(dec))
        state.bag = codec.read_bag(dec)
        if dec.version == 2:
            codec.skip_v2_stat_tree(dec)
        return state


_STATE_CLASSES = (LReduceState, KReduceState, JxplainState)
_STATE_KINDS = {
    STATE_KIND_PREFIX + klass.algorithm: klass for klass in _STATE_CLASSES
}


def _state_class_for_kind(kind: str):
    klass = _STATE_KINDS.get(kind)
    if klass is None:
        raise StateCodecError(f"unknown state payload kind {kind!r}")
    return klass


#: The names :func:`state_for_algorithm` accepts (and the CLI's
#: ``--algorithm`` choices): the registered discoverers, plus
#: ``jxplain``, the state's own name, which ``bimax-merge`` maps onto.
ALGORITHM_NAMES = (
    "bimax-merge",
    "bimax-naive",
    "jxplain",
    "jxplain-pipeline",
    "k-reduce",
    "l-reduce",
)


def state_for_algorithm(
    name: str,
    config: Optional[JxplainConfig] = None,
    enrich=None,
) -> DiscoveryState:
    """An empty state for a discoverer registry name.

    The JXPLAIN family maps onto :class:`JxplainState` with the
    matching entity strategy; ``config`` (when given) seeds the
    JXPLAIN configuration and is rejected for the reductions, which
    have no knobs.  ``enrich`` — ``None``, a ``--enrich`` spec string
    like ``"sketches,unions"``, or an
    :class:`~repro.discovery.sketches.EnrichmentOptions` — attaches a
    value-domain enrichment sidecar to the state.
    """
    options = parse_enrich_spec(enrich)
    if name == "l-reduce":
        if config is not None:
            raise ValueError("l-reduce takes no configuration")
        state: DiscoveryState = LReduceState()
    elif name == "k-reduce":
        if config is not None:
            raise ValueError("k-reduce takes no configuration")
        state = KReduceState()
    elif name in ("jxplain", "jxplain-pipeline", "bimax-merge"):
        state = JxplainState(config)
    elif name == "bimax-naive":
        base = config or JxplainConfig()
        state = JxplainState(
            base.with_(entity_strategy=EntityStrategy.BIMAX_NAIVE)
        )
    else:
        raise ValueError(
            f"unknown algorithm {name!r}; known: "
            + ", ".join(ALGORITHM_NAMES)
        )
    if options is not None:
        state.enrichment = EnrichmentState(options)
    return state


# -- checkpoint files ---------------------------------------------------------


def save_state(state: DiscoveryState, path) -> None:
    """Write a checkpoint atomically (write-to-temp, then rename)."""
    path = os.fspath(path)
    payload = state.to_bytes()
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
    os.replace(tmp_path, path)
    counters.add("state.checkpoints_written")


def load_state(path) -> DiscoveryState:
    """Read a checkpoint written by :func:`save_state`."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        state = DiscoveryState.from_bytes(payload)
    except CheckpointError:
        raise
    except StateCodecError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not a valid discovery state: {exc}"
        ) from exc
    counters.add("state.checkpoints_loaded")
    return state
