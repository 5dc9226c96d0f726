"""The staged three-pass JXPLAIN pipeline (Section 4.2, Figure 3).

Pass ① derives collection/tuple designations per path from a
:class:`~repro.discovery.stat_tree.StatTree`.  Pass ② collects the
distinct key-sets (objects) and lengths (arrays) at every
tuple-designated path and compiles them — via the configured Bimax
strategy — into deterministic :class:`EntityPartitioner`\\ s.  Pass ③
synthesizes the schema; with the heuristic answers fixed it is an
associative fold (:mod:`repro.discovery.fold`).

Figure 3 runs the passes as three scans because Spark cannot hold the
data, but the counted bag of record types is a sufficient statistic
for all three.  So both routes fold their input into a
:class:`~repro.discovery.state.JxplainState` and run its staged
synthesis (``JxplainState.synthesize_result``) once:
:meth:`JxplainPipeline.run` absorbs in-memory records, and
:meth:`JxplainPipeline.run_file` absorbs files — sharded over byte
ranges in workers when asked, which is where parallelism lives; the
synthesis runs once, in this process.  Every stage is timed
(:class:`~repro.engine.StageTimer`), which is what the Table 5 runtime
bench measures.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union as TUnion

from repro.discovery.base import Discoverer, register_discoverer
from repro.discovery.config import FeatureMode, JxplainConfig
from repro.discovery.jxplain import JxplainMerger, cluster_key_sets
from repro.discovery.stat_tree import CollectionDecisions
from repro.engine.instrument import StageTimer
from repro.entities.partitioner import EntityPartitioner
from repro.errors import EmptyInputError
from repro.heuristics.collection import CollectionEvidence, Designation
from repro.jsontypes.bag import CountedBag
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import (
    ArrayType,
    JsonType,
    JsonValue,
    ObjectType,
    type_of,
)
from repro.records import Record
from repro.schema.nodes import Schema


class FeatureExtractor:
    """Computes record feature vectors under global pass-① decisions.

    In ``PATHS`` mode a record's features are all of its paths, pruned
    beneath paths the decisions designate as collections (the §6.4
    optimisation); in ``KEYS`` mode, just the top-level key set.
    Relative collection-path sets are cached per base path, and each is
    drawn from the collection paths alone, filtered out of the
    decisions once.
    """

    def __init__(
        self, decisions: CollectionDecisions, config: JxplainConfig
    ):
        self._config = config
        self._collections = [
            path
            for (path, _kind), designation in decisions.items()
            if designation is Designation.COLLECTION
        ]
        self._cache: Dict[Path, frozenset] = {}

    def relative_collections(self, base: Path) -> frozenset:
        """Collection paths beneath ``base``, relative to it."""
        cached = self._cache.get(base)
        if cached is None:
            offset = len(base)
            cached = frozenset(
                path[offset:]
                for path in self._collections
                if len(path) > offset and path[:offset] == base
            )
            self._cache[base] = cached
        return cached

    def features(self, tau: ObjectType, base: Path) -> frozenset:
        if self._config.feature_mode is FeatureMode.KEYS:
            return tau.key_set()
        from repro.entities.features import type_paths

        return type_paths(
            tau,
            collection_paths=self.relative_collections(base),
            prune_nested=True,
        )


def _deterministic_feature_order(feature_sets: Set[frozenset]) -> List[frozenset]:
    """Stable ordering of feature sets (sets iterate hash-ordered)."""
    return sorted(
        feature_sets,
        key=lambda fs: (len(fs), tuple(sorted(repr(f) for f in fs))),
    )


class TupleShapes(Record):
    """Pass ②'s accumulator: observed shapes at tuple-designated paths."""

    __slots__ = ("object_features", "array_lengths")

    def __init__(
        self,
        object_features: Optional[Dict[Path, Set[frozenset]]] = None,
        array_lengths: Optional[Dict[Path, Set[int]]] = None,
    ) -> None:
        self._init(
            {} if object_features is None else object_features,
            {} if array_lengths is None else array_lengths,
        )

    def add(
        self,
        tau: JsonType,
        decisions: CollectionDecisions,
        extractor: FeatureExtractor,
    ) -> None:
        self._walk(tau, ROOT, decisions, extractor)

    def _walk(
        self,
        tau: JsonType,
        path: Path,
        decisions: CollectionDecisions,
        extractor: FeatureExtractor,
    ) -> None:
        if isinstance(tau, ObjectType):
            designation = decisions.get((path, Kind.OBJECT))
            if designation is Designation.COLLECTION:
                for _, value in tau.items():
                    self._walk(value, path + (STAR,), decisions, extractor)
            else:
                self.object_features.setdefault(path, set()).add(
                    extractor.features(tau, path)
                )
                for key, value in tau.items():
                    self._walk(value, path + (key,), decisions, extractor)
        elif isinstance(tau, ArrayType):
            designation = decisions.get((path, Kind.ARRAY))
            if designation is Designation.TUPLE:
                self.array_lengths.setdefault(path, set()).add(len(tau))
                for index, value in enumerate(tau.elements):
                    self._walk(value, path + (index,), decisions, extractor)
            else:
                for value in tau.elements:
                    self._walk(value, path + (STAR,), decisions, extractor)


def build_partitioners(
    shapes: TupleShapes, config: JxplainConfig
) -> "tuple[Dict[Path, EntityPartitioner], Dict[Path, EntityPartitioner]]":
    """Compile pass ②'s shapes into per-path entity partitioners.

    Each tuple-designated path clusters its key-sets (objects) or
    position-sets (arrays) independently with the configured Bimax
    strategy, in path order.
    """
    object_partitioners = {
        path: EntityPartitioner(
            cluster_key_sets(_deterministic_feature_order(feature_sets), config)
        )
        for path, feature_sets in shapes.object_features.items()
    }
    array_partitioners = {
        path: EntityPartitioner(
            cluster_key_sets(
                [
                    frozenset(str(i) for i in range(length))
                    for length in sorted(lengths)
                ],
                config,
            )
        )
        for path, lengths in shapes.array_lengths.items()
    }
    return object_partitioners, array_partitioners


class PipelineMerger(JxplainMerger):
    """Algorithm 4 with the heuristics replaced by pass ①/② lookups.

    Used for testing agreement between the staged pipeline and the
    associative fold; unseen paths fall back to the local heuristics.
    """

    def __init__(
        self,
        config: JxplainConfig,
        decisions: CollectionDecisions,
        object_partitioners: Dict[Path, EntityPartitioner],
        array_partitioners: Dict[Path, EntityPartitioner],
        extractor: Optional[FeatureExtractor] = None,
    ):
        super().__init__(config)
        self._decisions = decisions
        self._object_partitioners = object_partitioners
        self._array_partitioners = array_partitioners
        self._extractor = extractor or FeatureExtractor(decisions, config)

    def is_collection(
        self, kind: Kind, evidence: CollectionEvidence, path: Path
    ) -> bool:
        designation = self._decisions.get((path, kind))
        if designation is None:
            return super().is_collection(kind, evidence, path)
        return designation is Designation.COLLECTION

    def partition_objects(
        self,
        objects: Sequence[ObjectType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ObjectType]]:
        partitioner = self._object_partitioners.get(path)
        if partitioner is None:
            return super().partition_objects(objects, path, counts=counts)
        features = [
            self._extractor.features(tau, path) for tau in objects
        ]
        return partitioner.non_empty_groups(list(objects), features)

    def partition_arrays(
        self,
        arrays: Sequence[ArrayType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ArrayType]]:
        partitioner = self._array_partitioners.get(path)
        if partitioner is None:
            return super().partition_arrays(arrays, path, counts=counts)
        key_sets = [
            frozenset(str(i) for i in range(len(tau))) for tau in arrays
        ]
        return partitioner.non_empty_groups(list(arrays), key_sets)


class PipelineResult(Record):
    """Everything the staged pipeline produced."""

    __slots__ = (
        "schema", "decisions", "object_partitioners", "array_partitioners",
        "timer", "record_count", "ingest_report", "state",
    )

    def __init__(
        self,
        schema: Schema,
        decisions: CollectionDecisions,
        object_partitioners: Dict[Path, EntityPartitioner],
        array_partitioners: Dict[Path, EntityPartitioner],
        timer: StageTimer,
        record_count: int,
        #: Per-file ingestion account when the run came from
        #: :meth:`JxplainPipeline.run_file`; None for in-memory input.
        ingest_report: Optional[object] = None,
        #: The checkpointable :class:`~repro.discovery.state.JxplainState`
        #: when the run was asked to build one; None otherwise.
        state: Optional[object] = None,
    ) -> None:
        self._init(
            schema, decisions, object_partitioners, array_partitioners,
            timer, record_count, ingest_report, state,
        )

    @property
    def collection_paths(self) -> frozenset:
        return frozenset(
            path
            for (path, _), designation in self.decisions.items()
            if designation is Designation.COLLECTION
        )


class JxplainPipeline(Discoverer):
    """The distributable JXPLAIN of Section 4.2 (Figure 3)."""

    name = "jxplain-pipeline"

    def __init__(
        self,
        config: Optional[JxplainConfig] = None,
        *,
        use_fold: bool = True,
        heuristic_sample: Optional[float] = None,
        sample_seed: int = 0,
        executor=None,
        on_bad_record: str = "raise",
        ingest: str = "classic",
        shards=None,
        merge_fanin: Optional[int] = None,
        enrich=None,
    ):
        """``heuristic_sample`` enables §4.2's sampling mitigation:
        passes ① and ② run on a Bernoulli sample of that fraction,
        while pass ③ still synthesizes over the full data.  Paths that
        only occur outside the sample fall back to the
        data-independent defaults (objects tuple, arrays collection).

        The rest configure :meth:`run_file`.  ``executor`` (an
        :class:`~repro.engine.Executor`, which may carry a retry
        policy, or a spec string like ``"processes:4"``) runs the
        shards of a sharded run.  ``on_bad_record`` (``raise``,
        ``skip`` or ``collect``) governs malformed input lines.
        ``ingest`` picks the reader: ``"classic"`` parses values,
        ``"fused"`` streams interned record types (same schema, same
        report).  ``shards``
        reads each file as newline-aligned byte ranges in workers
        (:mod:`repro.engine.sharding`): ``"auto"`` sizes the shard
        count adaptively, an integer fixes it, and ``None`` (default)
        reads in this process; partials merge with fan-in
        ``merge_fanin``, byte-identical to an unsharded run.
        ``enrich`` (an ``--enrich`` spec string or
        :class:`~repro.discovery.sketches.EnrichmentOptions`) collects
        the value-domain sidecar alongside discovery and leaves the
        structural schema unchanged.  On resume, the checkpoint's own
        enrichment (or its absence) governs, like its config.
        """
        from repro.discovery.sketches import parse_enrich_spec
        from repro.io.jsonlines import _check_ingest_mode, _check_policy

        self.config = config or JxplainConfig()
        self.config.validate()
        _check_ingest_mode(ingest)
        self.ingest = ingest
        self.enrich = parse_enrich_spec(enrich)
        if shards is not None and shards != "auto":
            if not isinstance(shards, int) or shards < 1:
                raise ValueError(
                    "shards must be None, 'auto', or a positive int"
                )
        self.shards = shards
        self.merge_fanin = merge_fanin
        self.use_fold = use_fold
        if heuristic_sample is not None and not 0.0 < heuristic_sample <= 1.0:
            raise ValueError("heuristic_sample must be in (0, 1]")
        self.heuristic_sample = heuristic_sample
        self.sample_seed = sample_seed
        self.executor = executor
        _check_policy(on_bad_record)
        self.on_bad_record = on_bad_record

    # -- the staged synthesis over in-memory records -------------------------

    def run(self, data: Iterable[TUnion[JsonValue, JsonType]]) -> PipelineResult:
        """Absorb the records into a state and run passes ①–③ over it.

        ``data`` holds JSON values or ready-made record types.  Their
        counted bag (the sufficient statistic of all three passes) is
        absorbed into a :class:`~repro.discovery.state.JxplainState`,
        and the state's staged synthesis produces the schema and
        diagnostics — the same route files take through
        :meth:`run_file`.
        """
        from repro.discovery.state import JxplainState

        timer = StageTimer()
        state = JxplainState(self.config)
        sample_bag = None
        with timer.stage("absorb"):
            types = [
                record if isinstance(record, JsonType) else type_of(record)
                for record in data
            ]
            state.absorb_bag(CountedBag.from_types(types))
            fraction = self.heuristic_sample
            if fraction is not None and fraction < 1.0:
                sample_bag = _sample_bag(types, fraction, self.sample_seed)
        if not state.bag:
            raise EmptyInputError("pipeline: no input records")
        with timer.stage("synthesis"):
            (
                schema,
                decisions,
                object_partitioners,
                array_partitioners,
            ) = state.synthesize_result(heuristics=sample_bag)
            if not self.use_fold:
                schema = PipelineMerger(
                    self.config,
                    decisions,
                    object_partitioners,
                    array_partitioners,
                ).merge(state.bag)
        return PipelineResult(
            schema=schema,
            decisions=decisions,
            object_partitioners=object_partitioners,
            array_partitioners=array_partitioners,
            timer=timer,
            record_count=state.record_count,
        )

    def run_file(
        self,
        path=None,
        *,
        checkpoint=None,
        resume: bool = False,
        append: Sequence = (),
    ) -> PipelineResult:
        """Discover the schema of ``.jsonl`` input through the state.

        Loads (``resume=True``) or creates a
        :class:`~repro.discovery.state.JxplainState`, absorbs ``path``
        and the ``append`` files into it
        (:func:`~repro.engine.sharding.absorb_files`), and runs passes
        ①–③ over its statistics.  Files are read under the
        ``on_bad_record`` policy; the resulting
        :class:`~repro.io.jsonlines.IngestReport` rides along on the
        :class:`PipelineResult`.

        ``checkpoint`` names a state file: after the run, the state is
        saved there (atomically) and returned on the result.  With
        ``resume=True`` the run starts *from* that checkpoint, whose
        configuration and enrichment govern.  Resume-then-append is
        equivalent to one-shot discovery over the concatenated input
        (property-tested), which is what makes checkpoints safe to
        chain.
        """
        from repro.discovery.state import (
            JxplainState,
            load_state,
            state_for_algorithm,
        )
        from repro.engine.sharding import absorb_files, save_checkpoint

        if self.heuristic_sample is not None and self.heuristic_sample < 1.0:
            raise ValueError(
                "heuristic_sample applies to run(); run_file synthesizes "
                "from the full statistics"
            )
        paths = [path] if path is not None else []
        paths.extend(append)
        if resume:
            if checkpoint is None:
                raise ValueError("resume=True requires a checkpoint path")
            state = load_state(checkpoint)
            if not isinstance(state, JxplainState):
                from repro.errors import CheckpointError

                raise CheckpointError(
                    f"checkpoint holds a {state.algorithm!r} state; "
                    "the pipeline resumes jxplain states only"
                )
            self.config = state.config
        elif not paths:
            raise ValueError("run_file needs an input path (or resume=True)")
        else:
            state = state_for_algorithm(
                "jxplain", self.config, enrich=self.enrich
            )
        timer = StageTimer()
        state, reports = absorb_files(
            state,
            paths,
            ingest=self.ingest,
            on_bad_record=self.on_bad_record,
            shards=self.shards,
            executor=self.executor,
            merge_fanin=self.merge_fanin,
            checkpoint=checkpoint,
            timer=timer,
        )
        with timer.stage("synthesis"):
            (
                schema,
                decisions,
                object_partitioners,
                array_partitioners,
            ) = state.synthesize_result()
        if checkpoint is not None:
            save_checkpoint(state, checkpoint, paths)
        return PipelineResult(
            schema=schema,
            decisions=decisions,
            object_partitioners=object_partitioners,
            array_partitioners=array_partitioners,
            timer=timer,
            record_count=state.record_count,
            ingest_report=(
                reports[0] if len(reports) == 1 else (reports or None)
            ),
            state=state,
        )

    # -- Discoverer interface ------------------------------------------------------

    def merge_types(self, types: Iterable[JsonType]) -> Schema:
        return self.run(types).schema

    def discover(self, values: Iterable[JsonValue]) -> Schema:
        return self.run(values).schema


#: A heuristic sample is a pure function of ``(records, fraction,
#: seed)``: record ``i`` is kept on the next draw of RNG slot ``i % 4``,
#: seeded ``seed * 2654435761 + slot``.  Four slots reproduce the
#: samples of the four-partition layout ``run`` once round-robined its
#: records into, so recorded sampling results stay put.
_SAMPLE_SLOTS = 4


def _sample_bag(
    types: Sequence[JsonType], fraction: float, seed: int
) -> Optional[CountedBag]:
    """The counted bag of a Bernoulli sample of ``types``, or ``None``
    when the sample is empty."""
    draws = [
        random.Random(seed * 2654435761 + slot).random
        for slot in range(_SAMPLE_SLOTS)
    ]
    sample = CountedBag.from_types(
        tau
        for index, tau in enumerate(types)
        if draws[index % _SAMPLE_SLOTS]() < fraction
    )
    return sample if sample else None


register_discoverer(JxplainPipeline.name, JxplainPipeline)
