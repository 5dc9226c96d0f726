"""The contract of the record classes a ``discover`` process imports.

These classes are plain classes with ``__slots__`` and an explicit
``__init__`` (DESIGN.md §4): ``import repro.cli`` generates no code.
They keep the behaviour they had as ``@dataclass`` declarations:

* each constructor's parameter names, order and defaults, pinned by
  :data:`SIGNATURES` (generated from the ``@dataclass`` declarations);
* a field-wise ``==`` and the ``Name(field=value, ...)`` repr;
* no hash for the mutable ones;
* for the frozen ones: ``hash(tuple(fields))``, no assignment or
  deletion, and a ``pickle``/``copy.deepcopy`` round trip to an equal
  value; ``with_`` builds a new instance through the constructor.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
from collections import Counter

import pytest

from repro.discovery.config import EntityStrategy, FeatureMode, JxplainConfig
from repro.discovery.sketches import EnrichmentOptions
from repro.engine.instrument import StageTimer
from repro.errors import EngineError
from repro.jsontypes import type_of
from repro.jsontypes.kinds import Kind
from repro.jsontypes.similarity import SimilarityAccumulator
from repro.schema.nodes import NUMBER_S, exact_schema

#: Marks a ``default_factory`` parameter: omitting the argument gives
#: each instance a fresh, empty value of the named type.
FACTORY = "factory"

#: ``class path: (frozen, parameters)``.  A parameter is its name
#: (required), ``(name, repr(default))``, or ``(name, FACTORY, type)``.
SIGNATURES = {
    "repro.heuristics.collection.CollectionEvidence": (False, [
        "kind", ("record_count", "0"), ("key_counts", FACTORY, "Counter"),
        ("length_counts", FACTORY, "Counter"), ("mixed_kinds", "False"),
        ("similarity", FACTORY, "SimilarityAccumulator"),
    ]),
    "repro.discovery.config.JxplainConfig": (True, [
        ("entropy_threshold", "1.0"), ("similarity_depth", "None"),
        ("detect_array_tuples", "True"),
        ("detect_object_collections", "True"),
        ("entity_strategy", "<EntityStrategy.BIMAX_MERGE: 'bimax-merge'>"),
        ("feature_mode", "<FeatureMode.PATHS: 'paths'>"),
        ("kmeans_k", "None"), ("kmeans_seed", "0"),
        ("kmeans_weighted", "False"), ("max_depth", "128"),
    ]),
    "repro.discovery.coref.CoReference": (False, [
        "paths", "unified", "exact", ("members", FACTORY, "list"),
    ]),
    "repro.discovery.fold.ObjectEntityAcc": (False, [
        "required", ("fields", FACTORY, "dict"),
    ]),
    "repro.discovery.fold.ObjectCollAcc": (False, [
        ("value", "None"), ("domain", FACTORY, "set"),
    ]),
    "repro.discovery.fold.ArrayEntityAcc": (False, [
        "min_length", ("positions", FACTORY, "list"),
    ]),
    "repro.discovery.fold.ArrayCollAcc": (False, [
        ("element", "None"), ("max_length", "0"),
    ]),
    "repro.discovery.fold.FoldNode": (False, [
        ("primitive_kinds", FACTORY, "set"),
        ("object_entities", FACTORY, "dict"), ("object_collection", "None"),
        ("array_entities", FACTORY, "dict"), ("array_collection", "None"),
    ]),
    "repro.discovery.pipeline.TupleShapes": (False, [
        ("object_features", FACTORY, "dict"),
        ("array_lengths", FACTORY, "dict"),
    ]),
    "repro.discovery.pipeline.PipelineResult": (False, [
        "schema", "decisions", "object_partitioners", "array_partitioners",
        "timer", "record_count", ("ingest_report", "None"),
        ("state", "None"),
    ]),
    "repro.discovery.sketches.EnrichmentOptions": (True, [
        ("sketches", "True"), ("unions", "False"), ("bloom_bits", "1024"),
        ("bloom_hashes", "4"), ("hll_precision", "8"),
        ("union_value_cap", "32"), ("union_string_cap", "64"),
    ]),
    "repro.discovery.stat_tree.StatTree": (False, [
        ("primitive_kinds", FACTORY, "Counter"), ("object_evidence", "None"),
        ("array_evidence", "None"), ("children", FACTORY, "dict"),
        ("similarity_depth", "None"),
    ]),
    "repro.discovery.stat_tree.PathEntropy": (False, [
        "path", "kind", "entropy", "instances", "distinct_keys",
        "elements_similar",
    ]),
    "repro.discovery.tagged_unions.TaggedUnionConfig": (True, [
        ("max_branches", "16"), ("min_coverage", "0.95"),
        ("max_entropy", "4.0"), ("min_predictiveness", "0.9"),
        ("min_records", "20"), ("min_branch_support", "2"),
    ]),
    "repro.discovery.tagged_unions.TaggedUnionBranch": (False, [
        "value", "count", "schema",
    ]),
    "repro.discovery.tagged_unions.TaggedUnionDecision": (False, [
        "path", "key", "entropy", "coverage", "predictiveness",
        ("branches", FACTORY, "list"),
    ]),
    "repro.discovery.tagged_unions._Candidate": (True, [
        "key", "entropy", "coverage", "predictiveness",
    ]),
    "repro.engine.executor.RetryPolicy": (True, [
        ("max_retries", "2"), ("task_timeout", "None"),
        ("backoff_base", "0.01"), ("backoff_multiplier", "2.0"),
        ("jitter", "0.1"), ("seed", "0"), ("on_failure", "'serial'"),
    ]),
    "repro.engine.faults.CorruptResult": (True, ["original"]),
    "repro.engine.faults.FaultSpec": (True, [
        "stage", "task_index", "kind", ("times", "1"), ("delay", "0.05"),
    ]),
    "repro.engine.faults.FaultPlan": (True, [("faults", FACTORY, "tuple")]),
    "repro.engine.sharding.ShardPlan": (True, [
        "path", "file_size", "ranges",
    ]),
    "repro.engine.sharding.ShardTask": (True, [
        "index", "path", "start", "end", "algorithm", ("config", "None"),
        ("on_bad_record", "'raise'"), ("ingest", "'fused'"),
        ("checkpoint_dir", "None"), ("enrich", "None"),
    ]),
    "repro.engine.sharding.ShardResult": (False, [
        "index", "state_bytes", "report", ("counter_deltas", FACTORY, "dict"),
        ("worker_pid", "0"), ("resumed", "False"),
    ]),
    "repro.engine.sharding.ShardRunResult": (False, [
        "state", "report", "plan", ("resumed_shards", "0"),
        ("skipped_shards", "0"), ("partial_bytes", "0"),
    ]),
    "repro.entities.bimax.EntityCluster": (False, [
        "maximal", ("members", FACTORY, "list"), ("synthesized", "False"),
        ("member_counts", "None"),
    ]),
    "repro.entities.features.FeatureVectorSet": (False, ["counts"]),
    "repro.entities.features.FeatureMemoryProfile": (False, [
        "sparse_bytes", "dense_bytes", "pruned_sparse_bytes",
        "pruned_dense_bytes", "distinct_vectors", "pruned_distinct_vectors",
    ]),
    "repro.entities.kmeans.KMeansResult": (False, [
        "labels", "centroids", "vocabulary", "inertia",
    ]),
    "repro.io.jsonlines.BadRecord": (True, [
        "line_number", "byte_offset", "error", ("payload", "''"),
    ]),
    "repro.io.jsonlines.IngestReport": (False, [
        "path", ("policy", "'raise'"), ("total_lines", "0"),
        ("record_count", "0"), ("bad_records", FACTORY, "list"),
    ]),
    "repro.io.sampling.TrainTestSplit": (False, ["train", "test"]),
}

FROZEN = sorted(name for name, (frozen, _) in SIGNATURES.items() if frozen)
MUTABLE = sorted(
    name for name, (frozen, _) in SIGNATURES.items() if not frozen
)


def _class(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _names(path: str):
    return [
        param if isinstance(param, str) else param[0]
        for param in SIGNATURES[path][1]
    ]


def _sample(path: str) -> dict:
    """A value for every field, none of them the default."""
    cls = _class
    fold = "repro.discovery.fold."
    report = cls("repro.io.jsonlines.IngestReport")("in.jsonl")
    plan = cls("repro.engine.sharding.ShardPlan")(
        "in.jsonl", 100, ((0, 50), (50, None))
    )
    samples = {
        "repro.heuristics.collection.CollectionEvidence": dict(
            kind=Kind.OBJECT, record_count=3, key_counts=Counter(a=3),
            length_counts=Counter({2: 1}), mixed_kinds=True,
            similarity=SimilarityAccumulator(4),
        ),
        "repro.discovery.config.JxplainConfig": dict(
            entropy_threshold=0.5, similarity_depth=4,
            detect_array_tuples=False, detect_object_collections=False,
            entity_strategy=EntityStrategy.KMEANS,
            feature_mode=FeatureMode.KEYS, kmeans_k=3, kmeans_seed=7,
            kmeans_weighted=True, max_depth=64,
        ),
        "repro.discovery.coref.CoReference": dict(
            paths=[("a",), ("b",)],
            unified=exact_schema(type_of({"x": 1, "y": "z"})),
            exact=True, members=[],
        ),
        fold + "ObjectEntityAcc": dict(
            required={"a"}, fields={"a": cls(fold + "FoldNode")()},
        ),
        fold + "ObjectCollAcc": dict(
            value=cls(fold + "FoldNode")(), domain={"k"},
        ),
        fold + "ArrayEntityAcc": dict(
            min_length=2, positions=[cls(fold + "FoldNode")()],
        ),
        fold + "ArrayCollAcc": dict(
            element=cls(fold + "FoldNode")(), max_length=3,
        ),
        fold + "FoldNode": dict(
            primitive_kinds={Kind.NUMBER},
            object_entities={0: cls(fold + "ObjectEntityAcc")({"a"})},
            object_collection=cls(fold + "ObjectCollAcc")(),
            array_entities={1: cls(fold + "ArrayEntityAcc")(1)},
            array_collection=cls(fold + "ArrayCollAcc")(),
        ),
        "repro.discovery.pipeline.TupleShapes": dict(
            object_features={("a",): {frozenset({"x"})}},
            array_lengths={("b",): {2}},
        ),
        "repro.discovery.pipeline.PipelineResult": dict(
            schema=NUMBER_S, decisions={}, object_partitioners={},
            array_partitioners={}, timer=StageTimer(), record_count=5,
            ingest_report=report, state="state",
        ),
        "repro.discovery.sketches.EnrichmentOptions": dict(
            sketches=False, unions=True, bloom_bits=2048, bloom_hashes=3,
            hll_precision=10, union_value_cap=8, union_string_cap=16,
        ),
        "repro.discovery.stat_tree.StatTree": dict(
            primitive_kinds=Counter({Kind.NUMBER: 2}),
            object_evidence=cls(
                "repro.heuristics.collection.CollectionEvidence"
            )(Kind.OBJECT),
            array_evidence=None,
            children={"a": cls("repro.discovery.stat_tree.StatTree")()},
            similarity_depth=3,
        ),
        "repro.discovery.stat_tree.PathEntropy": dict(
            path=("a",), kind=Kind.OBJECT, entropy=1.5, instances=4,
            distinct_keys=2, elements_similar=True,
        ),
        "repro.discovery.tagged_unions.TaggedUnionConfig": dict(
            max_branches=8, min_coverage=0.9, max_entropy=3.0,
            min_predictiveness=0.8, min_records=10, min_branch_support=3,
        ),
        "repro.discovery.tagged_unions.TaggedUnionBranch": dict(
            value="push", count=3, schema=NUMBER_S,
        ),
        "repro.discovery.tagged_unions.TaggedUnionDecision": dict(
            path=("payload",), key="type", entropy=1.0, coverage=1.0,
            predictiveness=1.0,
            branches=[cls("repro.discovery.tagged_unions.TaggedUnionBranch")(
                "push", 3, NUMBER_S
            )],
        ),
        "repro.discovery.tagged_unions._Candidate": dict(
            key="k", entropy=0.5, coverage=0.9, predictiveness=0.8,
        ),
        "repro.engine.executor.RetryPolicy": dict(
            max_retries=1, task_timeout=3.0, backoff_base=0.5,
            backoff_multiplier=3.0, jitter=0.2, seed=9, on_failure="skip",
        ),
        "repro.engine.faults.CorruptResult": dict(original=("x", 1)),
        "repro.engine.faults.FaultSpec": dict(
            stage="shard", task_index=2, kind="delay", times=2, delay=0.5,
        ),
        "repro.engine.faults.FaultPlan": dict(faults=(
            cls("repro.engine.faults.FaultSpec")("*", 0, "raise"),
        )),
        "repro.engine.sharding.ShardPlan": dict(
            path="in.jsonl", file_size=100, ranges=((0, 50), (50, None)),
        ),
        "repro.engine.sharding.ShardTask": dict(
            index=1, path="in.jsonl", start=50, end=None,
            algorithm="bimax-merge", config=JxplainConfig(max_depth=64),
            on_bad_record="skip", ingest="classic", checkpoint_dir="ck",
            enrich=EnrichmentOptions(unions=True),
        ),
        "repro.engine.sharding.ShardResult": dict(
            index=1, state_bytes=b"xy", report=report,
            counter_deltas={"a": 1}, worker_pid=42, resumed=True,
        ),
        "repro.engine.sharding.ShardRunResult": dict(
            state="state", report=report, plan=plan, resumed_shards=1,
            skipped_shards=2, partial_bytes=3,
        ),
        "repro.entities.bimax.EntityCluster": dict(
            maximal=frozenset({"a", "b"}), members=[frozenset({"a"})],
            synthesized=True, member_counts=[2],
        ),
        "repro.entities.features.FeatureVectorSet": dict(
            counts=Counter({frozenset({("a",)}): 2}),
        ),
        "repro.entities.features.FeatureMemoryProfile": dict(
            sparse_bytes=1, dense_bytes=2, pruned_sparse_bytes=3,
            pruned_dense_bytes=4, distinct_vectors=5,
            pruned_distinct_vectors=6,
        ),
        "repro.entities.kmeans.KMeansResult": dict(
            labels=(0, 1), centroids=((1.0,), (0.0,)), vocabulary=("a",),
            inertia=0.5,
        ),
        "repro.io.jsonlines.BadRecord": dict(
            line_number=3, byte_offset=40, error="bad", payload="{",
        ),
        "repro.io.jsonlines.IngestReport": dict(
            path="in.jsonl", policy="collect", total_lines=4,
            record_count=3,
            bad_records=[cls("repro.io.jsonlines.BadRecord")(3, 40, "bad")],
        ),
        "repro.io.sampling.TrainTestSplit": dict(train=[1], test=[2]),
    }
    return samples[path]


def test_every_record_class_is_listed_once():
    from repro.records import FrozenRecord, Record

    assert len(SIGNATURES) == 32
    assert len(FROZEN) == 11
    listed = {_class(path) for path in SIGNATURES}
    found, pending = set(), [Record]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found.update(subclasses)
        pending.extend(subclasses)
    found.discard(FrozenRecord)
    assert found == listed
    for path, (frozen, _) in SIGNATURES.items():
        assert issubclass(_class(path), FrozenRecord) is frozen, path


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_constructor_keeps_names_order_and_defaults(path):
    cls = _class(path)
    params = list(inspect.signature(cls).parameters.values())
    assert [param.name for param in params] == _names(path)
    required = {
        name: value for name, value in _sample(path).items()
        if name in SIGNATURES[path][1]
    }
    first, second = cls(**required), cls(**required)
    for param, expected in zip(params, SIGNATURES[path][1]):
        if isinstance(expected, str):
            assert param.default is inspect.Parameter.empty, param
        elif expected[1] == FACTORY:
            value = getattr(first, param.name)
            assert type(value).__name__ == expected[2]
            if type(value) is not tuple:
                assert value is not getattr(second, param.name)
            if hasattr(value, "__len__"):
                assert len(value) == 0
        else:
            assert repr(param.default) == expected[1], param


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_equal_fields_compare_equal_with_the_same_repr(path):
    cls = _class(path)
    sample = _sample(path)
    first, second = cls(**sample), cls(**sample)
    assert first == second and not first != second
    assert first != object()
    shown = ", ".join(
        f"{name}={sample[name]!r}" for name in _names(path)
    )
    assert repr(first) == repr(second) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("path", sorted(
    set(SIGNATURES) - {"repro.discovery.tagged_unions.TaggedUnionDecision"}
))
def test_every_field_takes_part_in_equality(path):
    # (``TaggedUnionDecision`` compares by its codec bytes instead.)
    cls = _class(path)
    sample = _sample(path)
    first = cls(**sample)
    for name in _names(path):
        other = cls(**sample)
        object.__setattr__(other, name, object())
        assert first != other, name


@pytest.mark.parametrize("path", MUTABLE)
def test_mutable_records_are_unhashable(path):
    record = _class(path)(**_sample(path))
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("path", FROZEN)
def test_frozen_records_hash_by_their_fields(path):
    cls = _class(path)
    sample = _sample(path)
    first, second = cls(**sample), cls(**copy.deepcopy(sample))
    assert first == second
    values = tuple(getattr(first, name) for name in _names(path))
    assert hash(first) == hash(second) == hash(values)


@pytest.mark.parametrize("path", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(path):
    record = _class(path)(**_sample(path))
    for name in _names(path) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in _names(path):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == _class(path)(**_sample(path))


@pytest.mark.parametrize("path", FROZEN)
def test_frozen_records_pickle_and_deep_copy(path):
    record = _class(path)(**_sample(path))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record)
        assert restored == record, protocol
    duplicate = copy.deepcopy(record)
    assert type(duplicate) is type(record) and duplicate == record


@pytest.mark.parametrize("path, override", [
    ("repro.discovery.config.JxplainConfig", {"max_depth": 32}),
    ("repro.engine.executor.RetryPolicy", {"jitter": 0.0}),
])
def test_with_builds_a_new_validated_instance(path, override):
    cls = _class(path)
    sample = _sample(path)
    record = cls(**sample)
    changed = record.with_(**override)
    assert changed is not record and changed != record
    assert changed == cls(**{**sample, **override})
    assert record == cls(**sample)
    if hasattr(changed, "validate"):
        changed.validate()
    with pytest.raises(TypeError):
        record.with_(no_such_field=1)


def test_retry_policy_with_runs_the_constructor_checks():
    policy = _class("repro.engine.executor.RetryPolicy")()
    with pytest.raises(EngineError):
        policy.with_(jitter=2.0)
    with pytest.raises(EngineError):
        policy.with_(max_retries=-1)


def test_feature_vector_set_cache_is_not_a_field():
    cls = _class("repro.entities.features.FeatureVectorSet")
    sample = _sample("repro.entities.features.FeatureVectorSet")
    cached, fresh = cls(**sample), cls(**sample)
    cached.vocabulary()
    assert cached == fresh and repr(cached) == repr(fresh)


def test_init_refuses_a_wrong_number_of_values():
    split = _class("repro.io.sampling.TrainTestSplit")([1], [2])
    with pytest.raises(ValueError):
        split._init([3])
    with pytest.raises(ValueError):
        split._init([3], [4], [5])
