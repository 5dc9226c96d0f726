"""Tests for JXPLAIN's recursive merge (Algorithm 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.config import EntityStrategy, FeatureMode, JxplainConfig
from repro.discovery.jxplain import (
    Jxplain,
    JxplainNaive,
    cluster_key_sets,
    jxplain_merge,
)
from repro.errors import EmptyInputError
from repro.jsontypes.types import type_of
from repro.schema.entropy import schema_entropy
from repro.schema.nodes import (
    ArrayCollection,
    ArrayTuple,
    ObjectCollection,
    ObjectTuple,
    Union,
    iter_branches,
)
from tests.conftest import json_values

value_lists = st.lists(json_values(max_leaves=8), min_size=1, max_size=8)


class TestFigure1:
    def test_example8_entity_split(self, login_serve_stream):
        """JXPLAIN prefers S1 (two entities) over S2 (one entity)."""
        schema = Jxplain().discover(login_serve_stream)
        entities = [
            branch
            for branch in iter_branches(schema)
            if isinstance(branch, ObjectTuple)
        ]
        assert len(entities) == 2
        key_sets = {entity.all_keys for entity in entities}
        assert frozenset({"ts", "event", "user"}) in key_sets
        assert frozenset({"ts", "event", "files"}) in key_sets

    def test_example1_mixtures_rejected(self, login_serve_stream):
        schema = Jxplain().discover(login_serve_stream)
        assert not schema.admits_value(
            {
                "ts": 1,
                "event": "x",
                "user": {"name": "q", "geo": [1.0, 2.0]},
                "files": ["z"],
            }
        )
        assert not schema.admits_value({"ts": 10, "event": "wat"})

    def test_example5_geo_pairs_stay_tuples(self, login_serve_stream):
        """Coordinates survive as [number, number], not [number]*."""
        schema = Jxplain().discover(login_serve_stream)
        login = next(
            branch
            for branch in iter_branches(schema)
            if isinstance(branch, ObjectTuple) and "user" in branch.all_keys
        )
        geo = login.field_schema("user").field_schema("geo")
        assert isinstance(geo, ArrayTuple)
        assert len(geo.elements) == 2
        assert not geo.admits_value([1.0])
        assert not geo.admits_value([1.0, 2.0, 3.0])

    def test_training_recall_is_perfect(self, login_serve_stream):
        schema = Jxplain().discover(login_serve_stream)
        for record in login_serve_stream:
            assert schema.admits_value(record)


class TestCollectionDetection:
    def test_example6_collection_object(self, collection_like_records):
        """Pharma-style maps become {*: number}* and generalize."""
        schema = Jxplain().discover(collection_like_records)
        counts = schema.field_schema("counts")
        assert isinstance(counts, ObjectCollection)
        # Generalizes to unseen drugs — the paper's recall win.
        assert schema.admits_value(
            {"npi": 1, "counts": {"NEVER_SEEN_DRUG": 5}}
        )

    def test_collection_detection_can_be_disabled(
        self, collection_like_records
    ):
        config = JxplainConfig(detect_object_collections=False)
        schema = jxplain_merge(
            [type_of(r) for r in collection_like_records], config
        )
        assert not schema.admits_value(
            {"npi": 1, "counts": {"NEVER_SEEN_DRUG": 5}}
        )

    def test_array_tuple_detection_can_be_disabled(self):
        values = [[1.0, 2.0] for _ in range(20)]
        config = JxplainConfig(detect_array_tuples=False)
        schema = jxplain_merge([type_of(v) for v in values], config)
        assert isinstance(schema, ArrayCollection)


class TestEntityStrategies:
    def _stream(self):
        records = []
        for index in range(30):
            if index % 2:
                records.append({"id": index, "a": 1, "b": 2})
            else:
                records.append({"id": index, "x": "s", "y": "t"})
        return records

    def test_single_strategy_one_entity(self):
        config = JxplainConfig(entity_strategy=EntityStrategy.SINGLE)
        schema = jxplain_merge(
            [type_of(r) for r in self._stream()], config
        )
        assert isinstance(schema, ObjectTuple)

    def test_exact_strategy_matches_lreduce_entities(self):
        config = JxplainConfig(entity_strategy=EntityStrategy.EXACT)
        schema = jxplain_merge(
            [type_of(r) for r in self._stream()], config
        )
        assert isinstance(schema, Union)
        assert len(schema.branches) == 2

    def test_kmeans_strategy(self):
        config = JxplainConfig(
            entity_strategy=EntityStrategy.KMEANS, kmeans_k=2
        )
        schema = jxplain_merge(
            [type_of(r) for r in self._stream()], config
        )
        for record in self._stream():
            assert schema.admits_value(record)

    def test_strategy_entropy_ordering(self):
        """EXACT <= BIMAX_MERGE <= SINGLE in admitted types, on a
        clean two-entity stream."""
        types = [type_of(r) for r in self._stream()]
        entropies = {}
        for strategy in (
            EntityStrategy.EXACT,
            EntityStrategy.BIMAX_MERGE,
            EntityStrategy.SINGLE,
        ):
            config = JxplainConfig(entity_strategy=strategy)
            entropies[strategy] = schema_entropy(
                jxplain_merge(types, config)
            )
        assert (
            entropies[EntityStrategy.EXACT]
            <= entropies[EntityStrategy.BIMAX_MERGE]
            <= entropies[EntityStrategy.SINGLE]
        )


class TestClusterKeySets:
    def test_single(self):
        clusters = cluster_key_sets(
            [frozenset("ab"), frozenset("cd")],
            JxplainConfig(entity_strategy=EntityStrategy.SINGLE),
        )
        assert len(clusters) == 1
        assert clusters[0].maximal == frozenset("abcd")

    def test_exact(self):
        clusters = cluster_key_sets(
            [frozenset("ab"), frozenset("cd"), frozenset("ab")],
            JxplainConfig(entity_strategy=EntityStrategy.EXACT),
        )
        assert len(clusters) == 2

    def test_kmeans_defaults_to_naive_count(self):
        clusters = cluster_key_sets(
            [frozenset("ab"), frozenset("xy")],
            JxplainConfig(entity_strategy=EntityStrategy.KMEANS),
        )
        assert 1 <= len(clusters) <= 2


@pytest.mark.parametrize("strategy", list(EntityStrategy))
def test_naive_variant_keeps_or_refuses_the_strategy(strategy):
    config = JxplainConfig(entity_strategy=strategy)
    if strategy in (EntityStrategy.BIMAX_MERGE, EntityStrategy.BIMAX_NAIVE):
        naive = JxplainNaive(config)
        assert naive.config.entity_strategy is EntityStrategy.BIMAX_NAIVE
    else:
        with pytest.raises(ValueError, match="fixes the entity strategy"):
            JxplainNaive(config)


class TestGeneralProperties:
    @given(value_lists)
    @settings(max_examples=50)
    def test_training_recall_perfect(self, values):
        schema = Jxplain().discover(values)
        for value in values:
            assert schema.admits_value(value)

    @given(value_lists)
    @settings(max_examples=50)
    def test_naive_variant_also_covers_training(self, values):
        schema = JxplainNaive().discover(values)
        for value in values:
            assert schema.admits_value(value)

    @given(value_lists)
    @settings(max_examples=30)
    def test_never_admits_more_than_kreduce_on_keys_mode(self, values):
        """With KEYS features and collections detection off, JXPLAIN
        with the SINGLE strategy reproduces K-reduce exactly."""
        from repro.discovery.kreduce import merge_k

        config = JxplainConfig(
            detect_object_collections=False,
            detect_array_tuples=False,
            entity_strategy=EntityStrategy.SINGLE,
            feature_mode=FeatureMode.KEYS,
        )
        types = [type_of(v) for v in values]
        assert jxplain_merge(types, config) == merge_k(types)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            jxplain_merge([])

    def test_depth_guard(self):
        value = {"a": 1}
        for _ in range(20):
            value = {"nest": value}
        from repro.errors import RecursionDepthError

        config = JxplainConfig(max_depth=5)
        with pytest.raises(RecursionDepthError):
            jxplain_merge([type_of(value)], config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            JxplainConfig(entropy_threshold=-1).validate()
        with pytest.raises(ValueError):
            JxplainConfig(max_depth=0).validate()
        with pytest.raises(ValueError):
            JxplainConfig(
                entity_strategy=EntityStrategy.KMEANS, kmeans_k=-1
            ).validate()
