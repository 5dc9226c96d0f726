"""Unit tests for the pipeline's internal accumulators.

The end-to-end equivalence tests in ``test_pipeline.py`` exercise the
whole; these pin down the parts: the feature extractor's caching and
pruning, the TupleShapes accumulator, and partitioner compilation.
"""

from repro.discovery.config import FeatureMode, JxplainConfig
from repro.discovery.pipeline import (
    FeatureExtractor,
    TupleShapes,
    build_partitioners,
)
from repro.discovery.stat_tree import StatTree, decide_collections
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import ROOT, STAR
from repro.jsontypes.types import type_of


def _setup(records, config=None):
    config = config or JxplainConfig()
    types = [type_of(r) for r in records]
    tree = StatTree.from_types(
        types, similarity_depth=config.similarity_depth
    )
    decisions = decide_collections(tree, config)
    return types, decisions, FeatureExtractor(decisions, config)


class TestFeatureExtractor:
    def test_keys_mode_uses_top_level_keys(self):
        config = JxplainConfig(feature_mode=FeatureMode.KEYS)
        types, decisions, extractor = _setup(
            [{"a": 1, "b": {"c": 2}}], config
        )
        assert extractor.features(types[0], ROOT) == frozenset({"a", "b"})

    def test_paths_mode_includes_nested(self):
        types, decisions, extractor = _setup([{"a": 1, "b": {"c": 2}}])
        features = extractor.features(types[0], ROOT)
        assert ("b", "c") in features
        assert ("a",) in features

    def test_collection_paths_pruned(self, collection_like_records):
        types, decisions, extractor = _setup(collection_like_records)
        features = extractor.features(types[0], ROOT)
        assert ("counts",) in features
        # No per-drug path survives the pruning.
        assert all(
            len(path) == 1 for path in features
        ), sorted(features, key=repr)

    def test_relative_collections_offset(self, collection_like_records):
        # Wrap each record one level deeper and check base-relative
        # collection extraction.
        wrapped = [
            {"payload": record} for record in collection_like_records
        ]
        types, decisions, extractor = _setup(wrapped)
        relative = extractor.relative_collections(("payload",))
        assert ("counts",) in relative

    def test_relative_collections_cached(self, collection_like_records):
        types, decisions, extractor = _setup(collection_like_records)
        first = extractor.relative_collections(ROOT)
        second = extractor.relative_collections(ROOT)
        assert first is second  # cache hit returns the same object


class TestTupleShapes:
    def test_records_object_features_at_tuple_paths(
        self, login_serve_stream
    ):
        types, decisions, extractor = _setup(login_serve_stream)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        assert ROOT in shapes.object_features
        # Login records share one shape; serve records split by their
        # files tuple length (the fixture's lengths alternate 1 / 3),
        # giving three distinct feature vectors...
        assert len(shapes.object_features[ROOT]) == 3
        # ... which Bimax collapses back to the two entities, since the
        # short-serve shape is a subset of the long-serve shape.
        config = JxplainConfig()
        object_partitioners, _ = build_partitioners(shapes, config)
        assert object_partitioners[ROOT].entity_count == 2

    def test_records_array_lengths_for_tuple_arrays(
        self, login_serve_stream
    ):
        types, decisions, extractor = _setup(login_serve_stream)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        geo_path = ("user", "geo")
        assert shapes.array_lengths.get(geo_path) == {2}

    def test_collection_paths_not_recorded(self, collection_like_records):
        types, decisions, extractor = _setup(collection_like_records)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        assert ("counts",) not in shapes.object_features


class TestBuildPartitioners:
    def test_object_partitioner_assigns_training_shapes(
        self, login_serve_stream
    ):
        config = JxplainConfig()
        types, decisions, extractor = _setup(login_serve_stream, config)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        object_partitioners, array_partitioners = build_partitioners(
            shapes, config
        )
        partitioner = object_partitioners[ROOT]
        assert partitioner.entity_count == 2
        for tau in types:
            features = extractor.features(tau, ROOT)
            index = partitioner.assign(features)
            assert features <= partitioner.clusters[index].maximal

    def test_array_partitioner_from_lengths(self, login_serve_stream):
        config = JxplainConfig()
        types, decisions, extractor = _setup(login_serve_stream, config)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        _, array_partitioners = build_partitioners(shapes, config)
        geo = array_partitioners[("user", "geo")]
        # One length (2): a single position-set cluster.
        assert geo.entity_count == 1

    def test_deterministic_across_set_orderings(self, login_serve_stream):
        """Partitioner compilation must not depend on Python set
        iteration order (which varies with PYTHONHASHSEED)."""
        config = JxplainConfig()
        types, decisions, extractor = _setup(login_serve_stream, config)
        shapes = TupleShapes()
        for tau in types:
            shapes.add(tau, decisions, extractor)
        first, _ = build_partitioners(shapes, config)
        second, _ = build_partitioners(shapes, config)
        assert [c.maximal for c in first[ROOT].clusters] == [
            c.maximal for c in second[ROOT].clusters
        ]
