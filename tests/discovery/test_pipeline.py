"""Tests for the staged three-pass pipeline (Figure 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.jxplain import Jxplain
from repro.discovery.pipeline import JxplainPipeline
from repro.errors import EmptyInputError
from repro.jsontypes.types import type_of
from tests.conftest import json_values

value_lists = st.lists(json_values(max_leaves=6), min_size=1, max_size=8)


class TestPipeline:
    def test_matches_reference_on_figure1(self, login_serve_stream):
        reference = Jxplain().discover(login_serve_stream)
        staged = JxplainPipeline().discover(login_serve_stream)
        assert staged == reference

    def test_matches_reference_on_collections(
        self, collection_like_records
    ):
        reference = Jxplain().discover(collection_like_records)
        staged = JxplainPipeline().discover(collection_like_records)
        assert staged == reference

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_training_recall_perfect(self, values):
        schema = JxplainPipeline().discover(values)
        for value in values:
            assert schema.admits_value(value)

    @given(value_lists)
    @settings(max_examples=20, deadline=None)
    def test_fold_and_merger_paths_agree(self, values):
        with_fold = JxplainPipeline(use_fold=True).discover(values)
        without_fold = JxplainPipeline(use_fold=False).discover(values)
        assert with_fold == without_fold

    def test_result_diagnostics(self, login_serve_stream):
        result = JxplainPipeline().run(login_serve_stream)
        assert result.record_count == len(login_serve_stream)
        assert result.decisions
        assert (("user", "geo"),) not in result.collection_paths
        stages = [name for name, _, _ in result.timer.rows()]
        assert stages == ["absorb", "synthesis"]

    def test_accepts_prebuilt_dataset_of_types(self, login_serve_stream):
        types = [type_of(r) for r in login_serve_stream]
        result = JxplainPipeline().run(types)
        assert result.schema == Jxplain().discover(login_serve_stream)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            JxplainPipeline().discover([])

    def test_multi_entity_github_shape(self):
        """Entities that differ only in nested payload split (PATHS
        feature mode), in both the reference and the pipeline."""
        records = []
        for index in range(40):
            if index % 2:
                records.append(
                    {"type": "A", "payload": {"x": 1, "y": 2}}
                )
            else:
                records.append(
                    {"type": "B", "payload": {"z": "s"}}
                )
        reference = Jxplain().discover(records)
        staged = JxplainPipeline().discover(records)
        assert staged == reference
        assert not staged.admits_value(
            {"type": "A", "payload": {"x": 1, "z": "s"}}
        )
