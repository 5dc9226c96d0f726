"""Tests for the sampled-heuristics pipeline (§4.2's mitigation)."""

import pytest

from repro.datasets import make_dataset
from repro.discovery import Jxplain, JxplainPipeline
from repro.jsontypes.types import type_of
from repro.validation.validator import recall_against


class TestSampledPipeline:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            JxplainPipeline(heuristic_sample=0.0)
        with pytest.raises(ValueError):
            JxplainPipeline(heuristic_sample=1.5)

    def test_run_file_refuses_sampling(self, tmp_path):
        """``run_file`` synthesizes from the full statistics, so it
        refuses a sampling fraction it could not honour."""
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="heuristic_sample"):
            JxplainPipeline(heuristic_sample=0.5).run_file(path)

    def test_full_fraction_equals_unsampled(self, login_serve_stream):
        full = JxplainPipeline().discover(login_serve_stream)
        sampled = JxplainPipeline(heuristic_sample=1.0).discover(
            login_serve_stream
        )
        assert sampled == full

    def test_sampled_heuristics_still_find_collections(self):
        """The paper: 'even a 1% sample is often almost perfect' for
        entropy-based collection detection."""
        records = make_dataset("pharma").generate(600, seed=7)
        pipeline = JxplainPipeline(heuristic_sample=0.1, sample_seed=3)
        schema = pipeline.discover(records)
        assert schema.admits_value(
            {
                "npi": 1,
                "provider_variables": records[0]["provider_variables"],
                "cms_prescription_counts": {"UNSEEN DRUG": 11},
            }
        )

    def test_sampled_recall_close_to_full(self):
        records = make_dataset("synapse").generate(800, seed=8)
        test_types = [type_of(r) for r in records[-100:]]
        train = records[:-100]
        full = JxplainPipeline().discover(train)
        sampled = JxplainPipeline(
            heuristic_sample=0.2, sample_seed=1
        ).discover(train)
        full_recall = recall_against(full, test_types)
        sampled_recall = recall_against(sampled, test_types)
        assert sampled_recall >= full_recall - 0.15

    def test_pass3_covers_all_training_data(self):
        """Pass ③ runs on the full data even when the heuristics were
        sampled, so every training record is admitted."""
        records = make_dataset("github").generate(400, seed=9)
        schema = JxplainPipeline(
            heuristic_sample=0.25, sample_seed=2
        ).discover(records)
        for record in records:
            assert schema.admits_value(record)

    def test_record_count_reflects_full_data(self):
        records = make_dataset("figure1").generate(200, seed=1)
        result = JxplainPipeline(heuristic_sample=0.2).run(records)
        assert result.record_count == 200

    def test_deterministic_under_seed(self):
        records = make_dataset("yelp-merged").generate(400, seed=4)
        first = JxplainPipeline(
            heuristic_sample=0.3, sample_seed=11
        ).discover(records)
        second = JxplainPipeline(
            heuristic_sample=0.3, sample_seed=11
        ).discover(records)
        assert first == second

    def test_tiny_sample_falls_back_to_full(self):
        # A fraction so small the Bernoulli sample is empty must not
        # crash; the pipeline falls back to the full data.
        records = make_dataset("figure1").generate(20, seed=1)
        schema = JxplainPipeline(
            heuristic_sample=0.0001, sample_seed=5
        ).discover(records)
        for record in records:
            assert schema.admits_value(record)
