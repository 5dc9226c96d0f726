"""``JxplainPipeline.run_file`` on the sharded byte-range path.

The pipeline's ``shards=`` mode must be indistinguishable from the
in-driver path in everything but speed: same state bytes as a serial
sequential scan, same schema, composing with checkpoint/resume/append,
and cleaning up its per-shard checkpoint directories once the merged
state is durable.
"""

from __future__ import annotations

import json

import pytest

from repro.discovery import JxplainPipeline
from repro.discovery.state import load_state, state_for_algorithm
from repro.io.fastpath import read_jsonlines_fused
from repro.io.jsonlines import write_jsonlines
from repro.schema import to_json_schema


def canonical(schema) -> str:
    return json.dumps(to_json_schema(schema), sort_keys=True)


def serial_bytes(*paths) -> bytes:
    state = state_for_algorithm("jxplain", None)
    for path in paths:
        for tau in read_jsonlines_fused(path):
            state.absorb_type(tau)
    return state.to_bytes()


@pytest.fixture
def corpus(tmp_path):
    rows = []
    for index in range(300):
        row = {"id": index, "event": ("get", "put")[index % 2]}
        if index % 3 == 0:
            row["detail"] = {"code": index % 11, "tags": [str(index % 5)]}
        rows.append(row)
    path = tmp_path / "corpus.jsonl"
    write_jsonlines(path, rows)
    return path


class TestShardedRunFile:
    @pytest.mark.parametrize("shards", ["auto", 3])
    def test_state_bytes_equal_serial_scan(self, corpus, tmp_path, shards):
        ckpt = tmp_path / "state.bin"
        result = JxplainPipeline(shards=shards).run_file(
            corpus, checkpoint=ckpt
        )
        assert result.state.to_bytes() == serial_bytes(corpus)
        assert load_state(ckpt).to_bytes() == serial_bytes(corpus)
        # Per-shard scratch dirs are gone once the merged state is
        # durable.
        assert not (tmp_path / "state.bin.shards").exists()

    def test_schema_matches_unsharded_pipeline(self, corpus):
        sharded = JxplainPipeline(shards=3).run_file(corpus)
        unsharded = JxplainPipeline().run_file(corpus)
        assert canonical(sharded.schema) == canonical(unsharded.schema)
        assert sharded.record_count == unsharded.record_count

    def test_resume_append_equals_concatenated_serial(
        self, corpus, tmp_path
    ):
        extra_rows = [
            {"id": 1000 + index, "event": "del", "flag": index % 2 == 0}
            for index in range(80)
        ]
        extra = tmp_path / "extra.jsonl"
        write_jsonlines(extra, extra_rows)
        ckpt = tmp_path / "state.bin"

        JxplainPipeline(shards=2).run_file(corpus, checkpoint=ckpt)
        result = JxplainPipeline(shards=2).run_file(
            checkpoint=ckpt, resume=True, append=[extra]
        )
        assert result.state.to_bytes() == serial_bytes(corpus, extra)
        assert load_state(ckpt).to_bytes() == serial_bytes(corpus, extra)

    def test_multi_file_fresh_run(self, corpus, tmp_path):
        second = tmp_path / "second.jsonl"
        write_jsonlines(
            second, [{"id": index, "z": [index]} for index in range(60)]
        )
        result = JxplainPipeline(shards=2, merge_fanin=4).run_file(
            corpus, append=[second]
        )
        assert result.state.to_bytes() == serial_bytes(corpus, second)

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            JxplainPipeline(shards=0)
        with pytest.raises(ValueError):
            JxplainPipeline(shards="many")


class TestBadRecordPolicy:
    @pytest.fixture
    def dirty(self, corpus, tmp_path):
        lines = corpus.read_bytes().splitlines(keepends=True)
        path = tmp_path / "dirty.jsonl"
        path.write_bytes(b"".join(lines[:100] + [b"{not json\n"] + lines[100:]))
        return path

    def test_raise_is_the_default(self, dirty):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            JxplainPipeline().run_file(dirty)

    @pytest.mark.parametrize("shards", [None, 3])
    def test_skip_reads_past_a_bad_line(self, corpus, dirty, shards):
        result = JxplainPipeline(on_bad_record="skip", shards=shards).run_file(
            dirty
        )
        assert result.state.to_bytes() == serial_bytes(corpus)
        assert result.ingest_report.record_count == 300
        assert [bad.line_number for bad in result.ingest_report.bad_records] == [
            101
        ]

    def test_unknown_policy_rejected(self):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError, match="on_bad_record"):
            JxplainPipeline(on_bad_record="ignore")
