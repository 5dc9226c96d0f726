"""The shard coordinator's mechanics: planning, ranged reads, report
re-basing, checkpoints, and cross-process counter accounting.

The byte-identity of sharded discovery itself is property-tested in
``tests/discovery/test_sharding_properties.py``; this file pins the
plumbing those properties stand on.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.discovery.state import state_for_algorithm
from repro.engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    counters,
)
from repro.engine.sharding import (
    MANIFEST_NAME,
    MIN_SHARD_BYTES,
    SHARDS_PER_WORKER,
    ShardCoordinator,
    default_shard_count,
    discover_sharded,
    plan_shards,
)
from repro.errors import CheckpointError, EngineError
from repro.io.fastpath import read_jsonlines_fused, split_byte_ranges
from repro.io.jsonlines import (
    merge_ingest_reports,
    read_jsonlines,
    IngestReport,
    write_jsonlines,
)


@pytest.fixture(scope="module")
def records():
    rows = []
    for index in range(400):
        row = {"id": index, "name": f"user-{index}"}
        if index % 3 == 0:
            row["tags"] = [str(index % 7)] * (index % 4 + 1)
        if index % 5 == 0:
            row["meta"] = {"depth": index % 9, "flag": index % 2 == 0}
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def corpus(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("shards") / "corpus.jsonl"
    write_jsonlines(path, records)
    return path


def serial_state_bytes(path, algorithm: str) -> bytes:
    """The ground truth: a serial sequential scan of the file."""
    state = state_for_algorithm(algorithm, None)
    for tau in read_jsonlines_fused(path):
        state.absorb_type(tau)
    return state.to_bytes()


class TestPlanning:
    def test_ranges_partition_the_file(self, corpus):
        size = os.path.getsize(corpus)
        for shards in (2, 3, 5, 8):
            plan = plan_shards(corpus, shards, workers=4)
            assert plan.splittable
            assert plan.ranges[0][0] == 0
            assert plan.ranges[-1][1] == size
            for (_, left_end), (right_start, _) in zip(
                plan.ranges, plan.ranges[1:]
            ):
                assert left_end == right_start
            # Every boundary is newline-aligned: the byte before each
            # interior boundary is a record terminator.
            data = corpus.read_bytes()
            for start, _ in plan.ranges[1:]:
                assert data[start - 1] == ord("\n")

    def test_more_shards_than_lines_collapses(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        write_jsonlines(path, [{"a": 1}, {"b": 2}])
        plan = plan_shards(path, 64, workers=4)
        # Ranges never split mid-record; duplicate boundaries collapse.
        assert 1 <= plan.shard_count <= 2

    def test_gzip_and_empty_fall_back_to_whole_file(self, tmp_path):
        gz = tmp_path / "corpus.jsonl.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n')
        assert split_byte_ranges(gz, 4) is None
        assert plan_shards(gz, 4, workers=2).ranges == ((0, None),)

        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert split_byte_ranges(empty, 4) is None
        assert plan_shards(empty, 4, workers=2).ranges == ((0, None),)

    def test_adaptive_shard_count(self):
        # Small files collapse to one shard; large files are bounded
        # by shards-per-worker.
        assert default_shard_count(0, 4) == 1
        assert default_shard_count(MIN_SHARD_BYTES - 1, 4) == 1
        assert (
            default_shard_count(MIN_SHARD_BYTES * 100, 4)
            == 4 * SHARDS_PER_WORKER
        )
        assert default_shard_count(MIN_SHARD_BYTES * 3, 4) == 3

    def test_invalid_shard_count(self, corpus):
        with pytest.raises(EngineError):
            plan_shards(corpus, 0, workers=2)


class TestRangedReads:
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_classic_ranges_concatenate_to_whole_file(
        self, corpus, records, shards
    ):
        ranges = split_byte_ranges(corpus, shards)
        seen = []
        for start, end in ranges:
            seen.extend(read_jsonlines(corpus, start=start, end=end))
        assert seen == records

    def test_merged_report_rebases_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = ['{"ok": %d}' % i for i in range(40)]
        lines[7] = "{broken"
        lines[29] = "also broken"
        path.write_text("\n".join(lines) + "\n")

        whole = IngestReport(path=str(path), policy="collect")
        list(read_jsonlines(path, on_bad_record="collect", report=whole))

        shard_reports = []
        for start, end in split_byte_ranges(path, 3):
            report = IngestReport(path=str(path), policy="collect")
            list(
                read_jsonlines(
                    path,
                    on_bad_record="collect",
                    report=report,
                    start=start,
                    end=end,
                )
            )
            shard_reports.append(report)
        merged = merge_ingest_reports(
            shard_reports, path=str(path), policy="collect"
        )
        assert merged.total_lines == whole.total_lines
        assert merged.record_count == whole.record_count
        assert merged.bad_line_numbers() == whole.bad_line_numbers() == [
            8,
            30,
        ]
        assert [bad.byte_offset for bad in merged.bad_records] == [
            bad.byte_offset for bad in whole.bad_records
        ]


class TestCoordinator:
    @pytest.mark.parametrize("algorithm", ["l-reduce", "k-reduce", "jxplain"])
    def test_state_bytes_match_serial(self, corpus, algorithm):
        expected = serial_state_bytes(corpus, algorithm)
        result = discover_sharded(corpus, algorithm, shards=4)
        assert result.state.to_bytes() == expected
        assert result.plan.shard_count == 4
        assert result.report.record_count == 400

    def test_thread_backend_matches(self, corpus):
        executor = ThreadExecutor(2)
        try:
            result = discover_sharded(
                corpus, "jxplain", executor=executor, shards=4
            )
        finally:
            executor.close()
        assert result.state.to_bytes() == serial_state_bytes(
            corpus, "jxplain"
        )

    def test_merge_fanin_must_be_at_least_two(self):
        with pytest.raises(EngineError):
            ShardCoordinator("jxplain", merge_fanin=1)

    def test_unknown_algorithm_rejected_before_fanout(self):
        with pytest.raises(ValueError):
            ShardCoordinator("no-such-algorithm")

    def test_collect_policy_reports_whole_file_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = ['{"ok": %d}' % i for i in range(60)]
        lines[41] = "{nope"
        path.write_text("\n".join(lines) + "\n")
        result = discover_sharded(
            path, "l-reduce", shards=3, on_bad_record="collect"
        )
        assert result.report.bad_line_numbers() == [42]
        assert result.report.record_count == 59

    @pytest.mark.parametrize(
        "merge_fanin", [4, 2], ids=["flat", "tree"]
    )
    def test_skipped_shard_is_dropped(self, corpus, tmp_path, merge_fanin):
        """A shard the ``skip`` policy gives up on contributes nothing;
        the surviving partials still merge, in shard order, whether in
        one flat level or as a tree."""
        from repro.engine import RetryPolicy

        data = corpus.read_bytes()
        plan = plan_shards(corpus, 4, 1)
        # Blank out one line inside shard 1 with same-length garbage,
        # so every range stays put and only that shard fails to read.
        start, end = plan.ranges[1]
        line_start = data.index(b"\n", start + 1) + 1
        line_end = data.index(b"\n", line_start)
        poisoned = tmp_path / "poisoned.jsonl"
        poisoned.write_bytes(
            data[:line_start] + b"#" * (line_end - line_start)
            + data[line_end:]
        )
        survivors = state_for_algorithm("l-reduce", None)
        for index, (start, end) in enumerate(plan.ranges):
            if index != 1:
                for tau in read_jsonlines_fused(corpus, start=start, end=end):
                    survivors.absorb_type(tau)
        executor = ThreadExecutor(
            2, retry=RetryPolicy(max_retries=0, on_failure="skip")
        )
        try:
            result = discover_sharded(
                poisoned,
                "l-reduce",
                executor=executor,
                shards=4,
                merge_fanin=merge_fanin,
            )
        finally:
            executor.close()
        assert result.plan.ranges == plan.ranges
        assert result.skipped_shards == 1
        assert result.state.to_bytes() == survivors.to_bytes()

    def test_empty_file_yields_empty_state(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        result = discover_sharded(path, "l-reduce", shards=4)
        assert result.state.record_count == 0


class TestCheckpoints:
    def test_resume_reuses_completed_shards(self, corpus, tmp_path):
        ckpt = tmp_path / "shards"
        first = discover_sharded(
            corpus, "jxplain", shards=4, checkpoint_dir=ckpt
        )
        assert first.resumed_shards == 0
        states = sorted(p.name for p in ckpt.glob("shard-*.state"))
        assert len(states) == 4
        assert (ckpt / MANIFEST_NAME).exists()

        second = discover_sharded(
            corpus, "jxplain", shards=4, checkpoint_dir=ckpt
        )
        assert second.resumed_shards == 4
        assert second.state.to_bytes() == first.state.to_bytes()
        assert (
            second.report.bad_line_numbers()
            == first.report.bad_line_numbers()
        )
        assert second.report.record_count == first.report.record_count

    def test_manifest_mismatch_fails_loudly(self, corpus, tmp_path):
        ckpt = tmp_path / "shards"
        discover_sharded(corpus, "jxplain", shards=4, checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError):
            discover_sharded(
                corpus, "l-reduce", shards=4, checkpoint_dir=ckpt
            )
        with pytest.raises(CheckpointError):
            discover_sharded(
                corpus, "jxplain", shards=2, checkpoint_dir=ckpt
            )

    def test_manifest_content(self, corpus, tmp_path):
        ckpt = tmp_path / "shards"
        discover_sharded(corpus, "jxplain", shards=2, checkpoint_dir=ckpt)
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert manifest["path"] == str(corpus)
        assert manifest["algorithm"] == "jxplain"
        assert manifest["file_size"] == os.path.getsize(corpus)
        assert len(manifest["ranges"]) == 2


class TestCounterFlush:
    def test_process_workers_flush_deltas_to_driver(self, corpus):
        """Satellite: ``counters.snapshot()`` is accurate under the
        process backend — per-worker ingest/intern work shows up in
        the driver's counters via the shipped deltas."""
        executor = ProcessExecutor(2)
        before = counters.snapshot()
        try:
            discover_sharded(corpus, "jxplain", executor=executor, shards=4)
        finally:
            executor.close()
        after = counters.snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # All 400 records were ingested in workers, none in the driver;
        # without the flush this counter would stay at 0.
        assert delta("ingest.fused_records") == 400
        assert delta("sharding.shards_completed") == 4
        assert delta("sharding.runs") == 1
        assert delta("sharding.shards") == 4

    def test_serial_backend_does_not_double_count(self, corpus):
        before = counters.snapshot()
        discover_sharded(
            corpus, "jxplain", executor=SerialExecutor(), shards=4
        )
        after = counters.snapshot()
        # Same-process results already mutated the shared counters;
        # the driver must not add their deltas again.
        assert (
            after.get("ingest.fused_records", 0)
            - before.get("ingest.fused_records", 0)
            == 400
        )
        assert (
            after.get("sharding.shards_completed", 0)
            - before.get("sharding.shards_completed", 0)
            == 4
        )
