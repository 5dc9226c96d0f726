"""Differential oracle: enrichment never changes the structural schema.

PR 8's contract is that ``--enrich`` is *strictly additive*: an
enriched run produces byte-identical structural output to an
unenriched run over the same input — for every algorithm, every
executor backend, every shard count, and across kill-and-resume.  The
oracle is **clone-strip**: round-trip the enriched state through the
codec, null out its enrichment sidecar, and demand the re-serialized
bytes equal the plain run's bytes.  Byte equality is state equality,
so this is the strongest form of "the structural schema is unchanged".
"""

from __future__ import annotations

import json

import pytest

from repro.discovery.pipeline import JxplainPipeline
from repro.discovery.state import load_state, state_for_algorithm
from repro.engine import (
    InjectedFault,
    ProcessExecutor,
    SerialExecutor,
    clear_fault_plan,
    install_fault_plan,
)
from repro.engine.sharding import discover_sharded
from repro.io.jsonlines import read_jsonlines, write_jsonlines
from repro.schema import (
    annotate_json_schema,
    from_json_schema,
    to_json_schema,
)

ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")
ENRICH = "sketches,unions"


def _rows(start: int, stop: int):
    rows = []
    for index in range(start, stop):
        kind = ("event", "user", "log")[index % 3]
        row = {
            "id": index,
            "kind": kind,
            "score": index * 0.5,
            "when": f"2021-06-{(index % 28) + 1:02d}",
        }
        if kind == "event":
            row["payload"] = {"depth": index % 5, "tags": [str(index % 4)]}
        if kind == "user":
            row["email"] = f"user{index}@example.com"
        if index % 7 == 0:
            row["extra"] = [index, str(index), None]
        rows.append(row)
    return rows


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("enriched") / "corpus.jsonl"
    write_jsonlines(path, _rows(0, 360))
    return path


@pytest.fixture(scope="module")
def plain_bytes(corpus):
    """Serial unenriched state bytes, one per algorithm — the oracle's
    right-hand side."""
    result = {}
    for algorithm in ALGORITHMS:
        state = state_for_algorithm(algorithm)
        for record in read_jsonlines(corpus):
            state.absorb(record)
        result[algorithm] = state.to_bytes()
    return result


@pytest.fixture(scope="module")
def enriched_bytes(corpus):
    """Serial enriched state bytes — the shard/backend invariant."""
    result = {}
    for algorithm in ALGORITHMS:
        state = state_for_algorithm(algorithm, enrich=ENRICH)
        for record in read_jsonlines(corpus):
            state.absorb(record)
        result[algorithm] = state.to_bytes()
    return result


def _strip(state_bytes: bytes, algorithm: str) -> bytes:
    """The clone-strip oracle: enriched bytes → structural-only bytes."""
    clone = type(state_for_algorithm(algorithm)).from_bytes(state_bytes)
    assert clone.enrichment is not None
    clone.enrichment = None
    return clone.to_bytes()


def _canonical(schema) -> str:
    return json.dumps(to_json_schema(schema), sort_keys=True)


class TestSerialOracle:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_strip_recovers_plain_bytes(
        self, algorithm, plain_bytes, enriched_bytes
    ):
        assert (
            _strip(enriched_bytes[algorithm], algorithm)
            == plain_bytes[algorithm]
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_synthesized_schema_is_unchanged(
        self, algorithm, plain_bytes, enriched_bytes
    ):
        empty = state_for_algorithm(algorithm)
        plain = type(empty).from_bytes(plain_bytes[algorithm])
        rich = type(empty).from_bytes(enriched_bytes[algorithm])
        assert _canonical(rich.synthesize()) == _canonical(
            plain.synthesize()
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_annotations_are_additive(self, algorithm, enriched_bytes):
        """``from_json_schema`` sees through the annotations: parsing
        the annotated document equals parsing the plain one."""
        empty = state_for_algorithm(algorithm)
        rich = type(empty).from_bytes(enriched_bytes[algorithm])
        document = to_json_schema(rich.synthesize())
        annotated = annotate_json_schema(document, rich.enrichment)
        assert annotated != document  # the sketches did annotate
        assert from_json_schema(annotated) == from_json_schema(document)


class TestShardedOracle:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_any_shard_count_matches_serial(
        self, corpus, algorithm, shards, plain_bytes, enriched_bytes
    ):
        result = discover_sharded(
            corpus,
            algorithm,
            executor=SerialExecutor(),
            shards=shards,
            enrich=ENRICH,
        )
        assert result.state.to_bytes() == enriched_bytes[algorithm]
        assert (
            _strip(result.state.to_bytes(), algorithm)
            == plain_bytes[algorithm]
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_every_backend_matches_serial(
        self, corpus, algorithm, backend, plain_bytes, enriched_bytes
    ):
        executor = {
            "serial": SerialExecutor,
            "process": lambda: ProcessExecutor(2),
        }[backend]()
        try:
            result = discover_sharded(
                corpus,
                algorithm,
                executor=executor,
                shards=3,
                enrich=ENRICH,
            )
        finally:
            close = getattr(executor, "close", None)
            if close is not None:
                close()
        assert result.state.to_bytes() == enriched_bytes[algorithm]
        assert (
            _strip(result.state.to_bytes(), algorithm)
            == plain_bytes[algorithm]
        )

    @pytest.mark.parametrize("ingest", ("fused", "classic"))
    def test_ingest_modes_agree(self, corpus, ingest, enriched_bytes):
        result = discover_sharded(
            corpus,
            "jxplain",
            executor=SerialExecutor(),
            shards=2,
            ingest=ingest,
            enrich=ENRICH,
        )
        assert result.state.to_bytes() == enriched_bytes["jxplain"]


class TestKillAndResume:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_killed_enriched_run_resumes_byte_identical(
        self, corpus, tmp_path, algorithm, plain_bytes, enriched_bytes
    ):
        """A worker death past its retries aborts the enriched run;
        the re-run reuses the surviving enriched shard checkpoints and
        still lands on the serial enriched bytes."""
        ckpt = tmp_path / f"{algorithm}.shards"
        install_fault_plan("shard-discover:2:raise:99")
        with pytest.raises(InjectedFault):
            discover_sharded(
                corpus,
                algorithm,
                executor=SerialExecutor(),
                shards=4,
                checkpoint_dir=ckpt,
                enrich=ENRICH,
            )
        survivors = sorted(p.name for p in ckpt.glob("shard-*.state"))
        assert survivors == ["shard-00000.state", "shard-00001.state"]
        # Surviving shard checkpoints carry their enrichment sidecar.
        for name in survivors:
            assert load_state(ckpt / name).enrichment is not None

        clear_fault_plan()
        rerun = discover_sharded(
            corpus,
            algorithm,
            executor=SerialExecutor(),
            shards=4,
            checkpoint_dir=ckpt,
            enrich=ENRICH,
        )
        assert rerun.resumed_shards == 2
        assert rerun.state.to_bytes() == enriched_bytes[algorithm]
        assert (
            _strip(rerun.state.to_bytes(), algorithm)
            == plain_bytes[algorithm]
        )


class TestCheckpointResumeAppend:
    def test_resume_append_equals_one_shot(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        both = tmp_path / "both.jsonl"
        write_jsonlines(first, _rows(0, 180))
        write_jsonlines(second, _rows(180, 360))
        write_jsonlines(both, _rows(0, 360))

        checkpoint = tmp_path / "pipeline.state"
        pipeline = JxplainPipeline(enrich=ENRICH)
        pipeline.run_file(first, checkpoint=checkpoint)
        resumed = pipeline.run_file(
            checkpoint=checkpoint, resume=True, append=[second]
        )

        one_shot = JxplainPipeline(enrich=ENRICH).run_file(both)
        assert resumed.state is not None
        assert resumed.state.enrichment is not None
        assert _canonical(resumed.schema) == _canonical(one_shot.schema)
        serial = state_for_algorithm("jxplain", enrich=ENRICH)
        for record in read_jsonlines(both):
            serial.absorb(record)
        assert resumed.state.to_bytes() == serial.to_bytes()

    def test_resumed_checkpoint_governs_enrichment(self, tmp_path):
        """Resume inherits the checkpoint's enrichment even when the
        resuming pipeline was built without any."""
        data = tmp_path / "data.jsonl"
        write_jsonlines(data, _rows(0, 60))
        checkpoint = tmp_path / "resume.state"
        JxplainPipeline(enrich=ENRICH).run_file(
            data, checkpoint=checkpoint
        )
        more = tmp_path / "more.jsonl"
        write_jsonlines(more, _rows(60, 120))
        resumed = JxplainPipeline().run_file(
            checkpoint=checkpoint, resume=True, append=[more]
        )
        assert resumed.state is not None
        assert resumed.state.enrichment is not None
        assert resumed.state.enrichment.options.unions
