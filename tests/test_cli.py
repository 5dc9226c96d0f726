"""Tests for the jxplain command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io.jsonlines import write_jsonlines


@pytest.fixture
def figure1_file(tmp_path, figure1_records):
    path = tmp_path / "fig1.jsonl"
    write_jsonlines(path, figure1_records * 10)
    return path


class TestDiscover:
    def test_text_output(self, figure1_file, capsys):
        assert main(["discover", str(figure1_file)]) == 0
        out = capsys.readouterr().out
        assert "ts: number" in out

    def test_json_output_to_file(self, figure1_file, tmp_path):
        target = tmp_path / "schema.json"
        code = main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert "$schema" in document

    def test_algorithm_selection(self, figure1_file, capsys):
        assert main(
            ["discover", str(figure1_file), "--algorithm", "k-reduce"]
        ) == 0
        out = capsys.readouterr().out
        assert "files?" in out  # K-reduce makes files optional

    def test_empty_input_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["discover", str(path)]) == 2


#: Every ``discover`` route, by the flags that select it.
ROUTES = {
    "plain": (),
    "checkpoint": ("--checkpoint", "{tmp}/state.ckpt"),
    "enrich": ("--enrich", "sketches"),
    "classic": ("--ingest", "classic"),
    "shards": ("--shards", "2"),
}


def _route_flags(route, tmp_path):
    return [flag.format(tmp=tmp_path) for flag in ROUTES[route]]


def _nested(depth):
    """A record whose type nests ``depth`` levels (a leaf is level 1)."""
    value = 1
    for _ in range(depth - 1):
        value = {"a": value}
    return value


@pytest.mark.parametrize("route", list(ROUTES))
class TestDiscoverFailures:
    """Input failures give one documented result on every route: an
    ``error: …`` line on stderr and exit code 2, never a traceback."""

    def test_malformed_line(self, tmp_path, capsys, route):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n{"a": \n{"a": 2}\n', encoding="utf-8")
        code = main(
            ["discover", str(path), *_route_flags(route, tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}:")
        assert "invalid JSON" in err

    def test_missing_input(self, tmp_path, capsys, route):
        path = tmp_path / "missing.jsonl"
        code = main(
            ["discover", str(path), *_route_flags(route, tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: cannot read input"
        )

    def test_over_deep_record(self, tmp_path, capsys, route):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 300 + "]" * 300 + "\n", encoding="utf-8")
        code = main(
            ["discover", str(path), *_route_flags(route, tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_max_depth_boundary(self, tmp_path, capsys, route):
        """``JxplainConfig.max_depth`` (128) admits a record of type
        depth 129 and refuses depth 130, whichever route runs."""
        for depth, expected in ((129, 0), (130, 2)):
            path = tmp_path / f"depth{depth}.jsonl"
            write_jsonlines(path, [_nested(depth), {"b": 1}])
            code = main(
                ["discover", str(path), *_route_flags(route, tmp_path)]
            )
            err = capsys.readouterr().err
            assert code == expected, err
            if expected:
                assert err.startswith("error: merge exceeded max_depth=128")


class TestValidate:
    def test_accepts_training_data(self, figure1_file, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        code = main(["validate", str(schema_path), str(figure1_file)])
        assert code == 0
        assert "recall 1.0000" in capsys.readouterr().out

    def test_rejections_reported_and_explained(
        self, figure1_file, tmp_path, capsys
    ):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        bad_path = tmp_path / "bad.jsonl"
        write_jsonlines(bad_path, [{"ts": 1, "event": "x", "weird": 1}])
        code = main(
            ["validate", str(schema_path), str(bad_path), "--explain", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1 rejected" in out
        assert "record 0:" in out


class TestOtherCommands:
    def test_generate(self, tmp_path, capsys):
        target = tmp_path / "data.jsonl"
        code = main(
            ["generate", "figure1", str(target), "--records", "25"]
        )
        assert code == 0
        assert "wrote 25 records" in capsys.readouterr().out

    def test_entropy(self, figure1_file, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        assert main(["entropy", str(schema_path)]) == 0
        float(capsys.readouterr().out)

    def test_lists(self, capsys):
        assert main(["datasets"]) == 0
        assert "github" in capsys.readouterr().out
        assert main(["algorithms"]) == 0
        assert "bimax-merge" in capsys.readouterr().out


class TestDiscoverSharded:
    @pytest.fixture
    def corpus(self, tmp_path, figure1_records):
        path = tmp_path / "corpus.jsonl"
        write_jsonlines(path, figure1_records * 60)
        return path

    def test_sharded_matches_serial_state_and_schema(
        self, corpus, tmp_path
    ):
        serial_state = tmp_path / "serial.state"
        serial_out = tmp_path / "serial.out"
        sharded_state = tmp_path / "sharded.state"
        sharded_out = tmp_path / "sharded.out"
        assert main(
            [
                "discover", str(corpus), "--algorithm", "jxplain",
                "--ingest", "fused",
                "--checkpoint", str(serial_state),
                "--output", str(serial_out),
            ]
        ) == 0
        assert main(
            [
                "discover", str(corpus), "--algorithm", "jxplain",
                "--shards", "2",
                "--checkpoint", str(sharded_state),
                "--output", str(sharded_out),
            ]
        ) == 0
        assert sharded_state.read_bytes() == serial_state.read_bytes()
        assert sharded_out.read_text() == serial_out.read_text()
        # Per-shard scratch is cleaned up after the merged checkpoint.
        assert not (tmp_path / "sharded.state.shards").exists()

    def test_sharded_resume_append(self, corpus, tmp_path, figure1_records):
        extra = tmp_path / "extra.jsonl"
        write_jsonlines(extra, figure1_records * 15)
        ckpt = tmp_path / "inc.state"
        assert main(
            [
                "discover", str(corpus), "--shards", "auto",
                "--checkpoint", str(ckpt),
                "--output", str(tmp_path / "first.out"),
            ]
        ) == 0
        assert main(
            [
                "discover", "--resume", "--shards", "auto",
                "--append", str(extra),
                "--checkpoint", str(ckpt),
                "--output", str(tmp_path / "second.out"),
            ]
        ) == 0
        # Equivalent one-shot run over both files, unsharded.
        ref = tmp_path / "ref.state"
        assert main(
            [
                "discover", str(corpus), "--append", str(extra),
                "--ingest", "fused", "--algorithm", "bimax-merge",
                "--checkpoint", str(ref),
                "--output", str(tmp_path / "ref.out"),
            ]
        ) == 0
        assert ckpt.read_bytes() == ref.read_bytes()

    def test_workers_without_shards_errors(self, corpus, capsys):
        assert main(["discover", str(corpus), "--workers", "2"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_bad_shard_count_errors(self, corpus, capsys):
        with pytest.raises(SystemExit):
            main(["discover", str(corpus), "--shards", "zero"])
        assert "--shards" in capsys.readouterr().err
