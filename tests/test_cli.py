"""Tests for the jxplain command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.discovery import EntityStrategy
from repro.io.jsonlines import write_jsonlines

SRC = str(Path(repro.__file__).resolve().parent.parent)


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


def _help_algorithms(capsys, monkeypatch):
    """The names ``discover --help`` lists under ``--algorithm``."""
    # Wide enough that argparse breaks no name at its hyphen.
    monkeypatch.setenv("COLUMNS", "500")
    with pytest.raises(SystemExit):
        main(["discover", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    listed = text.split("--algorithm ALGORITHM one of: ")[1]
    return listed.split(" --")[0].split(", ")


@pytest.mark.parametrize("route", ["plain", "checkpoint"])
class TestAlgorithmNames:
    """``--algorithm`` accepts the same names on every route, and the
    help text and the unknown-name error list them alike."""

    def _discover(self, figure1_file, tmp_path, route, algorithm, *extra):
        flags = (
            ["--checkpoint", str(tmp_path / "state.ckpt")]
            if route == "checkpoint" else []
        )
        return main(
            ["discover", str(figure1_file), "--algorithm", algorithm,
             *flags, *extra]
        )

    def test_unknown_algorithm_is_one_error(
        self, figure1_file, tmp_path, capsys, monkeypatch, route
    ):
        known = _help_algorithms(capsys, monkeypatch)
        code = self._discover(figure1_file, tmp_path, route, "foo")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown algorithm 'foo'; known: "
            + ", ".join(known) + "\n"
        )
        assert main(["algorithms"]) == 0
        assert capsys.readouterr().out.split() == known

    def test_every_listed_algorithm_runs(
        self, figure1_file, tmp_path, capsys, monkeypatch, route
    ):
        for algorithm in _help_algorithms(capsys, monkeypatch):
            code = self._discover(figure1_file, tmp_path, route, algorithm)
            assert code == 0, (algorithm, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "strategy",
        [s.value for s in EntityStrategy if s is not EntityStrategy.BIMAX_NAIVE],
    )
    def test_bimax_naive_rejects_another_strategy(
        self, figure1_file, tmp_path, capsys, route, strategy
    ):
        """``bimax-naive`` is a strategy itself; another ``--strategy``
        is one error instead of being silently dropped."""
        code = self._discover(
            figure1_file, tmp_path, route, "bimax-naive",
            "--strategy", strategy,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --algorithm bimax-naive fixes the entity strategy; "
            f"--strategy {strategy} needs --algorithm bimax-merge\n"
        )
        assert not (tmp_path / "state.ckpt").exists()
        assert self._discover(
            figure1_file, tmp_path, route, "bimax-naive",
            "--strategy", "bimax-naive",
        ) == 0

    def test_jxplain_prints_bimax_merges_bytes(self, tmp_path, capsys, route):
        """``jxplain`` is the state name of ``bimax-merge``: the same
        synthesis, so the same bytes.  Twitter is one of F12's
        divergent corpora, where Algorithm 4 (a plain ``bimax-merge``
        run) and the staged synthesis print different schemas."""
        from repro.datasets import make_dataset

        corpus = tmp_path / "twitter.jsonl"
        write_jsonlines(corpus, make_dataset("twitter").generate(300, seed=5))
        printed = {}
        for algorithm in ("bimax-merge", "jxplain"):
            assert self._discover(
                corpus, tmp_path, route, algorithm, "--format", "json"
            ) == 0
            printed[algorithm] = capsys.readouterr().out
        assert printed["jxplain"] == printed["bimax-merge"]


#: Run in a fresh interpreter: ``discover`` a tiny file, then a large
#: one, each in a child forked from it, and print how far each child's
#: peak RSS rose, in KiB.  Linux carries a process's peak RSS across
#: ``exec`` (this one would start at the test runner's), so each run
#: forks a child, whose peak starts at its own size.
DISCOVER_RSS_PROBE = """
import os, resource, sys
from repro.cli import main

def grown(path, output):
    pid = os.fork()
    if pid == 0:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        code = main(["discover", path, "--output", output])
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        sys.stdout.flush()
        os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0

tiny, large, output = sys.argv[1:]
grown(tiny, output)
grown(large, output)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_peak_memory_of_plain_discover_does_not_grow_with_records(
    tmp_path,
):
    tiny = tmp_path / "tiny.jsonl"
    tiny.write_text('{"a": 1}\n' * 10)
    large = tmp_path / "large.jsonl"
    large.write_text('{"a": 1}\n' * 400_000)
    done = subprocess.run(
        [sys.executable, "-c", DISCOVER_RSS_PROBE, str(tiny), str(large),
         str(tmp_path / "schema.txt")],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tiny_kib, large_kib = map(int, done.stdout.split())
    # The run holds the state (one distinct type), not a type per
    # record: 400k records would cost a pointer each, over 3 MiB.
    assert large_kib - tiny_kib < 1024


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


    def test_int_past_the_parse_limit(self, tmp_path, capsys, route):
        """An int literal of more digits than ``json.loads`` accepts is
        a malformed line on every route, the fused reader's too."""
        path = tmp_path / "long.jsonl"
        path.write_text(
            '{"a": 1}\n{"a": 1%s}\n{"a": 2}\n' % ("0" * 5000),
            encoding="utf-8",
        )
        code = main(
            ["discover", str(path), *_route_flags(route, tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:2: invalid JSON: Exceeds the limit (4300 digits)"
        )


SHARDED_WORKERS = ("--shards", "2", "--workers", "2")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize(
    "flags", [(), SHARDED_WORKERS], ids=["serial", "sharded"],
)
def test_enriched_discover_takes_ints_past_the_float_range(
    tmp_path, capsys, flags
):
    # 10**400 is a valid JSON int that no float holds; the min/max
    # sketch stores it as +inf, as it stores the float literal 1e400.
    # An infinite bound is left out of the document (absent means
    # unbounded), so what is written stays JSON.
    path = tmp_path / "huge.jsonl"
    path.write_text(
        '{"a": 1%s}\n{"a": 5}\n{"a": -1%s}\n' % ("0" * 400, "0" * 320),
        encoding="utf-8",
    )
    target = tmp_path / "schema.json"
    code = main([
        "discover", str(path), "--enrich", "sketches", "--format", "json",
        "--output", str(target), *flags,
    ])
    assert code == 0, capsys.readouterr().err
    document = json.loads(
        target.read_text(), parse_constant=_reject_constant
    )
    field = document["properties"]["a"]
    assert "minimum" not in field and "maximum" not in field
    assert field["type"] == "number"


@pytest.mark.parametrize(
    ("line", "in_schema"),
    [('{"s": "\\ud800"}', False), ('{"\\ud800": 1}', True)],
    ids=["value", "key"],
)
def test_lone_surrogate_discovers_on_every_route(
    tmp_path, capsys, line, in_schema
):
    """``json.loads`` admits a lone escaped surrogate; every route that
    encodes strings (sketch fingerprints, the checkpoint codec) takes
    it, and the plain routes print the same bytes."""
    path = tmp_path / "surrogate.jsonl"
    path.write_text(line + '\n{"b": 2}\n', encoding="utf-8")
    checkpoint = str(tmp_path / "state.ckpt")

    def run(name, *flags, source=(str(path),)):
        target = tmp_path / f"{name}.json"
        code = main([
            "discover", *source, "--format", "json",
            "--output", str(target), *flags,
        ])
        assert code == 0, (name, capsys.readouterr().err)
        return target.read_bytes()

    plain = run("plain")
    assert run("checkpoint", "--checkpoint", checkpoint) == plain
    assert run(
        "resume", "--checkpoint", checkpoint, "--resume", source=()
    ) == plain
    assert run("sharded", *SHARDED_WORKERS) == plain
    enriched = run("enriched", "--enrich", "sketches,unions")
    assert run(
        "enriched-sharded", "--enrich", "sketches,unions", *SHARDED_WORKERS
    ) == enriched
    # The text route prints an unencodable key as its escape.
    assert main(["discover", str(path)]) == 0
    assert ("\\ud800" in capsys.readouterr().out) == in_schema


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
