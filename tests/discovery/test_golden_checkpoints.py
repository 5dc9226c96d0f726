"""Golden checkpoints: the codec's compatibility contract, pinned.

``fixtures/checkpoints/`` holds a checked-in corpus (100 ``figure1``
records, seed 16) and, for every state algorithm, the checkpoints and
``--format json`` schemas the CLI wrote for it::

    jxplain discover corpus.jsonl --algorithm A \\
        [--enrich sketches,unions] --checkpoint vN/A[-enriched].ckpt \\
        --format json > vN/A[-enriched].schema.json

``v3/`` was written by the codec-version-3 build and ``v2/`` by the
codec-version-2 build; ``v1/`` holds plain checkpoints written by the
last codec-version-1 build.  The files are never regenerated to make a
test pass: a codec change that alters the bytes bumps
``CODEC_VERSION`` and adds a new ``vN/`` directory beside these.

Version 3 dropped the JXPLAIN stat tree and added a checksum trailer,
so every v2 golden must still load, synthesize its pinned schema and
save back as the v3 golden's bytes.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.discovery import load_state, state_for_algorithm
from repro.discovery.codec import CODEC_VERSION
from repro.errors import CheckpointError
from repro.io.fastpath import absorb_file

FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"
CORPUS = FIXTURES / "corpus.jsonl"
ALGORITHMS = ("l-reduce", "k-reduce", "bimax-merge", "bimax-naive")
ENRICH = "sketches,unions"


def _name(algorithm: str, enrich) -> str:
    return algorithm + ("-enriched" if enrich else "")


GOLDENS = [
    pytest.param(algorithm, enrich, id=_name(algorithm, enrich))
    for algorithm in ALGORITHMS
    for enrich in (None, ENRICH)
]


def _golden(algorithm: str, enrich, suffix: str, version: int = 2) -> Path:
    return FIXTURES / f"v{version}" / f"{_name(algorithm, enrich)}{suffix}"


def _resume(checkpoint: Path, capsys, *extra: str) -> str:
    assert main(
        ["discover", "--resume", "--checkpoint", str(checkpoint),
         "--format", "json", *extra]
    ) == 0
    return capsys.readouterr().out


def test_current_codec_version_has_goldens():
    assert (FIXTURES / f"v{CODEC_VERSION}").is_dir()


@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_golden_resynthesizes_pinned_schema(
    algorithm, enrich, tmp_path, capsys
):
    """A resumed v2 golden prints its pinned schema and saves itself
    back as the v3 golden."""
    golden = _golden(algorithm, enrich, ".ckpt")
    checkpoint = tmp_path / golden.name
    shutil.copyfile(golden, checkpoint)
    pinned = _golden(algorithm, enrich, ".schema.json").read_text()
    assert _resume(checkpoint, capsys) == pinned
    v3 = _golden(algorithm, enrich, ".ckpt", version=3)
    assert checkpoint.read_bytes() == v3.read_bytes()


@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_v3_golden_resumes_unchanged(algorithm, enrich, tmp_path, capsys):
    golden = _golden(algorithm, enrich, ".ckpt", version=3)
    checkpoint = tmp_path / golden.name
    shutil.copyfile(golden, checkpoint)
    pinned = _golden(algorithm, enrich, ".schema.json", version=3)
    assert _resume(checkpoint, capsys) == pinned.read_text()
    assert pinned.read_text() == _golden(
        algorithm, enrich, ".schema.json"
    ).read_text()
    assert checkpoint.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_v2_resume_sharded_append_equals_one_shot(
    algorithm, enrich, tmp_path, capsys
):
    """v2 resume + ``--append corpus --shards 2`` is a one-shot v3 run
    over the corpus twice: same schema, same checkpoint bytes."""
    resumed = tmp_path / "resumed.ckpt"
    shutil.copyfile(_golden(algorithm, enrich, ".ckpt"), resumed)
    out = _resume(resumed, capsys, "--append", str(CORPUS), "--shards", "2")
    twice = tmp_path / "twice.jsonl"
    twice.write_bytes(CORPUS.read_bytes() * 2)
    one_shot = tmp_path / "one-shot.ckpt"
    argv = ["discover", str(twice), "--algorithm", algorithm,
            "--checkpoint", str(one_shot), "--format", "json"]
    if enrich:
        argv += ["--enrich", enrich]
    assert main(argv) == 0
    assert out == capsys.readouterr().out
    assert resumed.read_bytes() == one_shot.read_bytes()


@pytest.mark.parametrize("ingest", ["fused", "classic"])
@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_fresh_state_serializes_to_golden_bytes(algorithm, enrich, ingest):
    state = state_for_algorithm(algorithm, enrich=enrich)
    absorb_file(state, CORPUS, ingest=ingest, on_bad_record="raise")
    golden = _golden(algorithm, enrich, ".ckpt", version=CODEC_VERSION)
    assert state.to_bytes() == golden.read_bytes()
    assert load_state(golden) == state


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_v1_checkpoint_is_rejected_by_version(algorithm):
    with pytest.raises(CheckpointError, match=r"codec version 1\b"):
        load_state(FIXTURES / "v1" / f"{algorithm}.ckpt")
