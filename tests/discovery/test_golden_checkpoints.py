"""Golden checkpoints: the codec's compatibility contract, pinned.

``fixtures/checkpoints/`` holds a checked-in corpus (100 ``figure1``
records, seed 16) and, for every state algorithm, the checkpoints and
``--format json`` schemas the CLI wrote for it::

    jxplain discover corpus.jsonl --algorithm A \\
        [--enrich sketches,unions] --checkpoint vN/A[-enriched].ckpt \\
        --format json > vN/A[-enriched].schema.json

``v2/`` was written by the codec-version-2 build; ``v1/`` holds plain
checkpoints written by the last codec-version-1 build.  The files are
never regenerated to make a test pass: a codec change that alters the
bytes bumps ``CODEC_VERSION`` and adds a new ``vN/`` directory beside
these.
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


def _golden(algorithm: str, enrich, suffix: str) -> Path:
    return FIXTURES / "v2" / f"{_name(algorithm, enrich)}{suffix}"


def test_current_codec_version_has_goldens():
    assert (FIXTURES / f"v{CODEC_VERSION}").is_dir()


@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_golden_resynthesizes_pinned_schema(
    algorithm, enrich, tmp_path, capsys
):
    """A resumed golden prints its pinned schema and saves itself back
    unchanged."""
    golden = _golden(algorithm, enrich, ".ckpt")
    checkpoint = tmp_path / golden.name
    shutil.copyfile(golden, checkpoint)
    assert main(
        ["discover", "--resume", "--checkpoint", str(checkpoint),
         "--format", "json"]
    ) == 0
    pinned = _golden(algorithm, enrich, ".schema.json").read_text()
    assert capsys.readouterr().out == pinned
    assert checkpoint.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("ingest", ["fused", "classic"])
@pytest.mark.parametrize("algorithm, enrich", GOLDENS)
def test_fresh_state_serializes_to_golden_bytes(algorithm, enrich, ingest):
    state = state_for_algorithm(algorithm, enrich=enrich)
    absorb_file(state, CORPUS, ingest=ingest, on_bad_record="raise")
    golden = _golden(algorithm, enrich, ".ckpt")
    assert state.to_bytes() == golden.read_bytes()
    assert load_state(golden) == state


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_v1_checkpoint_is_rejected_by_version(algorithm):
    with pytest.raises(CheckpointError, match=r"codec version 1\b"):
        load_state(FIXTURES / "v1" / f"{algorithm}.ckpt")
