"""A corrupt checkpoint fails as a codec error, never as anything else.

``load_state`` turns :class:`StateCodecError` into the CLI's one-line
``error: checkpoint ...`` (exit 2); any other exception escaping the
decoder is a traceback.  The mutation loop flips one to three bytes of
an enriched golden checkpoint, which reaches invalid UTF-8, impossible
sketch geometry, unknown enum names and out-of-range configuration.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.discovery import DiscoveryState
from repro.errors import StateCodecError

GOLDEN = (
    Path(__file__).parent
    / "fixtures"
    / "checkpoints"
    / "v2"
    / "bimax-merge-enriched.ckpt"
)
MUTATIONS = 3000


def _mutate(data: bytes, rng: random.Random) -> bytes:
    buffer = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        buffer[rng.randrange(len(buffer))] = rng.randrange(256)
    return bytes(buffer)


def test_mutated_enriched_checkpoint_decodes_or_raises_codec_error():
    data = GOLDEN.read_bytes()
    rng = random.Random(17)
    rejected = 0
    for _ in range(MUTATIONS):
        try:
            DiscoveryState.from_bytes(_mutate(data, rng))
        except StateCodecError:
            rejected += 1
    # Many mutations land in Bloom bits or HLL registers and decode;
    # a fair share must still be rejected, or the loop tests nothing.
    assert rejected > MUTATIONS // 5


def test_bundle_geometry_must_match_the_options():
    state = DiscoveryState.from_bytes(GOLDEN.read_bytes())
    bundle = next(iter(state.enrichment.paths.values()))
    bundle.members.hashes += 1
    # It used to load, then fail its first merge with ValueError.
    with pytest.raises(StateCodecError, match="geometry"):
        DiscoveryState.from_bytes(state.to_bytes())


def test_cli_reports_a_corrupt_checkpoint(tmp_path, capsys):
    data = GOLDEN.read_bytes()
    # Invalid UTF-8 inside the encoded entity-strategy name.
    at = data.rindex(b"bimax-merge") + 3
    checkpoint = tmp_path / "bad.ckpt"
    checkpoint.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    assert main(["discover", "--resume", "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint")
    assert "Traceback" not in err
