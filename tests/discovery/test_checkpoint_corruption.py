"""A corrupt checkpoint fails as a codec error, never as anything else.

``load_state`` turns :class:`StateCodecError` into the CLI's one-line
``error: checkpoint ...`` (exit 2); any other exception escaping the
decoder is a traceback.  The mutation loops flip one to three bytes of
a golden checkpoint, which reaches invalid UTF-8, impossible sketch
geometry, unknown enum names and out-of-range configuration; on a v3
golden they recompute the checksum afterwards, so the structural
checks behind it stay exercised.  Hand-built payloads pin the bounds
on nesting depth and Bloom geometry.
"""

from __future__ import annotations

import random
import struct
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.discovery import DiscoveryState, JxplainConfig, state_for_algorithm
from repro.discovery.codec import (
    MAX_SCHEMA_DEPTH,
    Encoder,
    _Reader,
    _Writer,
    dumps_schema,
    write_config,
)
from repro.discovery.sketches import (
    MAX_BLOOM_BITS,
    MAX_BLOOM_HASHES,
    BloomMembershipSketch,
    EnrichmentOptions,
)
from repro.errors import RecursionDepthError, StateCodecError
from repro.jsontypes.types import MAX_DEPTH, type_of

CHECKPOINTS = Path(__file__).parent / "fixtures" / "checkpoints"
GOLDEN = CHECKPOINTS / "v2" / "bimax-merge-enriched.ckpt"
MUTATIONS = 3000
V3_GOLDENS = sorted((CHECKPOINTS / "v3").glob("*.ckpt"))
V3_MUTATIONS = 1000


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


def test_codec_strings_pass_lone_surrogates_and_reject_bad_utf8():
    """A lone surrogate (which ``json.loads`` admits) round-trips as
    the writer wrote it; any other invalid UTF-8 is a codec error."""
    writer = _Writer()
    for text in ("\ud800", "a\udfffb", "caf\u00e9"):
        writer.string(text)
    reader = _Reader(writer.getvalue())
    assert [reader.string() for _ in range(3)] == [
        "\ud800", "a\udfffb", "caf\u00e9"
    ]
    for bad in (b"\xff", b"\xc0\x80", b"\xe2\x82", b"\xf8\x88\x80\x80\x80"):
        with pytest.raises(StateCodecError, match="malformed utf-8"):
            _Reader(bytes([len(bad)]) + bad).string()


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("golden", V3_GOLDENS, ids=lambda path: path.stem)
def test_mutated_v3_golden_decodes_or_raises_codec_error(golden):
    data = golden.read_bytes()[:-4]
    rng = random.Random(17)
    rejected = 0
    for _ in range(V3_MUTATIONS):
        try:
            DiscoveryState.from_bytes(_with_crc(_mutate(data, rng)))
        except StateCodecError:
            rejected += 1
    assert rejected > V3_MUTATIONS // 10


@pytest.mark.parametrize("name", ["l-reduce", "k-reduce"])
def test_every_single_bit_flip_is_rejected(name):
    data = (CHECKPOINTS / "v3" / f"{name}.ckpt").read_bytes()
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(bytes(flipped))


# -- hand-built payloads ------------------------------------------------------


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _payload(kind: str, body: bytes, table: bytes = b"\x00",
             version: int = 3) -> bytes:
    """Header, type table and body; version 3 adds the checksum."""
    kind_bytes = kind.encode()
    data = (
        b"RDSC" + _uvarint(version) + _uvarint(len(kind_bytes))
        + kind_bytes + table + body
    )
    return _with_crc(data) if version >= 3 else data


def _deep_k_reduce(levels: int) -> bytes:
    # Record count 1; ``levels`` nested ArrayCollection nodes (tag 4)
    # around a number (tag 1, kind 1), each closed by max_length 0;
    # no enrichment.
    schema = b"\x04" * levels + b"\x01\x01" + b"\x00" * levels
    return _payload("state:k-reduce", _uvarint(1) + schema + b"\x00")


def _deep_l_reduce_table(levels: int) -> bytes:
    # Row 0 is the number type; row i is an array holding row i - 1.
    rows = b"".join(
        b"\x05\x01" + _uvarint(row - 1) for row in range(1, levels + 1)
    )
    table = _uvarint(levels + 1) + b"\x01" + rows
    bag = b"\x00" + _uvarint(1) + _uvarint(levels) + _uvarint(1)
    return _payload("state:l-reduce", bag + b"\x00", table=table)


def _deep_v2_tree(levels: int) -> bytes:
    # Each node: no similarity depth, no primitive kinds, no evidence,
    # then one child under step "a"; the innermost node has none.
    enc = Encoder()
    write_config(enc, JxplainConfig())
    node = b"\x00\x00\x00\x00"
    tree = (node + b"\x01" + b"\x00\x01a") * (levels - 1) + node + b"\x00"
    body = enc.w.getvalue() + b"\x00\x00" + tree + b"\x00"
    return _payload("state:jxplain", body, version=2)


def _bloom_options(bits: int, hashes: int) -> bytes:
    # An empty l-reduce bag with a sketch sidecar and no paths.
    options = (
        b"\x01\x00" + _uvarint(bits) + _uvarint(hashes)
        + _uvarint(8) + _uvarint(32) + _uvarint(64)
    )
    body = b"\x00\x00" + b"\x01" + options + b"\x00" * 4
    return _payload("state:l-reduce", body)


TOO_DEEP = {
    "k-reduce-schema": _deep_k_reduce(100_000),
    "l-reduce-type-table": _deep_l_reduce_table(5_000),
    "v2-stat-tree": _deep_v2_tree(100_000),
}

BAD_GEOMETRY = {
    "bloom-bits": _bloom_options(2**40, 4),
    "bloom-hashes": _bloom_options(1024, 10**6),
}


@pytest.mark.parametrize(
    "payload", [*TOO_DEEP.values(), *BAD_GEOMETRY.values()],
    ids=[*TOO_DEEP, *BAD_GEOMETRY],
)
def test_unbounded_payload_raises_codec_error(payload):
    with pytest.raises(StateCodecError):
        DiscoveryState.from_bytes(payload)


@pytest.mark.parametrize("payload", TOO_DEEP.values(), ids=list(TOO_DEEP))
def test_cli_reports_a_too_deep_checkpoint(payload, tmp_path, capsys):
    checkpoint = tmp_path / "deep.ckpt"
    checkpoint.write_bytes(payload)
    assert main(["discover", "--resume", "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint")
    assert "Traceback" not in err


def test_depth_bounds_admit_the_deepest_writable_payloads():
    assert DiscoveryState.from_bytes(_deep_k_reduce(MAX_SCHEMA_DEPTH - 1))
    assert DiscoveryState.from_bytes(_deep_l_reduce_table(MAX_DEPTH - 1))
    assert DiscoveryState.from_bytes(_deep_v2_tree(MAX_DEPTH))
    for payload in (
        _deep_k_reduce(MAX_SCHEMA_DEPTH),
        _deep_l_reduce_table(MAX_DEPTH),
        _deep_v2_tree(MAX_DEPTH + 1),
    ):
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(payload)


def _nested(depth: int, wrap):
    value = 1
    for _ in range(depth - 1):
        value = wrap(value)
    return value


@pytest.mark.parametrize("algorithm", ["l-reduce", "k-reduce"])
@pytest.mark.parametrize(
    "wrap", [lambda v: [v], lambda v: {"a": v}], ids=["array", "object"]
)
def test_max_depth_record_round_trips_and_synthesizes(algorithm, wrap):
    record = _nested(MAX_DEPTH, wrap)
    assert type_of(record).depth() == MAX_DEPTH
    state = state_for_algorithm(algorithm)
    state.absorb(record)
    revived = DiscoveryState.from_bytes(state.to_bytes())
    assert revived == state
    # Compared as bytes: ``==`` on a schema this deep recurses too far.
    assert dumps_schema(revived.synthesize()) == dumps_schema(
        state.synthesize()
    )
    with pytest.raises(RecursionDepthError):
        state.absorb(_nested(MAX_DEPTH + 1, wrap))


def test_bloom_geometry_bounds_are_shared():
    BloomMembershipSketch(MAX_BLOOM_BITS, MAX_BLOOM_HASHES)
    EnrichmentOptions(
        bloom_bits=MAX_BLOOM_BITS, bloom_hashes=MAX_BLOOM_HASHES
    ).validate()
    for bits, hashes in ((MAX_BLOOM_BITS + 8, 4), (1024, MAX_BLOOM_HASHES + 1)):
        with pytest.raises(ValueError):
            BloomMembershipSketch(bits, hashes)
        with pytest.raises(ValueError):
            EnrichmentOptions(bloom_bits=bits, bloom_hashes=hashes).validate()
