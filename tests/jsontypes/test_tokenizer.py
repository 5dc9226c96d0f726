"""Unit and property tests for the bytes-to-type tokenizer layer.

The load-bearing claims: :func:`scan_type` is extensionally equal to
``type_of(json.loads(...))`` (same type object under interning, same
errors), and :func:`structural_skeleton` is collision-safe — equal
skeletons imply equal scanned types, and a malformed line can never
share a skeleton with a valid one it would shadow in the cache.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsontypes.tokenizer import (
    DEFAULT_SHAPE_CACHE_SIZE,
    ShapeCache,
    depth_exceeds,
    line_token_count,
    scan_type,
    structural_skeleton,
)
from repro.jsontypes.types import (
    BOOLEAN,
    MAX_DEPTH,
    NULL,
    NUMBER,
    STRING,
    type_of,
)

from tests.conftest import json_keys, json_primitives


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------------------
# scan_type ≡ type_of ∘ json.loads
# ---------------------------------------------------------------------------


SCAN_CASES = [
    {},
    {"a": 1},
    {"a": [1, 2, "x"], "b": {"c": None}},
    [],
    [[]],
    [1, True, None, "s", {"k": 0.5}],
    "plain string",
    3,
    -0.5,
    1e300,
    True,
    None,
    {"esc": 'quote " backslash \\ newline \n tab \t'},
    {"unicode": "héllo wörld — ünïcode"},
    {"surrogate pair": "emoji \U0001f600 and 😀-style escapes"},
    {"huge": 10**400},
    {"tiny": -(10**400)},
    {"nested " * 3: {"deep": [[[{"x": [0]}]]]}},
    {"dup": 1, "dup2": {"dup": "s"}},
]


@pytest.mark.parametrize("value", SCAN_CASES, ids=range(len(SCAN_CASES)))
def test_scan_type_matches_type_of(value):
    text = dumps(value)
    assert scan_type(text) is type_of(json.loads(text))


def test_scan_type_handles_escaped_surrogate_text():
    # A lone escaped surrogate is accepted by json.loads; both paths
    # must agree it is just a string.
    text = '{"s": "\\ud800"}'
    assert scan_type(text) is type_of(json.loads(text))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not json",
        '{"a": 00}',
        '{"a": 1.}',
        '{"a":',
        "[1, 2,]",
        '"unterminated',
        "{'single': 1}",
        "NaN-ish garbage",
    ],
)
def test_scan_type_raises_where_json_loads_raises(text):
    with pytest.raises(ValueError) as scan_error:
        scan_type(text)
    with pytest.raises(ValueError) as loads_error:
        json.loads(text)
    # Same C scanner, same message — this is what keeps the fused
    # error channel byte-identical to the classic one.
    assert str(scan_error.value) == str(loads_error.value)


def test_scan_type_constants_collapse():
    assert scan_type("null") is NULL
    assert scan_type("true") is BOOLEAN
    assert scan_type("false") is BOOLEAN
    assert scan_type("1e9") is NUMBER
    assert scan_type('"x"') is STRING
    assert scan_type("NaN") is NUMBER  # parse_constant hook
    assert type_of(float("nan")) is NUMBER


shallow_values = st.one_of(
    json_primitives,
    st.lists(json_primitives, max_size=3),
    st.dictionaries(json_keys, json_primitives, max_size=3),
)
records = st.dictionaries(json_keys, shallow_values, max_size=5)


@settings(max_examples=80, deadline=None)
@given(value=records)
def test_scan_type_matches_type_of_property(value):
    text = dumps(value)
    assert scan_type(text) is type_of(json.loads(text))


# ---------------------------------------------------------------------------
# Depth bound parity.
# ---------------------------------------------------------------------------


def nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def test_depth_exceeds_matches_type_of_bound():
    at_bound = type_of(nested(MAX_DEPTH - 1))
    assert not depth_exceeds(at_bound)
    over = scan_type(dumps(nested(MAX_DEPTH)))
    assert depth_exceeds(over)
    # type_of itself refuses past the bound.
    from repro.errors import RecursionDepthError

    with pytest.raises(RecursionDepthError):
        type_of(nested(MAX_DEPTH))


def test_deep_arrays_scan_and_check_iteratively():
    # 900 array levels is within what the classic reader's json.loads
    # accepts, so the scanner and the depth checker must both handle
    # it without Python-level recursion.
    deep = scan_type("[" * 900 + "1" + "]" * 900)
    assert scan_type("[" * 900 + "1" + "]" * 900) is deep
    assert depth_exceeds(deep, 256)
    assert not depth_exceeds(deep, 901)


def _defined_depth(tau):
    children = [_defined_depth(child) for child in tau.children()]
    return 1 + max(children, default=0)


@pytest.mark.parametrize("dataset", ["github", "pharma", "yelp-merged"])
def test_recorded_depth_matches_its_definition(dataset):
    # depth_exceeds is O(1) because every node records its depth when
    # built; the recorded value must be the recursive definition, and
    # must survive the pickle round trip that ships types to workers.
    import pickle

    from repro.datasets import make_dataset

    for record in make_dataset(dataset).generate(40, seed=3):
        tau = scan_type(dumps(record))
        assert tau.depth() == _defined_depth(tau)
        assert pickle.loads(pickle.dumps(tau)).depth() == tau.depth()


# ---------------------------------------------------------------------------
# Skeleton safety.
# ---------------------------------------------------------------------------


def test_skeleton_none_for_escapes_controls_non_ascii():
    assert structural_skeleton(b'{"a": "x\\ny"}') is None  # backslash
    assert structural_skeleton(b'{"a": "x\ty"}') is None  # control byte
    assert structural_skeleton('{"a": "héllo"}'.encode()) is None
    assert structural_skeleton(b'{"bad": "\xff\xfe"}') is None
    assert structural_skeleton(b'{"unterminated": "...') is None  # parity


def test_skeleton_separates_keys_from_value_strings():
    with_key = structural_skeleton(b'{"name": "alice"}')
    other_value = structural_skeleton(b'{"name": "bob28"}')
    other_key = structural_skeleton(b'{"nome": "alice"}')
    assert with_key is not None
    # Value-string contents are dropped: same shape.
    assert with_key == other_value
    # Key names are part of the shape.
    assert with_key != other_key
    # The space-before-colon form still classifies the key correctly.
    spaced = structural_skeleton(b'{"name" : "alice"}')
    assert spaced is not None
    assert spaced[1] == (b"name",)


def test_skeleton_normalizes_numbers_but_not_almost_numbers():
    a = structural_skeleton(b'{"n": 1}')
    b = structural_skeleton(b'{"n": -2.5e10}')
    assert a == b
    # Invalid spellings stay distinct from every valid spelling.
    assert structural_skeleton(b'{"n": 00}') != a
    assert structural_skeleton(b'{"n": 1.}') != a
    assert structural_skeleton(b'{"n": +5}') != a


@settings(max_examples=150, deadline=None)
@given(first=records, second=records)
def test_equal_skeletons_imply_equal_types(first, second):
    """The collision-safety contract, directly."""
    line_a = dumps(first).encode()
    line_b = dumps(second).encode()
    skel_a = structural_skeleton(line_a)
    skel_b = structural_skeleton(line_b)
    if skel_a is not None and skel_a == skel_b:
        assert scan_type(line_a.decode()) is scan_type(line_b.decode())


@settings(max_examples=100, deadline=None)
@given(value=records)
def test_skeleton_is_deterministic(value):
    line = dumps(value).encode()
    assert structural_skeleton(line) == structural_skeleton(line)


def test_line_token_count():
    assert line_token_count(b'{"a": 1, "b": [2, "x"]}') == 5
    assert line_token_count(b"[]") == 0
    assert line_token_count(b"[1, 2, 3]") == 3
    assert line_token_count(b'"s"') == 1


# ---------------------------------------------------------------------------
# ShapeCache.
# ---------------------------------------------------------------------------


def test_shape_cache_bound_and_fifo_eviction():
    cache = ShapeCache(max_size=2)
    cache.put((b"a", ()), NULL)
    cache.put((b"b", ()), BOOLEAN)
    assert len(cache) == 2
    cache.put((b"c", ()), NUMBER)  # evicts the oldest insert: "a"
    assert len(cache) == 2
    assert (b"a", ()) not in cache
    assert cache.get((b"b", ())) is BOOLEAN
    assert cache.get((b"c", ())) is NUMBER
    assert cache.evictions == 1
    # Re-putting an existing key is not an eviction.
    cache.put((b"b", ()), BOOLEAN)
    assert cache.evictions == 1
    assert cache.stats()["size"] == 2


def test_shape_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        ShapeCache(max_size=0)
    assert ShapeCache().max_size == DEFAULT_SHAPE_CACHE_SIZE
