"""Unit and property tests for the bytes-to-type tokenizer layer.

The load-bearing claims: :func:`scan_type` is extensionally equal to
``type_of(json.loads(...))`` (same type object under interning, same
errors), and :func:`structural_skeleton` is collision-safe — equal
skeletons imply equal scanned types, and a malformed line can never
share a skeleton with a valid one it would shadow in the cache.
"""

from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import dataset_names, make_dataset
from repro.io.fastpath import read_jsonlines_fused
from repro.jsontypes.tokenizer import (
    DEFAULT_SHAPE_CACHE_SIZE,
    NUMBER_RE,
    ShapeCache,
    depth_exceeds,
    line_token_count,
    scan_type,
    scan_typed,
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


def test_true_and_false_share_a_skeleton():
    line = structural_skeleton(b'{"a": true, "b": [false, 1]}')
    for other in (
        b'{"a": false, "b": [false, 2]}',
        b'{"a": true, "b": [true, -3.5]}',
        b'{"a": false, "b": [true, 0]}',
    ):
        assert structural_skeleton(other) == line
        assert ShapeCache().skeleton(other) == line
    assert structural_skeleton(b'{"a": null, "b": [false, 1]}') != line


#: Keyword garbage next to the boolean fold, tried in each slot of
#: the templates below.
MALFORMED_KEYWORDS = [b"fals", b"falsee", b"truefalse", b"-false"]
#: What may fill the same slots in a valid line.
VALID_SLOT_VALUES = [
    b"true", b"false", b"null", b"0", b"-1", b'"s"', b"[]", b"{}",
    b"[true]", b"[false, true]",
]


def test_malformed_keywords_never_share_a_valid_skeleton():
    templates = [b'{"a": %s}', b'{"a": %s, "b": 1}', b"[%s, 1]", b"%s"]
    for template in templates:
        valid = {
            structural_skeleton(template % value)
            for value in VALID_SLOT_VALUES
        }
        for value in VALID_SLOT_VALUES:
            json.loads(template % value)
        for garbage in MALFORMED_KEYWORDS:
            line = template % garbage
            with pytest.raises(ValueError):
                json.loads(line)
            assert structural_skeleton(line) is not None
            assert structural_skeleton(line) not in valid
            assert ShapeCache().skeleton(line) == structural_skeleton(line)


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


#: Real corpus lines that have a skeleton (ASCII, no escapes), and the
#: type each skeleton caches.
CORPUS_LINES = [
    line
    for name in ("github", "yelp-merged")
    for line in (
        json.dumps(record).encode()
        for record in make_dataset(name).generate(60, seed=5)
    )
    if structural_skeleton(line) is not None
]
CACHED = {
    structural_skeleton(line): scan_type(line.decode())
    for line in CORPUS_LINES
}

#: Bytes a mutation writes: number and keyword spellings, structure,
#: quotes, escapes, control bytes and non-ASCII.
MUTATION_BYTES = st.sampled_from(
    list(b'0123456789-+.eEtrufalsn aZ"\\:,{}[]')
    + [0x00, 0x1F, 0x7F, 0xC3, 0xFF]
)


#: Where a mutation most often keeps a skeleton while it changes what
#: the line parses to: in numbers, at quotes and around colons.
INTERESTING_BYTES = frozenset(b'0123456789-."')


@st.composite
def mutated_lines(draw):
    """A corpus line after one to three byte replacements, insertions
    (also at either end), deletions or splices of a slice of another
    corpus line, half of them at an :data:`INTERESTING_BYTES`
    position."""
    line = draw(st.sampled_from(CORPUS_LINES))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(
            ["replace", "insert", "edge", "delete", "splice"]
        ))
        if kind == "edge":
            byte = bytes([draw(MUTATION_BYTES)])
            line = byte + line if draw(st.booleans()) else line + byte
            continue
        interesting = [
            index
            for index, byte in enumerate(line)
            if byte in INTERESTING_BYTES
        ]
        start = draw(
            st.sampled_from(interesting)
            if interesting and draw(st.booleans())
            else st.integers(min_value=0, max_value=len(line))
        )
        if kind == "replace":
            byte = bytes([draw(MUTATION_BYTES)])
            line = line[:start] + byte + line[start + 1:]
        elif kind == "insert":
            line = line[:start] + bytes([draw(MUTATION_BYTES)]) + line[start:]
        elif kind == "delete":
            stop = draw(st.integers(min_value=start, max_value=start + 8))
            line = line[:start] + line[stop:]
        else:
            other = draw(st.sampled_from(CORPUS_LINES))
            stop = draw(st.integers(min_value=start, max_value=len(line)))
            low = draw(st.integers(min_value=0, max_value=len(other)))
            high = draw(st.integers(min_value=low, max_value=len(other)))
            line = line[:start] + other[low:high] + line[stop:]
    return line


#: One cache whose key-position memo every line below goes through:
#: all dataset generators, the mutants and splices, and the hand cases.
#: Its skeletons must equal the reference's whatever structures the
#: memo has already seen.
SHARED_CACHE = ShapeCache()


@settings(max_examples=1000, deadline=None)
@given(mutant=mutated_lines())
def test_a_mutant_that_hits_a_cached_skeleton_parses_to_its_type(mutant):
    """The collision-safety contract on mutated and spliced real lines:
    a line whose skeleton is a cached one is valid JSON (the typed
    reader decodes a hit with ``json.loads`` unchecked) of exactly the
    cached type.  The memoized skeleton equals the reference on every
    mutant."""
    assert SHARED_CACHE.skeleton(mutant) == structural_skeleton(mutant)
    cached = CACHED.get(structural_skeleton(mutant))
    if cached is not None:
        value = json.loads(mutant)
        # Equal, not identical: other tests may clear the intern table
        # after CACHED was built.
        assert type_of(value) == cached
        assert scan_typed(mutant.decode()) == (cached, value)


def test_mutation_fuzz_reaches_cached_skeletons():
    # The fuzz above proves something only if mutants do hit: a digit
    # or string-content edit keeps the skeleton.
    line = CORPUS_LINES[0]
    at = line.index(b'"', line.index(b":")) + 1
    edited = line[:at] + b"Q" + line[at + 1:]
    assert len(CORPUS_LINES) > 60
    assert structural_skeleton(edited) == structural_skeleton(line)


def test_no_skeleton_for_an_int_past_the_parse_limit():
    limit = sys.get_int_max_str_digits()
    short = b'{"a": 1' + b"0" * (limit - 1) + b"}"
    long = b'{"a": 1' + b"0" * limit + b"}"
    assert structural_skeleton(short) == structural_skeleton(b'{"a": 5}')
    assert structural_skeleton(long) is None
    with pytest.raises(ValueError) as loads_error:
        json.loads(long)
    with pytest.raises(ValueError) as scan_error:
        scan_type(long.decode())
    assert str(scan_error.value) == str(loads_error.value)
    # Without a limit, the long literal is an ordinary number.
    sys.set_int_max_str_digits(0)
    try:
        assert structural_skeleton(long) == structural_skeleton(short)
        assert scan_type(long.decode()) is type_of({"a": 1})
    finally:
        sys.set_int_max_str_digits(limit)


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


# ---------------------------------------------------------------------------
# ShapeCache.skeleton: the memoized skeleton both readers call.
# ---------------------------------------------------------------------------


#: Lines that probe the key-position memo: one structure with different
#: keys, a space before the colon, empty keys, value strings holding
#: colons, escapes and non-ASCII (no skeleton), garbage, strings in
#: key-like places, and an int literal past the parse limit (no skeleton).
HAND_LINES = [
    b'{"a": 1' + b"0" * sys.get_int_max_str_digits() + b"}",
    b'{"a":1}',
    b'{"b":2}',
    b'{"a":1.5e3}',
    b'{"k" :1}',
    b'{"k"  : "v"}',
    b'{"k": "v"}',
    b'{"":1}',
    b'{"":""}',
    b'{"": {"": []}}',
    b'{"a":"x:y"}',
    b'{"a":":"}',
    b'{"b":":"}',
    b'{"a":" :"}',
    b'[":", "a", {"b": ":"}]',
    b'["a" :1]',
    b'{"a" "b": 1}',
    b'{"a":-0.5,"b":[1,"c",{"d":null}]}',
    b'{"a":-1,"b":[2,"q",{"e":true}]}',
    b'{"a": "x\\ny"}',
    b'{"a": "h\\u00e9llo"}',
    '{"é": 1}'.encode(),
    b'{"a": "x\ty"}',
    b'{"unterminated": "...',
    b'"just a string"',
    b"123",
    b"-",
    b"",
]


def test_memoized_skeleton_equals_the_reference_on_every_corpus_line():
    for name in dataset_names():
        for record in make_dataset(name).generate(30, seed=11):
            for line in (
                json.dumps(record).encode(),
                json.dumps(record, separators=(",", ":")).encode(),
            ):
                assert SHARED_CACHE.skeleton(line) == structural_skeleton(line)
    for line in HAND_LINES:
        assert SHARED_CACHE.skeleton(line) == structural_skeleton(line)


def test_memoized_skeleton_keeps_keys_per_line():
    cache = ShapeCache()
    first = cache.skeleton(b'{"a":1}')
    second = cache.skeleton(b'{"b":2}')
    assert first[0] == second[0]
    assert (first[1], second[1]) == ((b"a",), (b"b",))
    assert cache.skeleton(b'{"k" :1}')[1] == (b"k",)
    assert cache.skeleton(b'{"":1}')[1] == (b"",)
    assert cache.skeleton(b'{"a":"x:y","b":":"}')[1] == (b"a", b"b")
    assert cache.skeleton(b'{"a": "x\\ny"}') is None
    assert cache.skeleton('{"a": "héllo"}'.encode()) is None


def test_memoized_skeleton_refuses_an_int_past_the_parse_limit():
    limit = sys.get_int_max_str_digits()
    long = b'{"a": 1' + b"0" * limit + b"}"
    cache = ShapeCache()
    assert cache.skeleton(b'{"a": 5}') == structural_skeleton(b'{"a": 5}')
    assert cache.skeleton(long) is None
    assert structural_skeleton(long) is None
    # The limit is read when the cache is built (and by each reader
    # when it starts), not on every line.
    sys.set_int_max_str_digits(0)
    try:
        unlimited = ShapeCache()
        assert unlimited.skeleton(long) == structural_skeleton(long)
        assert unlimited.skeleton(long) == unlimited.skeleton(b'{"a": 5}')
    finally:
        sys.set_int_max_str_digits(limit)


def test_key_position_memo_is_bounded_and_never_changes_a_type(tmp_path):
    records = [
        {f"k{index % 7}": list(range(index % 23)), "id": index}
        for index in range(300)
    ]
    lines = [json.dumps(record).encode() for record in records]
    cache = ShapeCache(max_size=4)
    for line in lines:
        assert cache.skeleton(line) == structural_skeleton(line)
        assert len(cache._key_positions) <= 4
    # A reader whose memo and table both evict still yields each
    # line's own type.
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    small = ShapeCache(max_size=3)
    types = list(read_jsonlines_fused(path, shape_cache=small))
    assert types == [type_of(record) for record in records]
    assert small.evictions > 0
    assert len(small._key_positions) <= 3


#: The RFC 8259 §6 number grammar spelled directly, behind a lookahead
#: that only says where a match may start: the reference the
#: character-class spelling of ``NUMBER_RE`` must agree with.
RFC_NUMBER_RE = re.compile(
    rb"(?=[-\d])-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?"
)


@settings(max_examples=1000, deadline=None)
@given(
    text=st.text(alphabet="-0123456789.eE+ ,:[]{}", max_size=60).map(
        str.encode
    )
)
def test_number_re_matches_the_rfc_grammar(text):
    assert NUMBER_RE.sub(b"0", text) == RFC_NUMBER_RE.sub(b"0", text)
    assert NUMBER_RE.findall(text) == RFC_NUMBER_RE.findall(text)
