"""Property tests for the enrichment sketch monoids (PR 8).

Three layers of law, each load-bearing for the sharded/checkpointed
pipeline:

* **Monoid laws** per sketch — identity, associativity, commutativity,
  and absorb/merge agreement (absorbing a concatenation equals merging
  independently-absorbed halves).  These are what make enrichment safe
  to carry through any shard count, merge fan-in, and resume order.
* **Byte determinism** — equal sketches serialize to equal codec
  bytes, and ``from_bytes(to_bytes(s)) == s``.  State equality *is*
  byte equality everywhere else in the repo; the sidecar must not
  weaken that.
* **Saturation** as an absorbing element of the discriminant-evidence
  monoid: once a key's value table overflows its cap, every grouping
  of the same observations saturates identically.
"""

from __future__ import annotations

import hashlib
import math
import random
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery import sketches
from repro.discovery.sketches import (
    DEFAULT_BLOOM_BITS,
    DEFAULT_BLOOM_HASHES,
    BloomMembershipSketch,
    FORMAT_PATTERNS,
    DiscriminantAccumulator,
    EnrichmentOptions,
    EnrichmentState,
    HLLCardinalitySketch,
    KeyEvidence,
    MinMaxSketch,
    PathSketches,
    SKETCH_CLASSES,
    StringFormatSketch,
    parse_enrich_spec,
    record_shape,
    scalar_fingerprint,
    scalar_from_key,
    scalar_key,
)
from repro.datasets import dataset_names, make_dataset
from repro.discovery.state import state_for_algorithm
from repro.jsontypes.types import type_of
from tests.conftest import json_values

ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
    st.sampled_from(
        [
            "2021-06-01T12:30:00Z",
            "2021-06-01",
            "12:30:00",
            "a3bb189e-8bf9-3888-9912-ace4e6543002",
            "user@example.com",
            "https://example.com/x",
        ]
    ),
)

scalar_lists = st.lists(scalars, max_size=30)


def _build(cls, values):
    sketch = cls()
    for value in values:
        sketch.absorb(value)
    return sketch


@pytest.mark.parametrize("cls", SKETCH_CLASSES)
class TestSketchMonoidLaws:
    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, cls, values):
        sketch = _build(cls, values)
        assert cls.empty().merge(sketch) == sketch
        assert sketch.merge(cls.empty()) == sketch

    @given(a=scalar_lists, b=scalar_lists, c=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_associative_and_commutative(self, cls, a, b, c):
        sa, sb, sc = (_build(cls, chunk) for chunk in (a, b, c))
        assert sa.merge(sb).merge(sc) == sa.merge(sb.merge(sc))
        assert sa.merge(sb) == sb.merge(sa)

    @given(a=scalar_lists, b=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_absorb_agrees_with_merge(self, cls, a, b):
        assert _build(cls, a + b) == _build(cls, a).merge(_build(cls, b))

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, cls, values):
        assert _build(cls, values) == _build(cls, list(reversed(values)))

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_codec_round_trip(self, cls, values):
        sketch = _build(cls, values)
        decoded = type(sketch).from_bytes(sketch.to_bytes())
        assert decoded == sketch
        # Equal sketches serialize to equal bytes — byte equality IS
        # state equality, in both directions.
        assert decoded.to_bytes() == sketch.to_bytes()


class TestHLLEmptyMerge:
    """All-zero registers are the identity, so that merge is a copy."""

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_empty_side_copies_the_other(self, values):
        sketch = _build(HLLCardinalitySketch, values)
        empty = HLLCardinalitySketch.empty()
        for merged in (sketch.merge(empty), empty.merge(sketch)):
            assert merged.to_bytes() == sketch.to_bytes()
            assert merged.registers is not sketch.registers
            assert merged.registers is not empty.registers
            before = (sketch.to_bytes(), empty.to_bytes())
            merged.absorb("a value only the merged sketch has seen")
            assert (sketch.to_bytes(), empty.to_bytes()) == before


class TestSketchSemantics:
    @given(values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**70), max_value=2**70),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1,
        max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_minmax_bounds(self, values):
        sketch = _build(MinMaxSketch, values)
        # Mirror the documented canonicalization: NaN skipped, ints
        # beyond the svarint range collapse to float at absorb.
        kept = []
        for value in values:
            if isinstance(value, float):
                if not math.isnan(value):
                    kept.append(value)
            elif not -(2**62 - 1) <= value <= 2**62 - 1:
                kept.append(float(value))
            else:
                kept.append(value)
        if not kept:
            assert sketch.count == 0
            return
        assert sketch.count == len(kept)
        assert sketch.minimum == min(kept)
        assert sketch.maximum == max(kept)

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    def test_bloom_has_no_false_negatives(self, values):
        sketch = _build(BloomMembershipSketch, values)
        for value in values:
            assert sketch.might_contain(value)

    def test_hll_estimate_tracks_distinct_count(self):
        sketch = HLLCardinalitySketch(precision=10)
        for index in range(5000):
            sketch.absorb(f"value-{index}")
        # Relative error ~1.04/sqrt(1024) ≈ 3.3%; allow 4 sigma.
        assert abs(sketch.estimate() - 5000) / 5000 < 0.13

    @pytest.mark.parametrize("precision", [4, 8, 12, 16])
    @pytest.mark.parametrize("fill", ["random", "zeros", "max"])
    def test_hll_estimate_equals_the_power_expression(self, precision, fill):
        # The estimate sums a table of 2.0 ** -rank; it must give the
        # exact floats of the expression it replaced, for every byte a
        # checkpoint's registers can hold.
        rng = random.Random(precision)
        m = 1 << precision
        sketch = HLLCardinalitySketch(precision)
        fills = {"random": rng.randbytes(m), "zeros": bytes(m),
                 "max": b"\xff" * m}
        sketch.registers = bytearray(fills[fill])
        registers = sketch.registers
        inverse_sum = sum(2.0 ** -rank for rank in registers)
        raw = sketches._hll_alpha(m) * m * m / inverse_sum
        zeros = registers.count(0)
        expected = m * math.log(m / zeros) if raw <= 2.5 * m and zeros else raw
        table_sum = sum(map(sketches._INV_POW2.__getitem__, registers))
        assert table_sum == inverse_sum
        assert repr(table_sum) == repr(inverse_sum)
        assert sketch.estimate() == expected
        assert repr(sketch.estimate()) == repr(expected)

    def test_format_dominance_requires_unanimity(self):
        sketch = _build(StringFormatSketch, ["2021-06-01", "2021-06-02"])
        assert sketch.dominant() == "date"
        sketch.absorb("not a date")
        assert sketch.dominant() is None

    @pytest.mark.parametrize("value", [
        "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0661",
        "\uff12\uff10\uff12\uff10-\uff10\uff11-\uff10\uff11",
        "\uff12\uff10\uff12\uff10-\uff10\uff11-\uff10\uff11"
        "T\uff11\uff12:\uff10\uff10:\uff10\uff10Z",
        "\uff11\uff12:\uff10\uff10:\uff10\uff10",
    ], ids=["arabic-indic-date", "fullwidth-date", "fullwidth-date-time",
            "fullwidth-time"])
    def test_formats_require_ascii_digits(self, value):
        # RFC 3339, which JSON Schema ``format`` follows, allows only
        # ASCII digits; Arabic-Indic and fullwidth ones match nothing.
        sketch = _build(StringFormatSketch, [value])
        assert sketch.counts == {}
        assert sketch.dominant() is None

    @given(value=scalars)
    @settings(max_examples=80, deadline=None)
    def test_int_valued_floats_share_fingerprints(self, value):
        if isinstance(value, float) and value.is_integer():
            assert scalar_fingerprint(value) == scalar_fingerprint(
                int(value)
            )

    @given(value=st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=20),
    ))
    @settings(max_examples=60, deadline=None)
    def test_scalar_key_round_trips(self, value):
        assert scalar_from_key(scalar_key(value)) == value
        # bool/int never collide despite True == 1.
        assert scalar_key(True) != scalar_key(1)
        assert scalar_key(False) != scalar_key(0)


records = st.dictionaries(
    st.sampled_from(["type", "kind", "id", "name", "x", "payload"]),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-100, max_value=100),
        st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"]),
        st.dictionaries(
            st.sampled_from(["u", "v"]),
            st.integers(min_value=0, max_value=3),
            max_size=2,
        ),
    ),
    max_size=4,
)
record_lists = st.lists(records, max_size=25)

#: A tiny cap so hypothesis actually reaches saturation.
TINY = EnrichmentOptions(
    sketches=False, unions=True, union_value_cap=2, union_string_cap=4
)


class TestDiscriminantEvidence:
    @given(a=record_lists, b=record_lists, c=record_lists)
    @settings(max_examples=80, deadline=None)
    def test_saturation_is_associative_and_commutative(self, a, b, c):
        def build(chunks):
            acc = DiscriminantAccumulator(
                TINY.union_value_cap, TINY.union_string_cap
            )
            for chunk in chunks:
                for record in chunk:
                    acc.observe(record)
            return acc

        def merged(*accs):
            result = accs[0]
            for acc in accs[1:]:
                result = result.merge(acc)
            return result

        left = merged(merged(build([a]), build([b])), build([c]))
        right = merged(build([a]), merged(build([b]), build([c])))
        assert left == right
        assert left == build([a, b, c])
        assert merged(build([a]), build([b])) == merged(
            build([b]), build([a])
        )

    def test_saturated_table_absorbs_everything(self):
        evidence = KeyEvidence()
        shape = ("k",)
        for index in range(TINY.union_value_cap + 1):
            evidence.observe(index, shape, TINY.union_value_cap)
        assert evidence.saturated
        assert not evidence.values
        # Saturation is absorbing under merge, in either order.
        fresh = KeyEvidence()
        fresh.observe(1, shape, TINY.union_value_cap)
        assert evidence.merge(fresh, TINY.union_value_cap).saturated
        assert fresh.merge(evidence, TINY.union_value_cap).saturated

    @given(record=records)
    @settings(max_examples=60, deadline=None)
    def test_record_shape_is_depth_two_and_sorted(self, record):
        shape = record_shape(record)
        assert shape == tuple(sorted(set(shape)))
        for key, value in record.items():
            assert key in shape
            if isinstance(value, dict):
                for child in value:
                    assert f"{key}.{child}" in shape


@pytest.mark.parametrize("name", dataset_names())
def test_observe_with_types_equals_without(name):
    """Shapes taken from the interned types give the sidecar's bytes
    that shapes taken from the records give."""
    options = parse_enrich_spec("sketches,unions")
    plain, typed = EnrichmentState(options), EnrichmentState(options)
    for record in make_dataset(name).generate(120, seed=7):
        plain.observe(record)
        typed.observe(record, type_of(record))
    assert typed.to_bytes() == plain.to_bytes()
    assert typed == plain


ENRICH_SPECS = ("sketches", "unions", "sketches,unions")


class TestEnrichmentStateLaws:
    @given(a=st.lists(json_values(8), max_size=15),
           b=st.lists(json_values(8), max_size=15))
    @settings(max_examples=50, deadline=None)
    @pytest.mark.parametrize("spec", ENRICH_SPECS)
    def test_observe_agrees_with_merge(self, spec, a, b):
        options = parse_enrich_spec(spec)

        def build(values):
            state = EnrichmentState(options)
            for value in values:
                state.observe(value)
            return state

        together = build(a + b)
        merged = build(a).merge(build(b))
        assert merged == together
        assert merged.to_bytes() == together.to_bytes()
        # The sidecar alone is merge-commutative (unlike the
        # first-occurrence-ordered structural bag).
        assert build(b).merge(build(a)).to_bytes() == together.to_bytes()

    @given(values=st.lists(json_values(8), max_size=15))
    @settings(max_examples=50, deadline=None)
    @pytest.mark.parametrize("spec", ENRICH_SPECS)
    def test_codec_round_trip(self, spec, values):
        state = EnrichmentState(parse_enrich_spec(spec))
        for value in values:
            state.observe(value)
        decoded = EnrichmentState.from_bytes(state.to_bytes())
        assert decoded == state
        assert decoded.to_bytes() == state.to_bytes()

    def test_identity(self):
        state = EnrichmentState(parse_enrich_spec("sketches,unions"))
        for value in ({"a": 1}, {"a": "x", "b": [1.5, None]}):
            state.observe(value)
        assert state.empty_like().merge(state).to_bytes() == state.to_bytes()
        assert state.merge(state.empty_like()).to_bytes() == state.to_bytes()

    def test_mismatched_options_refuse_to_merge(self):
        sketchy = EnrichmentState(parse_enrich_spec("sketches"))
        unions = EnrichmentState(parse_enrich_spec("unions"))
        with pytest.raises(ValueError):
            sketchy.merge(unions)


class TestEnrichedDiscoveryStates:
    @given(a=st.lists(json_values(8), max_size=12),
           b=st.lists(json_values(8), max_size=12))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_split_merge_equals_sequential(self, algorithm, a, b):
        sequential = state_for_algorithm(algorithm, enrich="sketches,unions")
        for value in a + b:
            sequential.absorb(value)
        left = state_for_algorithm(algorithm, enrich="sketches,unions")
        right = state_for_algorithm(algorithm, enrich="sketches,unions")
        for value in a:
            left.absorb(value)
        for value in b:
            right.absorb(value)
        merged = left.merge(right)
        assert merged.to_bytes() == sequential.to_bytes()
        decoded = type(sequential).from_bytes(sequential.to_bytes())
        assert decoded.to_bytes() == sequential.to_bytes()
        assert decoded.enrichment is not None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_enriched_refuses_unenriched_merge(self, algorithm):
        rich = state_for_algorithm(algorithm, enrich="sketches")
        plain = state_for_algorithm(algorithm)
        rich.absorb({"a": 1})
        plain.absorb({"a": 2})
        with pytest.raises(ValueError):
            rich.merge(plain)
        with pytest.raises(ValueError):
            plain.merge(rich)

    @given(values=st.lists(json_values(8), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_enrichment_is_strictly_additive(self, algorithm, values):
        """Stripping the sidecar from an enriched state's bytes yields
        exactly the unenriched state's bytes — the differential-oracle
        invariant, at the state level."""
        plain = state_for_algorithm(algorithm)
        rich = state_for_algorithm(algorithm, enrich="sketches,unions")
        for value in values:
            plain.absorb(value)
            rich.absorb(value)
        clone = type(rich).from_bytes(rich.to_bytes())
        clone.enrichment = None
        assert clone.to_bytes() == plain.to_bytes()


class TestPathSketchBundles:
    @given(a=scalar_lists, b=scalar_lists)
    @settings(max_examples=50, deadline=None)
    def test_bundle_merge_agrees_with_absorb(self, a, b):
        options = EnrichmentOptions()

        def build(values):
            bundle = PathSketches(options)
            for value in values:
                bundle.absorb(value)
            return bundle

        assert build(a).merge(build(b)) == build(a + b)


#: (bloom_bits, bloom_hashes, hll_precision): every Bloom width and
#: hash count and every HLL precision below appears in one geometry;
#: 1000 is not a power of two.
GEOMETRIES = [(8, 1, 4), (1000, 7, 8), (1024, 4, 16)]


def _reference_bloom(size, hashes, values):
    """The per-value Bloom fold: ``_indexes`` on each fingerprint."""
    sketch = BloomMembershipSketch(size, hashes)
    for value in values:
        for index in sketch._indexes(scalar_fingerprint(value)):
            sketch.bits |= 1 << index
        sketch.count += 1
    return sketch


def _reference_hll(precision, values):
    """The per-value HyperLogLog fold, one digest per value."""
    sketch = HLLCardinalitySketch(precision)
    width = 64 - precision
    for value in values:
        digest = hashlib.blake2b(
            scalar_fingerprint(value), digest_size=8
        ).digest()
        word = int.from_bytes(digest, "big")
        index = word >> width
        rank = width - (word & ((1 << width) - 1)).bit_length() + 1
        sketch.registers[index] = max(sketch.registers[index], rank)
        sketch.count += 1
    return sketch


class TestColumnAbsorption:
    """A batch call over a column is the fold of per-value calls."""

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("bits, hashes, precision", GEOMETRIES)
    def test_bloom_and_hll_batches_equal_per_value_folds(
        self, bits, hashes, precision, values
    ):
        fingerprints = [scalar_fingerprint(value) for value in values]
        members = BloomMembershipSketch(bits, hashes)
        members.add_fingerprints(fingerprints)
        assert members == _reference_bloom(bits, hashes, values)
        cardinality = HLLCardinalitySketch(precision)
        cardinality.add_fingerprints(fingerprints)
        assert cardinality == _reference_hll(precision, values)

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("cls", [MinMaxSketch, StringFormatSketch])
    def test_absorb_many_equals_absorb(self, cls, values):
        batch = cls()
        batch.absorb_many(values)
        assert batch == _build(cls, values)
        assert batch.to_bytes() == _build(cls, values).to_bytes()

    @given(values=st.lists(
        st.one_of(
            scalars,
            st.text(alphabet="0123456789abcdefABCDEF@:/.-T "),
            st.uuids().map(str),
            st.uuids().map(str).map(str.upper),
            st.datetimes().map(datetime.isoformat),
            st.emails(),
        ),
        max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_format_prefilter_skips_no_match(self, values):
        sketch = StringFormatSketch()
        sketch.absorb_many(values)
        strings = [value for value in values if isinstance(value, str)]
        assert sketch.total == len(strings)
        for format_name, pattern in FORMAT_PATTERNS:
            matched = sum(1 for value in strings if pattern.match(value))
            assert sketch.counts.get(format_name, 0) == matched

    @given(value=st.one_of(
        st.text(alphabet="0123456789abcdefABCDEF:-.+TtZz "),
        st.uuids().map(str),
        st.datetimes().map(datetime.isoformat),
        st.dates().map(str),
        st.times().map(str),
    ))
    @settings(max_examples=200, deadline=None)
    def test_digit_led_formats_match_as_one_alternation(self, value):
        # No string matches two of the four digit-led patterns, so the
        # alternation's matched group names the one pattern that does.
        matched = [
            index
            for index, (_, pattern) in enumerate(FORMAT_PATTERNS[:4], 1)
            if pattern.match(value)
        ]
        assert len(matched) <= 1
        match = sketches._DIGIT_LED_FORMAT(value)
        assert (match.lastindex if match else None) == (
            matched[0] if matched else None
        )

    def test_ints_past_the_float_range_collapse_to_infinity(self):
        huge = MinMaxSketch()
        huge.absorb_many([10**400, 5, -(10**309)])
        literal = MinMaxSketch()
        literal.absorb_many([math.inf, 5, -math.inf])
        assert (huge.minimum, huge.maximum) == (-math.inf, math.inf)
        assert huge == literal
        assert huge.to_bytes() == literal.to_bytes()

    @given(values=st.lists(
        st.one_of(
            st.integers(min_value=-(10**400), max_value=10**400),
            st.integers(min_value=-(2**70), max_value=2**70),
            st.floats(allow_nan=True, allow_infinity=True),
            scalars,
        ),
        max_size=30,
    ), cut=st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_huge_ints_keep_the_minmax_laws(self, values, cut):
        def collapse(value):
            if -(2**62 - 1) <= value <= 2**62 - 1:
                return value
            try:
                return float(value)
            except OverflowError:
                return math.inf if value > 0 else -math.inf

        kept = [
            value if isinstance(value, float) else collapse(value)
            for value in values
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value == value
        ]
        whole = MinMaxSketch()
        whole.absorb_many(values)
        assert whole.count == len(kept)
        if kept:
            assert (whole.minimum, whole.maximum) == (min(kept), max(kept))
        halves = MinMaxSketch(), MinMaxSketch()
        halves[0].absorb_many(values[:cut])
        halves[1].absorb_many(values[cut:])
        assert halves[0].merge(halves[1]).to_bytes() == whole.to_bytes()
        assert MinMaxSketch.from_bytes(whole.to_bytes()) == whole
        column = PathSketches(EnrichmentOptions())
        column.absorb_column(values)
        assert column.numbers == whole
        assert column.members == _reference_bloom(
            DEFAULT_BLOOM_BITS, DEFAULT_BLOOM_HASHES, values
        )

    @given(values=scalar_lists)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("bits, hashes, precision", GEOMETRIES)
    def test_bundle_column_equals_per_value_absorb(
        self, bits, hashes, precision, values
    ):
        options = EnrichmentOptions(
            bloom_bits=bits, bloom_hashes=hashes, hll_precision=precision
        )
        column = PathSketches(options)
        column.absorb_column(values)
        single = PathSketches(options)
        for value in values:
            single.absorb(value)
        assert column == single

    @given(values=st.lists(json_values(8), max_size=15))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("spec", ENRICH_SPECS)
    def test_bytes_do_not_depend_on_the_flush_limit(self, spec, values):
        options = parse_enrich_spec(spec)
        encoded = set()
        for limit in (1, 7, sketches._COLUMN_SCALARS):
            with mock.patch.object(sketches, "_COLUMN_SCALARS", limit):
                state = EnrichmentState(options)
                for value in values:
                    state.observe(value)
                encoded.add(state.to_bytes())
        assert len(encoded) == 1

    @given(values=st.lists(json_values(8), max_size=15),
           cut=st.integers(min_value=0, max_value=15),
           read=st.sampled_from(["paths", "to_bytes", "eq"]))
    @settings(max_examples=60, deadline=None)
    def test_reading_mid_stream_does_not_change_the_bytes(
        self, values, cut, read
    ):
        options = parse_enrich_spec("sketches,unions")
        straight = EnrichmentState(options)
        interrupted = EnrichmentState(options)
        for index, value in enumerate(values):
            if index == cut:
                if read == "paths":
                    interrupted.paths  # a read flushes the columns
                    assert not interrupted._pending
                elif read == "to_bytes":
                    interrupted.to_bytes()
                else:
                    assert interrupted == interrupted.merge(
                        interrupted.empty_like()
                    )
            straight.observe(value)
            interrupted.observe(value)
        assert interrupted.to_bytes() == straight.to_bytes()


def test_monoid_laws_cover_every_sketch_class():
    """``SKETCH_CLASSES`` (the laws' parametrization and the codec's tag
    table) lists every concrete sketch."""
    from repro.discovery.sketches import Sketch

    assert set(SKETCH_CLASSES) == set(Sketch.__subclasses__())
    assert all(not cls.__subclasses__() for cls in SKETCH_CLASSES)


def test_sketches_hash_with_hashlibs_blake2b():
    """The module takes ``blake2b`` from ``_blake2``, so importing it
    loads no OpenSSL; it must be the class ``hashlib`` exports, or a
    sketch's bits would change."""
    assert sketches.blake2b is hashlib.blake2b
