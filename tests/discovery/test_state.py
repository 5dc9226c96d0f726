"""Monoid and serialization laws of the discovery states.

Every algorithm's :class:`~repro.discovery.state.DiscoveryState` must
behave as a commutative monoid up to schema equivalence, and its wire
format must round-trip to an equal state.  These laws are what make
checkpoint/resume, executor tree-reduction, and partitioned streams
correct by construction:

* ``merge`` is associative (exactly: equal states, hence equal bytes);
* ``merge`` is commutative up to schema equivalence (structural
  equality after canonicalizing union-branch order, the only part of
  a schema that records observation order);
* ``empty()`` is the identity;
* absorbing a split stream into two states and merging equals
  absorbing the whole stream into one state (state equality);
* ``from_bytes(to_bytes(s)) == s`` with an equal synthesized schema;
* save → load → absorb-more ≡ one-shot over the concatenated input.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dataset
from repro.discovery import (
    DiscoveryState,
    EntityStrategy,
    JxplainConfig,
    JxplainPipeline,
    JxplainState,
    KReduce,
    KReduceState,
    LReduce,
    LReduceState,
    load_state,
    save_state,
    state_for_algorithm,
)
from repro.errors import CheckpointError, EmptyInputError, StateCodecError
from repro.schema import to_json_schema
from tests.conftest import json_values

STATE_CLASSES = [LReduceState, KReduceState, JxplainState]

value_lists = st.lists(json_values(max_leaves=6), min_size=1, max_size=8)


def canon(schema) -> str:
    return json.dumps(to_json_schema(schema), sort_keys=True)


def _sort_unions(document):
    """Recursively canonicalize ``anyOf`` branch order.

    Union branches carry first-observation order (L-reduce top-level,
    K-reduce mixed-kind positions), which is the one part of a schema
    that legitimately differs between ``a.merge(b)`` and
    ``b.merge(a)``.  Branch order never affects admission, so sorting
    it away yields the equivalence the commutativity law is stated
    over.
    """
    if isinstance(document, dict):
        out = {key: _sort_unions(value) for key, value in document.items()}
        if "anyOf" in out:
            out["anyOf"] = sorted(
                out["anyOf"], key=lambda b: json.dumps(b, sort_keys=True)
            )
        return out
    if isinstance(document, list):
        return [_sort_unions(item) for item in document]
    return document


def equivalent(left, right) -> bool:
    """Schema equivalence: structural equality up to union-branch order."""
    return _sort_unions(to_json_schema(left)) == _sort_unions(
        to_json_schema(right)
    )


def filled(cls, values):
    state = cls.empty()
    state.absorb_many(values)
    return state


@pytest.mark.parametrize("cls", STATE_CLASSES)
class TestMonoidLaws:
    @given(values=value_lists, other=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_merge_commutes_up_to_schema_equivalence(
        self, cls, values, other
    ):
        left = filled(cls, values)
        right = filled(cls, other)
        assert equivalent(
            left.merge(right).synthesize(),
            right.merge(left).synthesize(),
        )

    @given(a=value_lists, b=value_lists, c=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_merge_is_associative(self, cls, a, b, c):
        """Associativity holds exactly — equal states, equal bytes."""
        sa, sb, sc = filled(cls, a), filled(cls, b), filled(cls, c)
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sb.merge(sc))
        assert left == right
        assert left.to_bytes() == right.to_bytes()

    @given(values=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_empty_is_identity(self, cls, values):
        state = filled(cls, values)
        assert cls.empty().merge(state) == state
        assert state.merge(cls.empty()) == state

    @given(values=value_lists, split=st.integers(min_value=0, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_split_absorb_merge_equals_one_shot(self, cls, values, split):
        cut = min(split, len(values))
        merged = filled(cls, values[:cut]).merge(filled(cls, values[cut:]))
        assert merged == filled(cls, values)

    @given(values=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_bytes_round_trip(self, cls, values):
        state = filled(cls, values)
        revived = DiscoveryState.from_bytes(state.to_bytes())
        assert type(revived) is cls
        assert revived == state
        assert revived.record_count == state.record_count
        assert canon(revived.synthesize()) == canon(state.synthesize())
        # Determinism: equal states encode to identical bytes.
        assert revived.to_bytes() == state.to_bytes()

    @given(values=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_resume_then_append_equals_one_shot(
        self, cls, values, tmp_path_factory
    ):
        cut = len(values) // 2
        path = tmp_path_factory.mktemp("state") / "ckpt.bin"
        save_state(filled(cls, values[:cut]), path)
        resumed = load_state(path)
        resumed.absorb_many(values[cut:])
        one_shot = filled(cls, values)
        assert resumed == one_shot
        assert equivalent(resumed.synthesize(), one_shot.synthesize())

    def test_empty_state_cannot_synthesize(self, cls):
        with pytest.raises(EmptyInputError):
            cls.empty().synthesize()

    def test_merge_rejects_other_algorithms(self, cls):
        other_cls = next(c for c in STATE_CLASSES if c is not cls)
        with pytest.raises(ValueError):
            cls.empty().merge(other_cls.empty())


class TestSynthesisMatchesBatch:
    """States are sufficient statistics: synthesis == the batch run."""

    @given(values=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_lreduce(self, values):
        assert filled(LReduceState, values).synthesize() == LReduce().discover(
            values
        )

    @given(values=value_lists)
    @settings(max_examples=25, deadline=None)
    def test_kreduce(self, values):
        assert filled(KReduceState, values).synthesize() == KReduce().discover(
            values
        )

    def test_jxplain_matches_pipeline(self):
        records = make_dataset("github").generate(160, seed=7)
        state = filled(JxplainState, records)
        batch = JxplainPipeline().run(records).schema
        assert canon(state.synthesize()) == canon(batch)

    def test_jxplain_synthesize_result_carries_decisions(self):
        records = make_dataset("pharma").generate(80, seed=2)
        state = filled(JxplainState, records)
        schema, decisions, obj_p, arr_p = state.synthesize_result()
        result = JxplainPipeline().run(records)
        assert canon(schema) == canon(result.schema)
        assert decisions == result.decisions


class TestSynthesisSeams:
    """``perfbench/tracing.py`` times passes ① and ② by patching these
    two module attributes, so a JXPLAIN state's ``synthesize()`` must
    look both up at call time."""

    def test_synthesize_calls_the_patched_passes(self, monkeypatch):
        import repro.discovery.pipeline as pipeline
        import repro.discovery.stat_tree as stat_tree

        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(stat_tree, "decide_collections")
        counting(pipeline, "build_partitioners")
        state = state_for_algorithm("bimax-merge")
        state.absorb_many(make_dataset("github").generate(40, seed=3))
        state.synthesize()
        assert calls == ["decide_collections", "build_partitioners"]


class TestJxplainConfig:
    def test_merge_requires_equal_config(self):
        left = JxplainState(JxplainConfig())
        right = JxplainState(JxplainConfig().with_(entropy_threshold=0.25))
        left.absorb({"a": 1})
        right.absorb({"a": 1})
        with pytest.raises(ValueError):
            left.merge(right)

    def test_config_survives_round_trip(self):
        config = JxplainConfig().with_(
            entropy_threshold=0.75,
            similarity_depth=3,
            entity_strategy=EntityStrategy.BIMAX_NAIVE,
        )
        state = JxplainState(config)
        state.absorb({"a": 1})
        revived = DiscoveryState.from_bytes(state.to_bytes())
        assert revived.config == config


class TestStateForAlgorithm:
    def test_mapping(self):
        assert isinstance(state_for_algorithm("l-reduce"), LReduceState)
        assert isinstance(state_for_algorithm("k-reduce"), KReduceState)
        for name in ("jxplain", "jxplain-pipeline", "bimax-merge"):
            assert isinstance(state_for_algorithm(name), JxplainState)
        naive = state_for_algorithm("bimax-naive")
        assert naive.config.entity_strategy is EntityStrategy.BIMAX_NAIVE

    @pytest.mark.parametrize("strategy", list(EntityStrategy))
    def test_bimax_naive_keeps_or_refuses_the_strategy(self, strategy):
        config = JxplainConfig(entity_strategy=strategy)
        kept = (EntityStrategy.BIMAX_MERGE, EntityStrategy.BIMAX_NAIVE)
        if strategy in kept:
            state = state_for_algorithm("bimax-naive", config)
            assert state.config.entity_strategy is EntityStrategy.BIMAX_NAIVE
        else:
            with pytest.raises(ValueError, match="fixes the entity strategy"):
                state_for_algorithm("bimax-naive", config)

    def test_reductions_take_no_config(self):
        for name in ("l-reduce", "k-reduce"):
            with pytest.raises(ValueError):
                state_for_algorithm(name, JxplainConfig())

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            state_for_algorithm("no-such-algorithm")


class TestCodecErrors:
    def _blob(self):
        state = KReduceState.empty()
        state.absorb({"a": 1})
        return state.to_bytes()

    def test_bad_magic(self):
        blob = self._blob()
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(b"XXXX" + blob[4:])

    def test_truncation(self):
        blob = self._blob()
        for cut in (5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(StateCodecError):
                DiscoveryState.from_bytes(blob[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(self._blob() + b"\x00")

    def test_unknown_kind(self):
        from repro.discovery.codec import dumps_schema
        from repro.schema.nodes import NEVER

        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(dumps_schema(NEVER))

    def test_checkpoint_errors(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_state(tmp_path / "missing.bin")
        corrupted = tmp_path / "corrupted.bin"
        corrupted.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_state(corrupted)


def _concrete_subclasses(base):
    """Every subclass of ``base`` that nothing subclasses further."""
    leaves = []
    for sub in base.__subclasses__():
        below = _concrete_subclasses(sub)
        leaves.extend(below or [sub])
    return leaves


def test_monoid_laws_cover_every_state_class():
    """A new state class is held to the laws above (and the codec
    registry decodes it) as soon as it exists."""
    from repro.discovery.state import _STATE_CLASSES

    leaves = set(_concrete_subclasses(DiscoveryState))
    assert leaves == set(STATE_CLASSES) == set(_STATE_CLASSES)


@pytest.fixture(scope="module")
def payload_samples():
    """One value (or several) of every standalone codec payload kind."""
    from repro.discovery import extract_tagged_unions

    state = state_for_algorithm("bimax-merge", enrich="sketches,unions")
    state.absorb_many(make_dataset("github").generate(120, seed=2))
    enrichment = state.enrichment
    sketches = [
        sketch
        for path_sketches in enrichment.paths.values()
        for sketch in (
            path_sketches.numbers,
            path_sketches.strings,
            path_sketches.members,
            path_sketches.cardinality,
        )
    ]
    decisions = extract_tagged_unions(state)
    assert decisions
    return {
        "schema": [state.synthesize()],
        "sketch": sketches,
        "enrichment": [enrichment],
        "tagged_unions": [decisions, []],
    }


@pytest.mark.parametrize(
    "module_name", ["codec", "sketches", "tagged_unions"]
)
def test_every_payload_encoder_has_an_inverse(module_name, payload_samples):
    """Each ``dumps_<kind>`` has a ``loads_<kind>`` (and vice versa),
    and the pair round-trips: decoding then re-encoding gives the same
    bytes."""
    import importlib

    module = importlib.import_module(f"repro.discovery.{module_name}")
    kinds = {
        name.split("_", 1)[1]
        for name in vars(module)
        if name.startswith(("dumps_", "loads_"))
    }
    assert kinds
    for kind in sorted(kinds):
        dumps = getattr(module, f"dumps_{kind}")
        loads = getattr(module, f"loads_{kind}")
        for value in payload_samples[kind]:
            data = dumps(value)
            assert dumps(loads(data)) == data, kind
