"""Property tests for sharded discovery's byte-exactness guarantees.

The coordinator's contract has three layers, each pinned here:

* **Shard-count and fan-in invariance** (hypothesis, all three
  algorithms): shard ranges partition the file in order and state
  merge is byte-associative, so *any* shard count with *any* merge
  fan-in produces bytes identical to a serial sequential scan.
* **Merge-order invariance**: merging partials in a permuted order
  always preserves the record bag as a multiset, and for K-reduce and
  JXPLAIN the canonical schema too.  L-reduce's synthesis is a fold
  over the bag in first-occurrence order, so permuting the merge can
  legitimately reshape its union nesting — which is exactly why the
  coordinator always merges in shard-index order (making even
  L-reduce byte-identical to serial; see the invariance tests above).
* **Worker death**: a run killed mid-flight by a PR-3 fault plan
  resumes from its per-shard checkpoints to byte-identical output.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.discovery.state import DiscoveryState, state_for_algorithm
from repro.engine import (
    InjectedFault,
    SerialExecutor,
    clear_fault_plan,
    counters,
    install_fault_plan,
)
from repro.engine.sharding import discover_sharded, plan_shards, _run_shard
from repro.engine.sharding import ShardTask
from repro.io.fastpath import read_jsonlines_fused
from repro.io.jsonlines import write_jsonlines
from repro.schema import to_json_schema


def _canonical(schema) -> str:
    import json

    return json.dumps(to_json_schema(schema), sort_keys=True)

ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rows = []
    for index in range(360):
        row = {"id": index, "kind": ("event", "user", "log")[index % 3]}
        if index % 3 == 0:
            row["payload"] = {"depth": index % 5, "tags": [str(index % 4)]}
        if index % 4 == 0:
            row["extra"] = [index, str(index)]
        rows.append(row)
    path = tmp_path_factory.mktemp("props") / "corpus.jsonl"
    write_jsonlines(path, rows)
    return path


@pytest.fixture(scope="module")
def baselines(corpus):
    """Serial sequential-scan state bytes, one per algorithm."""
    result = {}
    for algorithm in ALGORITHMS:
        state = state_for_algorithm(algorithm, None)
        for tau in read_jsonlines_fused(corpus):
            state.absorb_type(tau)
        result[algorithm] = state.to_bytes()
    return result


@pytest.fixture(scope="module")
def partials(corpus):
    """Each shard's serialized partial, per algorithm, for 5 shards."""
    plan = plan_shards(corpus, 5, workers=2)
    by_algorithm = {}
    for algorithm in ALGORITHMS:
        by_algorithm[algorithm] = [
            _run_shard(
                ShardTask(
                    index=index,
                    path=plan.path,
                    start=start,
                    end=end,
                    algorithm=algorithm,
                )
            ).state_bytes
            for index, (start, end) in enumerate(plan.ranges)
        ]
    return by_algorithm


class TestShardAndFaninInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(shards=st.integers(2, 7), fanin=st.integers(2, 5))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bytes_equal_serial_scan(
        self, corpus, baselines, algorithm, shards, fanin
    ):
        result = discover_sharded(
            corpus, algorithm, shards=shards, merge_fanin=fanin
        )
        assert result.state.to_bytes() == baselines[algorithm]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(fanin=st.integers(2, 6))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_manual_tree_merge_is_fanin_invariant(
        self, baselines, partials, algorithm, fanin
    ):
        """Re-grouping the same in-order partials under any fan-in is
        the in-order left fold — i.e. the serial scan."""
        level = [
            DiscoveryState.from_bytes(blob) for blob in partials[algorithm]
        ]
        while len(level) > 1:
            level = [
                _fold(level[start:start + fanin])
                for start in range(0, len(level), fanin)
            ]
        assert level[0].to_bytes() == baselines[algorithm]


def _fold(states):
    acc = states[0]
    for state in states[1:]:
        acc = acc.merge(state)
    return acc


class TestMergeOrderInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(order=st.permutations(list(range(5))))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_permuted_merge_preserves_the_bag(
        self, baselines, partials, algorithm, order
    ):
        permuted = _fold(
            [
                DiscoveryState.from_bytes(partials[algorithm][index])
                for index in order
            ]
        )
        reference = DiscoveryState.from_bytes(baselines[algorithm])
        assert permuted.record_count == reference.record_count
        if hasattr(permuted, "bag"):
            assert dict(permuted.bag.items()) == dict(
                reference.bag.items()
            )

    @pytest.mark.parametrize("algorithm", ["k-reduce", "jxplain"])
    @given(order=st.permutations(list(range(5))))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_permuted_merge_is_schema_identical(
        self, baselines, partials, algorithm, order
    ):
        """K-reduce and JXPLAIN synthesize order-independently, so any
        merge order lands on the same canonical schema.  (L-reduce
        does not — its union fold is order-sensitive, which the
        coordinator neutralizes by merging in shard-index order.)"""
        permuted = _fold(
            [
                DiscoveryState.from_bytes(partials[algorithm][index])
                for index in order
            ]
        )
        reference = DiscoveryState.from_bytes(baselines[algorithm])
        assert _canonical(permuted.synthesize()) == _canonical(
            reference.synthesize()
        )


class TestWorkerDeathResume:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_killed_run_resumes_byte_identical(
        self, corpus, baselines, tmp_path, algorithm
    ):
        """A shard task that dies past its retries aborts the run, but
        completed shards' checkpoints survive; the re-run reuses them
        and lands on the serial bytes."""
        ckpt = tmp_path / f"{algorithm}.shards"
        install_fault_plan("shard-discover:2:raise:99")
        before = counters.snapshot()
        with pytest.raises(InjectedFault):
            discover_sharded(
                corpus,
                algorithm,
                executor=SerialExecutor(),
                shards=4,
                checkpoint_dir=ckpt,
            )
        assert (
            counters.get("faults.injected_raise")
            - before.get("faults.injected_raise", 0)
            >= 1
        )
        survivors = sorted(p.name for p in ckpt.glob("shard-*.state"))
        assert survivors == ["shard-00000.state", "shard-00001.state"]

        clear_fault_plan()
        rerun = discover_sharded(
            corpus,
            algorithm,
            executor=SerialExecutor(),
            shards=4,
            checkpoint_dir=ckpt,
        )
        assert rerun.resumed_shards == 2
        assert rerun.state.to_bytes() == baselines[algorithm]
        assert rerun.report.record_count == 360

    def test_retry_recovers_transient_worker_death_in_place(self, corpus):
        """A fault that clears within the retry budget never surfaces:
        the supervised run completes and matches serial bytes."""
        from repro.engine import ProcessExecutor, RetryPolicy

        install_fault_plan("shard-discover:1:raise:1")
        executor = ProcessExecutor(
            2, retry=RetryPolicy(max_retries=2, backoff_base=0.001)
        )
        before = counters.snapshot()
        try:
            result = discover_sharded(
                corpus, "jxplain", executor=executor, shards=4
            )
        finally:
            executor.close()
        assert (
            counters.get("faults.injected_raise")
            - before.get("faults.injected_raise", 0)
            == 1
        )
        state = state_for_algorithm("jxplain", None)
        for tau in read_jsonlines_fused(corpus):
            state.absorb_type(tau)
        assert result.state.to_bytes() == state.to_bytes()
