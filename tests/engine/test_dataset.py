"""Tests for the partitioned dataflow substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.dataset import LocalDataset
from repro.engine.executor import RetryPolicy, ThreadExecutor
from repro.errors import EngineError

int_lists = st.lists(st.integers(-100, 100), max_size=30)


class TestConstruction:
    def test_round_robin_partitioning(self):
        dataset = LocalDataset.from_records(range(10), 3)
        assert dataset.num_partitions == 3
        assert sorted(dataset.collect()) == list(range(10))

    def test_invalid_partition_count(self):
        with pytest.raises(EngineError):
            LocalDataset.from_records([1], 0)

    def test_empty_dataset(self):
        dataset = LocalDataset.from_records([], 4)
        assert dataset.is_empty()
        assert dataset.count() == 0


class TestTransformations:
    def test_map(self):
        dataset = LocalDataset.from_records([1, 2, 3], 2)
        assert sorted(dataset.map(lambda x: x * 2).collect()) == [2, 4, 6]

    def test_filter(self):
        dataset = LocalDataset.from_records(range(10), 2)
        assert sorted(dataset.filter(lambda x: x % 2 == 0).collect()) == [
            0, 2, 4, 6, 8,
        ]

    def test_flat_map(self):
        dataset = LocalDataset.from_records([1, 2], 2)
        assert sorted(dataset.flat_map(lambda x: [x, x]).collect()) == [
            1, 1, 2, 2,
        ]

    def test_map_partitions(self):
        dataset = LocalDataset.from_records(range(6), 3)
        summed = dataset.map_partitions(lambda part: [sum(part)])
        assert sum(summed.collect()) == 15

    def test_union(self):
        first = LocalDataset.from_records([1, 2], 1)
        second = LocalDataset.from_records([3], 1)
        assert sorted(first.union(second).collect()) == [1, 2, 3]

    def test_sample_deterministic(self):
        dataset = LocalDataset.from_records(range(1000), 4)
        first = dataset.sample(0.1, seed=42).collect()
        second = dataset.sample(0.1, seed=42).collect()
        assert first == second
        assert 40 < len(first) < 200

    def test_sample_bounds(self):
        dataset = LocalDataset.from_records([1], 1)
        with pytest.raises(EngineError):
            dataset.sample(1.5)

    def test_repartition_preserves_records(self):
        dataset = LocalDataset.from_records(range(10), 2)
        again = dataset.repartition(5)
        assert again.num_partitions == 5
        assert sorted(again.collect()) == list(range(10))

    def test_iteration(self):
        dataset = LocalDataset.from_records([1, 2, 3], 2)
        assert sorted(dataset) == [1, 2, 3]


class TestAggregation:
    @given(int_lists, st.integers(1, 6))
    def test_aggregate_equals_sum(self, items, partitions):
        dataset = LocalDataset.from_records(items, partitions)
        total = dataset.aggregate(
            lambda: 0, lambda acc, x: acc + x, lambda a, b: a + b
        )
        assert total == sum(items)

    @given(int_lists, st.integers(1, 6))
    def test_tree_aggregate_equals_aggregate(self, items, partitions):
        dataset = LocalDataset.from_records(items, partitions)
        flat = dataset.aggregate(
            lambda: 0, lambda acc, x: acc + x, lambda a, b: a + b
        )
        tree = dataset.tree_aggregate(
            lambda: 0, lambda acc, x: acc + x, lambda a, b: a + b
        )
        assert flat == tree

    def test_mutable_accumulator_safety(self):
        dataset = LocalDataset.from_records(range(10), 3)

        def seq(acc, item):
            acc.append(item)
            return acc

        def comb(a, b):
            a.extend(b)
            return a

        collected = dataset.aggregate(list, seq, comb)
        assert sorted(collected) == list(range(10))

    @pytest.mark.parametrize("method", ["aggregate", "tree_aggregate"])
    def test_skipped_partition_is_dropped(self, method):
        """A partition the ``skip`` policy gives up on contributes
        nothing; the surviving partials still combine."""

        def seq(acc, x):
            if x == 5:
                raise ValueError("poisoned record")
            return acc + x

        executor = ThreadExecutor(
            2, retry=RetryPolicy(max_retries=0, on_failure="skip")
        )
        try:
            dataset = LocalDataset.from_records(
                range(20), 4, executor=executor
            )
            total = getattr(dataset, method)(
                lambda: 0, seq, lambda a, b: a + b
            )
        finally:
            executor.close()
        # Partition 1 holds 1, 5, 9, 13 and 17.
        assert total == sum(range(20)) - (1 + 5 + 9 + 13 + 17)

    def test_reduce(self):
        dataset = LocalDataset.from_records([1, 2, 3, 4], 2)
        assert dataset.reduce(lambda a, b: a + b) == 10

    def test_reduce_empty_rejected(self):
        with pytest.raises(EngineError):
            LocalDataset.from_records([], 1).reduce(lambda a, b: a)


class TestScanCounting:
    def test_scans_accumulate_over_lineage(self):
        dataset = LocalDataset.from_records(range(10), 2)
        assert dataset.scans == 0
        mapped = dataset.map(lambda x: x)
        assert dataset.scans == 1
        mapped.count()
        assert dataset.scans == 2
        mapped.aggregate(lambda: 0, lambda a, x: a, lambda a, b: a)
        assert mapped.scans == 3

    def test_kreduce_one_pass_jxplain_one_fold(self, login_serve_stream):
        """K-reduce folds once; JXPLAIN folds its types into one bag
        that all of Figure 3's passes read, observed via scan counts."""
        from repro.discovery.kreduce import merge_k, merge_k_schemas
        from repro.discovery.pipeline import JxplainPipeline
        from repro.jsontypes.types import type_of
        from repro.schema.nodes import NEVER

        types = [type_of(r) for r in login_serve_stream]

        kreduce_data = LocalDataset.from_records(types, 4)
        kreduce_data.tree_aggregate(
            lambda: NEVER,
            lambda acc, tau: merge_k_schemas(acc, merge_k([tau])),
            merge_k_schemas,
        )
        assert kreduce_data.scans == 1

        jxplain_data = LocalDataset.from_records(types, 4)
        JxplainPipeline().run(jxplain_data)
        # parse map + one bag fold.
        assert jxplain_data.scans == 2
