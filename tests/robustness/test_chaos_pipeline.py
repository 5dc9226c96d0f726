"""Chaos harness: discovery output is invariant under injected faults.

The acceptance bar for the fault-tolerance layer: with a
:class:`FaultPlan` injecting one crash and one timeout into every stage
of the staged JXPLAIN pipeline that fans work out (plus a corrupt
result in synthesis), the discovered schema is byte-identical to a fault-free
run, and the retry/timeout counters account for exactly the injected
faults — no more (no spurious retries), no less (the plan really
fired).  The same invariance is asserted for the K-reduce fold and for
genuine process-pool worker crashes.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.datasets import make_dataset
from repro.discovery.kreduce import merge_k, merge_k_schemas
from repro.discovery.pipeline import JxplainPipeline
from repro.engine import (
    LocalDataset,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadExecutor,
    clear_fault_plan,
    counters,
    install_fault_plan,
    stage_scope,
)
from repro.jsontypes.types import type_of
from repro.schema import to_json_schema


#: Short per-attempt deadline; injected delays sleep well past it.
TASK_TIMEOUT = 0.4
INJECTED_DELAY = 1.5

CHAOS_POLICY = RetryPolicy(
    max_retries=3,
    task_timeout=TASK_TIMEOUT,
    backoff_base=0.001,
    on_failure="serial",
)

#: One crash and one timeout in every pipeline stage with executor
#: tasks — the parse map, the bag fold and synthesis's per-path
#: partitioner fan-out — plus one corrupt result during synthesis.
#: All faults stand down after one firing, so a single retry clears
#: each.
PIPELINE_PLAN = ",".join(
    [
        f"parse:0:raise,parse:1:delay:1:{INJECTED_DELAY}",
        f"fold:1:raise,fold:2:delay:1:{INJECTED_DELAY}",
        f"synthesis:3:raise,synthesis:0:delay:1:{INJECTED_DELAY}",
        "synthesis:2:corrupt",
    ]
)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def records():
    """A multi-entity corpus small enough that honest per-partition
    work finishes far inside the injected deadline."""
    return make_dataset("github").generate(160, seed=7)


def schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


def _delta(before, name: str) -> float:
    return counters.get(name) - before.get(name, 0)


class TestPipelineChaos:
    def test_jxplain_output_identical_under_faults(self, records):
        baseline = JxplainPipeline(
            num_partitions=4, executor=SerialExecutor()
        ).run(records)
        install_fault_plan(PIPELINE_PLAN)
        executor = ThreadExecutor(4, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = JxplainPipeline(num_partitions=4, executor=executor).run(
                records
            )
        finally:
            executor.close()
        assert schema_bytes(chaotic.schema) == schema_bytes(baseline.schema)
        assert chaotic.record_count == baseline.record_count
        assert chaotic.decisions == baseline.decisions

        injected_raise = _delta(before, "faults.injected_raise")
        injected_delay = _delta(before, "faults.injected_delay")
        injected_corrupt = _delta(before, "faults.injected_corrupt")
        # The plan names one crash and one timeout per stage, and each
        # stage fans out once, so every fault fires exactly once.
        assert injected_raise == 3
        assert injected_delay == 3
        assert injected_corrupt == 1
        # Every injected delay overran the deadline; nothing else did.
        assert _delta(before, "executor.timeouts") == injected_delay
        # Exactly one retry per injected fault, of any kind.
        assert _delta(before, "executor.retries") == (
            injected_raise + injected_delay + injected_corrupt
        )
        assert _delta(before, "executor.corrupt_results") == injected_corrupt
        # Retries sufficed: nothing escalated, nothing was dropped.
        assert _delta(before, "executor.serial_rescues") == 0
        assert _delta(before, "executor.skipped_tasks") == 0

    def test_robustness_config_wires_the_policy(self, records):
        """The same invariance, configured via RobustnessConfig."""
        from repro.discovery import RobustnessConfig

        baseline = JxplainPipeline(num_partitions=4).discover(records)
        install_fault_plan("parse:0:raise:1,synthesis:1:raise:1")
        robust = JxplainPipeline(
            num_partitions=4,
            executor=ThreadExecutor(2),
            robustness=RobustnessConfig(
                max_retries=2, backoff_base=0.001, on_failure="serial"
            ),
        )
        assert schema_bytes(robust.discover(records)) == schema_bytes(baseline)


def _kreduce_partition(partition):
    return [merge_k([type_of(record) for record in partition])]


class TestKReduceChaos:
    def test_kreduce_fold_identical_under_faults(self, records):
        def fold(executor):
            dataset = LocalDataset.from_records(records, 4, executor=executor)
            with stage_scope("kreduce-fold"):
                partials = dataset.map_partitions(_kreduce_partition).collect()
            return functools.reduce(merge_k_schemas, partials)

        baseline = fold(SerialExecutor())
        install_fault_plan(
            f"kreduce-fold:0:raise,kreduce-fold:3:delay:1:{INJECTED_DELAY},"
            "kreduce-fold:1:corrupt"
        )
        executor = ThreadExecutor(4, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = fold(executor)
        finally:
            executor.close()
        assert schema_bytes(chaotic) == schema_bytes(baseline)
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "faults.injected_corrupt") == 1
        assert _delta(before, "executor.retries") == 3
        assert _delta(before, "executor.timeouts") == 1
        assert _delta(before, "executor.skipped_tasks") == 0


def _tag(record):
    # Module-level and closure-free so the process backend ships it to
    # real pool workers instead of degrading to the driver.
    return {"type": record.get("type", "?"), "n": len(record)}


class TestProcessWorkerChaos:
    def test_real_worker_crashes_are_survived(self, records):
        serial = LocalDataset.from_records(records, 4).map(_tag).collect()
        install_fault_plan(
            f"process-map:1:raise,process-map:2:delay:1:{INJECTED_DELAY}"
        )
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            dataset = LocalDataset.from_records(records, 4, executor=executor)
            with stage_scope("process-map"):
                parallel = dataset.map(_tag).collect()
        finally:
            executor.close()
        assert parallel == serial
        # The crash really happened in a pool worker (no pickling
        # degradation took place) and one retry cleared each fault.
        assert executor.last_fallback_error is None
        assert _delta(before, "executor.process_fallbacks") == 0
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "executor.retries") == 2
        assert _delta(before, "executor.timeouts") == 1


class TestEnvDrivenChaos:
    def test_repro_faults_env_plan_fires(self, monkeypatch, records):
        from repro.engine.faults import FAULTS_ENV_VAR

        baseline = JxplainPipeline(num_partitions=4).discover(records)
        monkeypatch.setenv(FAULTS_ENV_VAR, "fold:0:raise:1")
        executor = ThreadExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            schema = JxplainPipeline(
                num_partitions=4, executor=executor
            ).discover(records)
        finally:
            executor.close()
        assert schema_bytes(schema) == schema_bytes(baseline)
        assert _delta(before, "faults.injected_raise") == 1
