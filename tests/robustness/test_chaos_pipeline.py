"""Chaos harness: discovery output is invariant under injected faults.

The acceptance bar for the fault-tolerance layer: with a
:class:`FaultPlan` injecting one crash, one timeout and one corrupt
result into the one stage that fans work out (``shard-discover``, the
shard workers of a sharded run, which are forked processes that really
crash and hang), the staged JXPLAIN pipeline's schema is
byte-identical to a fault-free run, and the retry/timeout counters
account for exactly the injected faults — no more (no spurious
retries), no less (the plan really fired).  The same invariance is
asserted for the states themselves: a K-reduce state and a JXPLAIN
state absorbed over byte ranges equal their unsharded absorption byte
for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import make_dataset
from repro.discovery.pipeline import JxplainPipeline
from repro.discovery.state import state_for_algorithm
from repro.engine import (
    ProcessExecutor,
    RetryPolicy,
    clear_fault_plan,
    counters,
    install_fault_plan,
)
from repro.engine.sharding import absorb_files
from repro.io.jsonlines import write_jsonlines
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

#: One crash, one timeout and one corrupt result in the pipeline's
#: shard workers, the stage with executor tasks.  All faults stand
#: down after one firing, so a single retry clears each.
PIPELINE_PLAN = ",".join(
    [
        f"shard-discover:0:raise,shard-discover:1:delay:1:{INJECTED_DELAY}",
        "shard-discover:2:corrupt",
    ]
)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def records():
    """A multi-entity corpus small enough that honest per-task work
    finishes far inside the injected deadline."""
    return make_dataset("github").generate(160, seed=7)


@pytest.fixture(scope="module")
def corpus(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "github.jsonl"
    write_jsonlines(path, records)
    return path


def schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


def _delta(before, name: str) -> float:
    return counters.get(name) - before.get(name, 0)


class TestPipelineChaos:
    def test_jxplain_output_identical_under_faults(self, corpus):
        baseline = JxplainPipeline().run_file(corpus)
        install_fault_plan(PIPELINE_PLAN)
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = JxplainPipeline(shards=3, executor=executor).run_file(
                corpus
            )
        finally:
            executor.close()
        assert schema_bytes(chaotic.schema) == schema_bytes(baseline.schema)
        assert chaotic.record_count == baseline.record_count
        assert chaotic.decisions == baseline.decisions

        injected_raise = _delta(before, "faults.injected_raise")
        injected_delay = _delta(before, "faults.injected_delay")
        injected_corrupt = _delta(before, "faults.injected_corrupt")
        # The shards fan out once, so every fault fires exactly once.
        assert injected_raise == 1
        assert injected_delay == 1
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
        assert _delta(before, "executor.process_fallbacks") == 0


def _absorb(corpus, algorithm, **sharding):
    state, _ = absorb_files(
        state_for_algorithm(algorithm),
        [corpus],
        ingest="fused",
        on_bad_record="raise",
        **sharding,
    )
    return state


class TestKReduceChaos:
    def test_kreduce_fold_identical_under_faults(self, corpus):
        baseline = _absorb(corpus, "k-reduce")
        install_fault_plan(
            f"shard-discover:0:raise,"
            f"shard-discover:2:delay:1:{INJECTED_DELAY},"
            "shard-discover:1:corrupt"
        )
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = _absorb(corpus, "k-reduce", shards=3, executor=executor)
        finally:
            executor.close()
        assert chaotic.to_bytes() == baseline.to_bytes()
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "faults.injected_corrupt") == 1
        assert _delta(before, "executor.retries") == 3
        assert _delta(before, "executor.timeouts") == 1
        assert _delta(before, "executor.skipped_tasks") == 0


class TestProcessWorkerChaos:
    def test_real_worker_crashes_are_survived(self, corpus):
        baseline = _absorb(corpus, "bimax-merge")
        install_fault_plan(
            f"shard-discover:0:raise,"
            f"shard-discover:1:delay:1:{INJECTED_DELAY}"
        )
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            sharded = _absorb(
                corpus, "bimax-merge", shards=2, executor=executor
            )
        finally:
            executor.close()
        assert sharded.to_bytes() == baseline.to_bytes()
        # The crash really happened in a forked worker (no pickling
        # degradation took place) and one retry cleared each fault.
        assert executor.last_fallback_error is None
        assert _delta(before, "executor.process_fallbacks") == 0
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "executor.retries") == 2
        assert _delta(before, "executor.timeouts") == 1
        assert _delta(before, "executor.serial_rescues") == 0


class TestEnvDrivenChaos:
    def test_repro_faults_env_plan_fires(self, monkeypatch, corpus):
        from repro.engine.faults import FAULTS_ENV_VAR

        baseline = JxplainPipeline().run_file(corpus).schema
        monkeypatch.setenv(FAULTS_ENV_VAR, "shard-discover:0:raise:1")
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            schema = JxplainPipeline(shards=2, executor=executor).run_file(
                corpus
            ).schema
        finally:
            executor.close()
        assert schema_bytes(schema) == schema_bytes(baseline)
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "executor.retries") == 1
