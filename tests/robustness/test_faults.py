"""FaultPlan parsing, matching, installation, and execution."""

from __future__ import annotations

import pytest

from repro.engine import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    active_fault_plan,
    clear_fault_plan,
    current_stage,
    install_fault_plan,
    stage_scope,
)
from repro.engine.faults import (
    CorruptResult,
    FAULTS_ENV_VAR,
    FaultError,
    run_with_fault,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


class TestParsing:
    def test_grammar(self):
        plan = FaultPlan.parse(
            "absorb:0:raise,synthesis:2:delay:3:0.25,pass3:1:corrupt"
        )
        assert plan.faults == (
            FaultSpec("absorb", 0, "raise"),
            FaultSpec("synthesis", 2, "delay", times=3, delay=0.25),
            FaultSpec("pass3", 1, "corrupt"),
        )

    def test_blank_chunks_ignored(self):
        assert FaultPlan.parse(" , a:0:raise , ").faults == (
            FaultSpec("a", 0, "raise"),
        )

    def test_bad_specs_rejected(self):
        for text in ("a:b", "a:x:raise", "a:0:explode", "a:0:delay:0:-1"):
            with pytest.raises(FaultError):
                FaultPlan.parse(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "stage:0:raise")
        plan = FaultPlan.from_env()
        assert plan.faults[0].stage == "stage"
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert FaultPlan.from_env() is None


class TestMatching:
    def test_stage_index_attempt(self):
        spec = FaultSpec("s", 2, "raise", times=2)
        assert spec.matches("s", 2, 0)
        assert spec.matches("s", 2, 1)
        assert not spec.matches("s", 2, 2)  # stood down after `times`
        assert not spec.matches("s", 1, 0)
        assert not spec.matches("other", 2, 0)

    def test_wildcard_stage(self):
        spec = FaultSpec("*", 0, "delay")
        assert spec.matches("anything", 0, 0)
        assert spec.matches(None, 0, 0)

    def test_plan_targeting(self):
        plan = FaultPlan.parse("alpha:0:raise")
        assert plan.targets_stage("alpha")
        assert not plan.targets_stage("beta")
        assert FaultPlan.parse("*:0:raise").targets_stage("beta")


class TestInstallation:
    def test_install_and_clear(self):
        assert active_fault_plan() is None
        install_fault_plan("s:0:raise")
        assert active_fault_plan().targets_stage("s")
        clear_fault_plan()
        assert active_fault_plan() is None

    def test_env_var_is_picked_up_lazily(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "envstage:1:delay")
        plan = active_fault_plan()
        assert plan is not None and plan.targets_stage("envstage")

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "envstage:1:delay")
        install_fault_plan("code:0:raise")
        assert active_fault_plan().targets_stage("code")


class TestStageScope:
    def test_nesting(self):
        assert current_stage() is None
        with stage_scope("outer"):
            assert current_stage() == "outer"
            with stage_scope("inner"):
                assert current_stage() == "inner"
            assert current_stage() == "outer"
        assert current_stage() is None

    def test_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with stage_scope("doomed"):
                raise RuntimeError("boom")
        assert current_stage() is None


class TestExecution:
    def test_raise_fault(self):
        with pytest.raises(InjectedFault):
            run_with_fault(lambda x: x, 1, FaultSpec("s", 0, "raise"))

    def test_delay_fault_still_computes(self):
        spec = FaultSpec("s", 0, "delay", delay=0.0)
        assert run_with_fault(lambda x: x + 1, 1, spec) == 2

    def test_corrupt_fault_wraps(self):
        result = run_with_fault(lambda x: x + 1, 1, FaultSpec("s", 0, "corrupt"))
        assert isinstance(result, CorruptResult)
        assert result.original == 2

    def test_no_fault_is_transparent(self):
        assert run_with_fault(lambda x: x * 3, 2, None) == 6


class TestExecutorIntegration:
    def test_fault_outside_stage_never_fires(self):
        install_fault_plan("elsewhere:0:raise")
        executor = SerialExecutor()
        assert executor.map_list(lambda x: x, [1, 2]) == [1, 2]

    def test_unsupervised_fault_propagates(self):
        install_fault_plan("here:1:raise")
        executor = SerialExecutor()
        with stage_scope("here"):
            with pytest.raises(InjectedFault):
                executor.map_list(lambda x: x, [1, 2, 3])

    def test_supervised_fault_is_retried_away(self):
        install_fault_plan("here:1:raise,here:0:corrupt")
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        executor = ProcessExecutor(2, retry=policy)
        try:
            with stage_scope("here"):
                assert executor.map_list(_inc, [1, 2, 3]) == [2, 3, 4]
        finally:
            executor.close()

    def test_corrupt_results_never_escape_supervision(self):
        from repro.engine import counters

        install_fault_plan("here:0:corrupt")
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        executor = SerialExecutor(retry=policy)
        before = counters.get("executor.corrupt_results")
        with stage_scope("here"):
            assert executor.map_list(_inc, [5]) == [6]
        assert counters.get("executor.corrupt_results") == before + 1

    def test_persistent_fault_exhausts_and_escalates(self):
        # times=99 outlives the retries; serial rescue runs without
        # fault wrapping, so the task still completes.
        install_fault_plan("here:0:raise:99")
        policy = RetryPolicy(
            max_retries=1, backoff_base=0.0, on_failure="serial"
        )
        executor = SerialExecutor(retry=policy)
        with stage_scope("here"):
            assert executor.map_list(_inc, [1]) == [2]


def _inc(x):
    return x + 1
