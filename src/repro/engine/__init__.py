"""Execution backends, sharded discovery and instrumentation (the
Spark stand-in: a map over byte-range shards, then a tree merge of
states)."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        "repro.engine.executor": (
            "Executor",
            "ON_FAILURE_MODES",
            "ProcessExecutor",
            "RetryPolicy",
            "SerialExecutor",
            "default_executor",
            "executor_names",
            "resolve_executor",
            "retry_delay",
            "set_default_executor",
        ),
        "repro.engine.faults": (
            "FAULTS_ENV_VAR",
            "FaultPlan",
            "FaultSpec",
            "InjectedFault",
            "active_fault_plan",
            "clear_fault_plan",
            "current_stage",
            "install_fault_plan",
            "stage_scope",
        ),
        "repro.engine.instrument": (
            "Counters",
            "StageTimer",
            "counters",
            "deep_size_bytes",
            "perf_counters",
            "reset_perf_counters",
        ),
        "repro.engine.sharding": (
            "DEFAULT_MERGE_FANIN",
            "ShardCoordinator",
            "ShardPlan",
            "ShardRunResult",
            "ShardTask",
            "default_shard_count",
            "discover_sharded",
            "plan_shards",
        ),
    },
)
