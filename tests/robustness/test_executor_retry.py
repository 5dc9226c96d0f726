"""Supervision semantics of ``Executor.map_list`` under a RetryPolicy.

Covers the escalation chain (retry → serial-fallback → skip), per-task
deadlines, the deterministic backoff schedule, and the
process-fallback visibility bugfix.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    counters,
    retry_delay,
)
from repro.errors import EngineError


#: A fast policy for tests: real semantics, negligible sleeping.
FAST = RetryPolicy(max_retries=2, backoff_base=0.001, on_failure="raise")


class Flaky:
    """Fails the first ``failures`` calls per item, then succeeds.

    Thread-safe and picklable-unfriendly on purpose (it carries a
    lock), so process backends exercise their serial degradation.
    """

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, item):
        with self._lock:
            seen = self.calls.get(item, 0)
            self.calls[item] = seen + 1
        if seen < self.failures:
            raise ValueError(f"transient failure #{seen} for {item!r}")
        return item * 10


def _snapshot():
    return counters.snapshot()


def _delta(before, name):
    return counters.get(name) - before.get(name, 0)


class FlakyOnDisk:
    """:class:`Flaky` for worker processes: each call leaves a file in
    ``directory``, so the count of earlier calls outlives the child
    that made them.  Picklable, so the process backend forks it."""

    def __init__(self, directory, failures: int):
        self.directory = str(directory)
        self.failures = failures

    def __call__(self, item):
        prefix = f"{item}-"
        seen = sum(
            name.startswith(prefix) for name in os.listdir(self.directory)
        )
        with open(os.path.join(self.directory, f"{prefix}{seen}"), "w"):
            pass
        if seen < self.failures:
            raise ValueError(f"transient failure #{seen} for {item!r}")
        return item * 10


@pytest.mark.parametrize(
    "make_executor",
    [
        lambda p: SerialExecutor(retry=p),
        lambda p: ProcessExecutor(3, retry=p),
    ],
    ids=["serial", "processes"],
)
def test_transient_failures_are_retried_away(make_executor, tmp_path):
    executor = make_executor(FAST)
    flaky = FlakyOnDisk(tmp_path, failures=2)
    before = _snapshot()
    try:
        assert executor.map_list(flaky, [1, 2, 3]) == [10, 20, 30]
    finally:
        executor.close()
    assert _delta(before, "executor.retries") == 6
    assert _delta(before, "executor.task_failures") == 6
    assert _delta(before, "executor.skipped_tasks") == 0
    assert _delta(before, "executor.process_fallbacks") == 0


def test_retries_exhausted_raises_last_error():
    executor = SerialExecutor(retry=FAST)
    flaky = Flaky(failures=10)
    with pytest.raises(ValueError, match="transient failure #2"):
        executor.map_list(flaky, [1])


def test_serial_fallback_rescues_after_retries():
    policy = FAST.with_(on_failure="serial")
    executor = SerialExecutor(retry=policy)
    # Fails 3 times (first attempt + 2 retries), so only the serial
    # rescue — attempt number 4 — succeeds.
    flaky = Flaky(failures=3)
    before = _snapshot()
    assert executor.map_list(flaky, [7]) == [70]
    assert _delta(before, "executor.serial_rescues") == 1


def test_skip_yields_none_for_hopeless_tasks():
    policy = FAST.with_(on_failure="skip")
    executor = ProcessExecutor(2, retry=policy)

    try:
        before = _snapshot()
        result = executor.map_list(_fail_on_two, [1, 2, 3])
    finally:
        executor.close()
    assert result == [100, None, 300]
    assert _delta(before, "executor.skipped_tasks") == 1
    # The rescue was attempted before skipping.
    assert _delta(before, "executor.serial_rescues") == 1


def _fail_on_two(item):
    if item == 2:
        raise RuntimeError("permanently broken")
    return item * 100


def _slow_then_value(item):
    if item == "slow":
        time.sleep(0.8)
    return item


def test_deadline_times_out_and_raises():
    policy = RetryPolicy(
        max_retries=0, task_timeout=0.1, on_failure="raise"
    )
    executor = ProcessExecutor(2, retry=policy)
    try:
        before = _snapshot()
        with pytest.raises(EngineError, match="deadline"):
            executor.map_list(_slow_then_value, ["fast", "slow"])
    finally:
        executor.close()
    assert _delta(before, "executor.timeouts") == 1


def test_deadline_skip_keeps_fast_results():
    # The serial rescue re-runs the slow task in-driver (no deadline
    # there), so even a chronically slow task completes under "skip".
    policy = RetryPolicy(
        max_retries=0, task_timeout=0.1, on_failure="skip"
    )
    executor = ProcessExecutor(2, retry=policy)
    try:
        assert executor.map_list(_slow_then_value, ["a", "slow", "b"]) == [
            "a",
            "slow",
            "b",
        ]
    finally:
        executor.close()


class TestBackoffSchedule:
    def test_deterministic(self):
        policy = RetryPolicy(seed=42)
        first = [retry_delay(policy, t, a) for t in range(4) for a in (1, 2, 3)]
        second = [retry_delay(policy, t, a) for t in range(4) for a in (1, 2, 3)]
        assert first == second

    def test_exponential_envelope(self):
        policy = RetryPolicy(
            backoff_base=0.01, backoff_multiplier=2.0, jitter=0.1
        )
        for attempt in (1, 2, 3, 4):
            base = 0.01 * 2.0 ** (attempt - 1)
            delay = retry_delay(policy, 0, attempt)
            assert base <= delay <= base * 1.1

    def test_jitter_decorrelates_tasks(self):
        policy = RetryPolicy(jitter=0.5)
        delays = {retry_delay(policy, task, 1) for task in range(16)}
        assert len(delays) > 1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.25, jitter=0.0)
        assert retry_delay(policy, 3, 1) == 0.25
        assert retry_delay(policy, 3, 2) == 0.5


class TestPolicyValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(EngineError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(EngineError):
            RetryPolicy(task_timeout=0)
        with pytest.raises(EngineError):
            RetryPolicy(on_failure="shrug")
        with pytest.raises(EngineError):
            RetryPolicy(jitter=1.5)

    def test_with_retry_preserves_backend(self):
        executor = ProcessExecutor(5)
        supervised = executor.with_retry(FAST)
        assert type(supervised) is ProcessExecutor
        assert supervised.workers == 5
        assert supervised.retry == FAST
        assert executor.retry is None


class TestProcessFallbackVisibility:
    """The satellite bugfix: degraded runs must say why."""

    def test_unpicklable_fn_error_is_preserved(self):
        executor = ProcessExecutor(2)
        before = _snapshot()
        # A lambda cannot be pickled; the fallback must run serially
        # AND record the pickling error.
        assert executor.map_list(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert _delta(before, "executor.process_fallbacks") == 1
        assert executor.last_fallback_error is not None
        assert "pickle" in executor.last_fallback_error.lower()
        assert "degraded=" in repr(executor)
        executor.close()

    def test_healthy_executor_repr_is_clean(self):
        executor = ProcessExecutor(2)
        assert executor.last_fallback_error is None
        assert "degraded" not in repr(executor)

    def test_supervised_unpicklable_work_degrades_with_retries(self):
        executor = ProcessExecutor(2, retry=FAST)
        flaky = Flaky(failures=1)  # unpicklable: carries a lock
        before = _snapshot()
        assert executor.map_list(flaky, [1, 2]) == [10, 20]
        assert _delta(before, "executor.process_fallbacks") == 1
        assert _delta(before, "executor.retries") == 2
        assert executor.last_fallback_error is not None
        executor.close()


def test_supervised_process_pool_retries_real_crashes():
    policy = RetryPolicy(max_retries=2, backoff_base=0.001, on_failure="raise")
    executor = ProcessExecutor(2, retry=policy)
    try:
        # _crash_once is module-level and picklable; it really raises
        # inside a pool worker on the first call per item (tracked via
        # a scratch file because worker state is per-process).
        import tempfile, os

        scratch = tempfile.mkdtemp()
        items = [(scratch, 1), (scratch, 2)]
        assert executor.map_list(_crash_once, items) == [1, 2]
    finally:
        executor.close()


def _crash_once(task):
    import os

    scratch, item = task
    marker = os.path.join(scratch, f"seen-{item}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"worker crash for {item}")
    return item
