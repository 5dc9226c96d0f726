"""Executor backends: equivalence, fallback and supervision.

The contract under test is that a backend changes *where* each task of
a :meth:`~repro.engine.executor.Executor.map_list` runs, never *what*
the map returns or in which order.  Property tests drive the same
per-task work on both backends and require identical results.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Counters,
    ProcessExecutor,
    SerialExecutor,
    counters,
    default_executor,
    executor_names,
    resolve_executor,
    set_default_executor,
)
from repro.datasets import make_dataset
from repro.discovery import KReduce, state_for_algorithm
from repro.engine.sharding import discover_sharded
from repro.errors import EngineError
from repro.io.fastpath import absorb_file
from repro.io.jsonlines import write_jsonlines


# Module-level ops so the process backend can pickle every task.

def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0


def _transform(chunk):
    # Map, filter and flat-map one task's items, then reverse them.
    doubled = [_double(x) for x in chunk]
    exploded = [out for x in doubled if _is_even(x) for out in (x, -x)]
    return list(reversed(exploded))


def _zero():
    return (0, 1)


def _seq_op(acc, item):
    # Deliberately non-commutative in its parts: (sum, product-ish)
    return (acc[0] + item, (acc[1] * (item % 7 + 1)) % 1000003)


def _comb_op(left, right):
    return (left[0] + right[0], (left[1] * right[1]) % 1000003)


def _fold_chunk(chunk):
    return functools.reduce(_seq_op, chunk, _zero())


def _merge_k_chunk(chunk):
    from repro.discovery.kreduce import merge_k

    return merge_k(chunk)


@pytest.fixture(scope="module")
def backends():
    """One long-lived executor per backend (they are reusable)."""
    return [SerialExecutor(), ProcessExecutor(2)]


@pytest.fixture(scope="module")
def github_records():
    return make_dataset("github").generate(80, seed=5)


@pytest.fixture(scope="module")
def corpus(github_records, tmp_path_factory):
    path = tmp_path_factory.mktemp("executor") / "github.jsonl"
    write_jsonlines(path, github_records)
    return path


def _chunks(items, count):
    """``items`` dealt round-robin into ``count`` task inputs."""
    return [items[index::count] for index in range(count)]


ints = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=40)
task_counts = st.integers(min_value=1, max_value=7)


class TestBackendEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(records=ints, tasks=task_counts)
    def test_transformations_agree(self, backends, records, tasks):
        results = [
            ex.map_list(_transform, _chunks(records, tasks))
            for ex in backends
        ]
        assert results[0] == results[1]

    @settings(max_examples=20, deadline=None)
    @given(records=ints, tasks=task_counts)
    def test_aggregate_agrees(self, backends, records, tasks):
        """Per-task folds come back in task order, so a non-commutative
        combine of them is backend-independent."""
        values = [
            functools.reduce(
                _comb_op,
                ex.map_list(_fold_chunk, _chunks(records, tasks)),
                _zero(),
            )
            for ex in backends
        ]
        assert values[0] == values[1]

    @settings(max_examples=5, deadline=None)
    @given(shards=st.integers(1, 4), fanin=st.integers(2, 3))
    def test_tree_aggregate_agrees(self, backends, corpus, shards, fanin):
        """Shard partials computed on any backend tree-merge, at any
        fan-in, to the bytes of one unsharded absorption."""
        serial = state_for_algorithm("k-reduce")
        absorb_file(serial, corpus, ingest="fused", on_bad_record="raise")
        for ex in backends:
            run = discover_sharded(
                corpus, "k-reduce", executor=ex, shards=shards,
                merge_fanin=fanin,
            )
            assert run.state.to_bytes() == serial.to_bytes()

    def test_discoverers_identical_across_backends(self, backends):
        from repro.discovery.kreduce import merge_k_schemas
        from repro.jsontypes import type_of

        records = make_dataset("yelp-merged").generate(200, seed=3)
        types = [type_of(r) for r in records]
        reference_k = KReduce().discover(records)
        for ex in backends:
            before = counters.get("executor.process_fallbacks")
            folded = functools.reduce(
                merge_k_schemas, ex.map_list(_merge_k_chunk, _chunks(types, 4))
            )
            assert folded == reference_k
            # The K-reduce partials really crossed process boundaries:
            # nothing degraded to the driver.
            assert counters.get("executor.process_fallbacks") == before


class TestProcessFallback:
    def test_unpicklable_closure_falls_back_serially(self):
        counters.reset()
        executor = ProcessExecutor(2)
        bound = 5
        try:
            # A closure is unpicklable.
            out = executor.map_list(lambda x: x + bound, list(range(10)))
        finally:
            executor.close()
        assert out == [x + bound for x in range(10)]
        assert counters.get("executor.process_fallbacks") >= 1


def _boom(x):
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x


def _lock_for(x):
    return threading.Lock()  # a result no pickle can carry


def _sleepy(x):
    if x == "slow":
        time.sleep(30)
    return x


def _count_and_return(x):
    counters.add("test.forked_adds")
    return x


class _LockedError(Exception):
    """An exception no pickle can carry."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_locked(x):
    if x == 2:
        raise _LockedError(f"task {x} failed")
    return x


def _die_in_child(item):
    driver_pid, x = item
    if os.getpid() != driver_pid:
        os._exit(1)
    return x


def _timed(item):
    """Sleep if slow; leave ``start end`` (monotonic, system-wide on
    Linux) in a file named after the task."""
    name, directory = item
    start = time.monotonic()
    if name == 0:
        time.sleep(1.5)
    with open(os.path.join(directory, str(name)), "w") as out:
        out.write(f"{start} {time.monotonic()}")
    return name


@pytest.fixture
def forked_pids(monkeypatch):
    """Pids of every child the process backend forks in the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_all_reaped(pids):
    assert pids
    for pid in pids:
        # A live or zombie child would still be waitable.
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestForkPerTask:
    """One forked child per task: a bounded window, and no child
    outlives ``map_list`` however it ends."""

    def _record_alive_at_fork(self, executor, monkeypatch):
        real_fork = os.fork
        alive_at_fork = []

        def counting_fork():
            alive_at_fork.append(len(executor._running))
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return alive_at_fork

    def test_plain_map_forks_one_child_per_slice(self, monkeypatch):
        from repro.engine.executor import SLICES_PER_WORKER

        executor = ProcessExecutor(2)
        alive_at_fork = self._record_alive_at_fork(executor, monkeypatch)
        assert executor.map_list(_double, list(range(25))) == [
            2 * x for x in range(25)
        ]
        assert len(alive_at_fork) == 2 * SLICES_PER_WORKER
        assert max(alive_at_fork) < executor.workers
        alive_at_fork.clear()
        assert ProcessExecutor(4).map_list(_double, [1, 2, 3]) == [2, 4, 6]
        assert len(alive_at_fork) == 3

    def test_supervised_window_never_exceeds_workers(self, monkeypatch):
        from repro.engine import RetryPolicy

        executor = ProcessExecutor(2, retry=RetryPolicy(max_retries=0))
        alive_at_fork = self._record_alive_at_fork(executor, monkeypatch)
        assert executor.map_list(_double, list(range(7))) == [
            2 * x for x in range(7)
        ]
        assert len(alive_at_fork) == 7
        assert max(alive_at_fork) < executor.workers

    @pytest.mark.parametrize("supervised", [False, True])
    def test_a_free_slot_refills_before_the_oldest_child_ends(
        self, tmp_path, supervised
    ):
        from repro.engine import RetryPolicy

        retry = RetryPolicy(max_retries=0) if supervised else None
        executor = ProcessExecutor(2, retry=retry)
        items = [(name, str(tmp_path)) for name in range(4)]
        assert executor.map_list(_timed, items) == [0, 1, 2, 3]
        spans = {
            name: [float(t) for t in (tmp_path / str(name)).read_text().split()]
            for name in range(4)
        }
        # Task 3 can only start once two children have ended; the slow
        # task 0 (awaited first) must not hold its slot hostage.
        assert spans[3][0] < spans[0][1]

    def test_task_exception_reaches_the_driver(self, forked_pids):
        executor = ProcessExecutor(2)
        before = counters.get("executor.process_fallbacks")
        with pytest.raises(ValueError, match="task 2 failed"):
            executor.map_list(_boom, [0, 1, 2, 3, 4])
        assert counters.get("executor.process_fallbacks") == before
        _assert_all_reaped(forked_pids)

    def test_unpicklable_result_falls_back_for_that_task(self, forked_pids):
        executor = ProcessExecutor(2)
        before = counters.get("executor.process_fallbacks")
        results = executor.map_list(_lock_for, [1, 2, 3])
        assert [type(r) for r in results] == [type(threading.Lock())] * 3
        assert counters.get("executor.process_fallbacks") == before + 3
        assert "pickle" in executor.last_fallback_error.lower()
        _assert_all_reaped(forked_pids)

    def test_task_exception_carries_the_child_traceback(self):
        with pytest.raises(ValueError) as caught:
            ProcessExecutor(2).map_list(_boom, [0, 1, 2, 3])
        assert "in _boom" in str(caught.value.__cause__)

    def test_unpicklable_exception_surfaces_the_real_one(self, forked_pids):
        executor = ProcessExecutor(2)
        before = counters.get("executor.process_fallbacks")
        with pytest.raises(_LockedError, match="task 2 failed"):
            executor.map_list(_raise_locked, [0, 1, 2, 3])
        assert counters.get("executor.process_fallbacks") == before + 1
        assert "could not be pickled" in executor.last_fallback_error
        _assert_all_reaped(forked_pids)

    def test_unpicklable_exception_is_retried_then_rescued(self):
        from repro.engine import RetryPolicy

        executor = ProcessExecutor(2, retry=RetryPolicy(max_retries=1))
        before = counters.get("executor.serial_rescues")
        with pytest.raises(_LockedError, match="task 2 failed"):
            executor.map_list(_raise_locked, [0, 1, 2, 3])
        assert counters.get("executor.serial_rescues") == before + 1

    def test_child_that_dies_has_its_items_rerun(self, forked_pids):
        executor = ProcessExecutor(2)
        before = counters.get("executor.process_fallbacks")
        items = [(os.getpid(), x) for x in range(5)]
        assert executor.map_list(_die_in_child, items) == list(range(5))
        assert counters.get("executor.process_fallbacks") == before + 5
        assert "sent no result" in executor.last_fallback_error
        _assert_all_reaped(forked_pids)

    def test_timed_out_child_is_killed_and_reaped(self, forked_pids):
        from repro.engine import RetryPolicy

        policy = RetryPolicy(max_retries=0, task_timeout=0.2,
                             on_failure="raise")
        executor = ProcessExecutor(2, retry=policy)
        before = counters.get("executor.timeouts")
        start = time.monotonic()
        with pytest.raises(EngineError, match="deadline"):
            executor.map_list(_sleepy, ["fast", "slow", "later"])
        assert time.monotonic() - start < 10
        assert counters.get("executor.timeouts") == before + 1
        _assert_all_reaped(forked_pids)
        for pid in forked_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_reaps_unfinished_children(self, forked_pids):
        executor = ProcessExecutor(2)
        executor._submit_attempt(_sleepy, "slow", None)
        executor._submit_attempt(_sleepy, "slow", None)
        executor._submit_attempt(_sleepy, "slow", None)
        assert len(executor._running) == 2 and len(executor._pending) == 1
        executor.close()
        assert not executor._running and not executor._pending
        _assert_all_reaped(forked_pids)

    def test_missing_fork_falls_back_serially(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        executor = ProcessExecutor(2)
        before = counters.get("executor.process_fallbacks")
        assert executor.map_list(_double, [1, 2, 3]) == [2, 4, 6]
        assert counters.get("executor.process_fallbacks") == before + 1
        assert "fork" in executor.last_fallback_error

    def test_child_never_inherits_a_held_counters_lock(self):
        from repro.engine import RetryPolicy

        held, release = threading.Event(), threading.Event()

        def hold_the_lock():
            # Holding the lock across a fork is the hazard under test.
            with counters._lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold_the_lock)
        holder.start()
        try:
            assert held.wait(10)
            # The deadline turns a deadlocked child into a failure here
            # instead of a hung suite.
            policy = RetryPolicy(max_retries=0, task_timeout=10,
                                 on_failure="raise")
            executor = ProcessExecutor(2, retry=policy)
            assert executor.map_list(_count_and_return, [1, 2]) == [1, 2]
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()


class TestResolution:
    def test_spec_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("processes"), ProcessExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)
        ex = resolve_executor("processes:2")
        assert isinstance(ex, ProcessExecutor) and ex.workers == 2

    def test_passthrough_and_default(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex
        assert resolve_executor(None) is default_executor()

    def test_bad_specs_raise(self):
        with pytest.raises(EngineError):
            resolve_executor("clusters:9")
        with pytest.raises(EngineError):
            resolve_executor("processes:0")
        with pytest.raises(EngineError):
            resolve_executor("processes:lots")

    @pytest.mark.parametrize("spec", ["threads", "thread", "threads:4"])
    def test_the_thread_backend_is_gone(self, spec):
        with pytest.raises(
            EngineError,
            match="unknown executor 'threads?'; known: serial, processes$",
        ):
            resolve_executor(spec)

    def test_repro_executor_threads_is_an_unknown_backend(self, monkeypatch):
        import repro.engine.executor as executor_module

        monkeypatch.setenv(executor_module.EXECUTOR_ENV_VAR, "threads")
        monkeypatch.setattr(executor_module, "_default_executor", None)
        with pytest.raises(
            EngineError,
            match="^unknown executor 'threads'; known: serial, processes$",
        ):
            default_executor()

    def test_names_registry(self):
        assert executor_names() == ["serial", "processes"]

    def test_set_default_round_trip(self):
        old = default_executor()
        try:
            set_default_executor("processes:2")
            assert isinstance(default_executor(), ProcessExecutor)
            assert isinstance(resolve_executor(None), ProcessExecutor)
        finally:
            set_default_executor(old)


class TestCounters:
    def test_counters_object(self):
        c = Counters()
        c.add("a")
        c.add("a", 4)
        c.set("b", 7)
        assert c.get("a") == 5
        assert c.snapshot() == {"a": 5, "b": 7}
        c.reset()
        assert c.snapshot() == {}
        assert c.get("a") == 0

    def test_concurrent_adds_lose_no_update(self):
        """``add`` is a locked read-modify-write: threads switching
        every 10 µs still sum exactly."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                c = Counters()

                def work():
                    for _ in range(5_000):
                        c.add("n")

                threads = [threading.Thread(target=work) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert c.get("n") == 40_000
        finally:
            sys.setswitchinterval(interval)
