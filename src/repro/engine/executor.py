"""Pluggable execution backends for the engine's fan-outs.

The paper runs both extractors on Spark, where per-partition work fans
out across a cluster.  :class:`Executor` is the local analogue of that
scheduling layer: :meth:`Executor.map_list` maps a function over a
list of tasks and returns the results *in task order*.  The shard
coordinator (:mod:`repro.engine.sharding`, one task per byte range of
an input file), JXPLAIN's per-path and per-entity work
(:func:`repro.discovery.pipeline.build_partitioners`,
:class:`repro.discovery.jxplain.JxplainMerger`) and the analyzer's
per-file lint all fan out through it.  Three backends are provided:

* :class:`SerialExecutor` — the seed behaviour: a plain loop in the
  driver.  Zero overhead, always available.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor``.  Pure-Python
  tasks release the GIL only around I/O, but this backend still
  exercises every ordering hazard a real cluster has (tasks complete
  out of order) and wins when task work is C-level-heavy.
* :class:`ProcessExecutor` — forked children, at most ``workers``
  alive at once: a plain map forks one per contiguous slice of its
  items (at most two slices per worker); a supervised map forks one
  per task attempt.  True parallelism; a child inherits the driver's modules,
  caches and its tasks by ``fork``, so only results are pickled (back
  over a pipe).  Tasks must still be picklable:
  unpicklable closures (the engine is often driven with lambdas)
  degrade gracefully to in-driver serial execution, counted in
  ``repro.engine.instrument.counters`` under
  ``executor.process_fallbacks`` with the original pickling error
  preserved on the executor (``last_fallback_error``) and in its
  ``repr`` so degraded runs are visible.  A platform without
  ``os.fork`` degrades the same way.

Backends are value objects: a caller holds one and passes it down.
``resolve_executor`` turns a spec string (``"serial"``, ``"threads"``,
``"threads:8"``, ``"processes:4"``) into an executor; the process-wide
default comes from the ``REPRO_EXECUTOR`` environment variable and
:func:`set_default_executor`.

Failure semantics
-----------------

A cluster loses workers; the local analogue must not lose runs.  An
executor built with a :class:`RetryPolicy` (or wrapped via
:meth:`Executor.with_retry`) runs every task through a supervision
loop: per-attempt deadline (thread and process backends), exponential
backoff with deterministic seeded jitter between attempts, and — once
retries are exhausted — an ``on_failure`` escalation chain of
``retry → serial-fallback → skip``:

* ``"raise"`` — re-raise the last error after the retries;
* ``"serial"`` (default) — after retries, run the task once more in
  the driver (rescues worker-level failures: a child that died,
  unpicklable results); raise only if that also fails;
* ``"skip"`` — like ``"serial"``, but a task that still fails yields
  ``None`` in the result list instead of raising.

Every decision ticks a thread-safe counter
(``executor.retries`` / ``executor.timeouts`` /
``executor.task_failures`` / ``executor.serial_rescues`` /
``executor.skipped_tasks`` / ``executor.corrupt_results``), which is
how the chaos suite asserts a fault plan was actually exercised.  The
supervision loop is also where :mod:`repro.engine.faults` injects
crashes, delays, and corrupt results — matching happens in the driver,
execution in the worker.

The process backend's deadline is enforced by ``SIGKILL``: an attempt
still running when the driver has waited ``task_timeout`` for it is
killed and reaped, and counted under ``executor.timeouts``.  No path
out of :meth:`Executor.map_list` (a result, a task exception, a
deadline, an interrupt) leaves a live or zombie child behind.
"""

from __future__ import annotations

import atexit
import os
import pickle
import random
import select
import signal
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.engine import faults
from repro.errors import EngineError

T = TypeVar("T")
U = TypeVar("U")

#: Legal ``RetryPolicy.on_failure`` values, in escalation order.
ON_FAILURE_MODES = ("raise", "serial", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision policy for every task an executor runs."""

    #: Extra attempts after the first (``0`` disables retries).
    max_retries: int = 2
    #: Per-attempt deadline in seconds, counted from when the driver
    #: starts waiting on the attempt (thread and process backends; the
    #: process backend times an attempt still queued then from its
    #: start).  ``None`` waits forever.  The serial backend cannot preempt a running
    #: task, so it ignores the deadline (documented limitation).
    task_timeout: Optional[float] = None
    #: First backoff delay, in seconds.
    backoff_base: float = 0.01
    #: Growth factor per attempt.
    backoff_multiplier: float = 2.0
    #: Jitter fraction: each delay is stretched by up to this fraction,
    #: deterministically per ``(seed, task, attempt)``.
    jitter: float = 0.1
    #: Seed for the jitter stream.
    seed: int = 0
    #: Escalation after retries: ``raise`` / ``serial`` / ``skip``.
    on_failure: str = "serial"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise EngineError("task_timeout must be positive when set")
        if self.backoff_base < 0 or self.backoff_multiplier < 1.0:
            raise EngineError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter <= 1.0:
            raise EngineError("jitter must be within [0, 1]")
        if self.on_failure not in ON_FAILURE_MODES:
            known = ", ".join(ON_FAILURE_MODES)
            raise EngineError(
                f"unknown on_failure {self.on_failure!r}; known: {known}"
            )

    @property
    def attempts(self) -> int:
        """Total attempts per task (first run + retries)."""
        return 1 + self.max_retries

    def with_(self, **overrides) -> "RetryPolicy":
        return replace(self, **overrides)


def retry_delay(policy: RetryPolicy, task_index: int, attempt: int) -> float:
    """Backoff before retry number ``attempt`` (1-based) of a task.

    Pure and deterministic: exponential in the attempt number, with a
    jitter factor drawn from an RNG seeded by ``(policy.seed,
    task_index, attempt)``.  Tuple-of-int hashing is stable across
    processes, so a chaos run's sleep schedule is reproducible.
    """
    base = policy.backoff_base * (policy.backoff_multiplier ** (attempt - 1))
    if policy.jitter == 0.0:
        return base
    rng = random.Random(hash((policy.seed, task_index, attempt)))
    return base * (1.0 + policy.jitter * rng.random())


def _counters():
    from repro.engine.instrument import counters

    return counters


class Executor:
    """Maps a callable over tasks; results keep task order."""

    #: Registry / spec name of the backend.
    name: str = "abstract"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise EngineError("max_workers must be positive")
        self._max_workers = max_workers
        self._retry = retry

    @property
    def workers(self) -> int:
        """Number of workers this backend fans out to."""
        return 1

    @property
    def retry(self) -> Optional[RetryPolicy]:
        """The supervision policy, if one is installed."""
        return self._retry

    def with_retry(self, retry: Optional[RetryPolicy]) -> "Executor":
        """A same-backend executor with ``retry`` installed."""
        return type(self)(max_workers=self._max_workers, retry=retry)

    # -- public mapping -------------------------------------------------------

    def map_list(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        plan = faults.active_fault_plan()
        stage = faults.current_stage()
        if plan is not None and not plan.targets_stage(stage):
            plan = None
        if self._retry is None and plan is None:
            return self._map_plain(fn, items)
        return self._map_supervised(fn, items, plan, stage)

    # -- backend hooks --------------------------------------------------------

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        """The fast path: no supervision, no faults (subclass hook)."""
        raise NotImplementedError

    def _submit_attempt(self, fn, item, spec):
        """Start one task attempt; returns a backend-specific handle."""
        raise NotImplementedError

    def _wait(self, handle, timeout: Optional[float]):
        """Resolve a handle from :meth:`_submit_attempt` to a result."""
        raise NotImplementedError

    # -- the supervision loop -------------------------------------------------

    def _map_supervised(
        self,
        fn: Callable[[T], U],
        items: Sequence[T],
        plan: Optional[faults.FaultPlan],
        stage: Optional[str],
    ) -> List[U]:
        # First attempts are all submitted before any result is
        # awaited, so parallel backends keep their fan-out even under
        # supervision.
        handles = [
            self._submit_attempt(fn, item, self._select_fault(plan, stage, i, 0))
            for i, item in enumerate(items)
        ]
        return [
            self._settle(fn, item, index, handles[index], plan, stage)
            for index, item in enumerate(items)
        ]

    def _select_fault(self, plan, stage, task_index, attempt):
        if plan is None:
            return None
        spec = plan.match(stage, task_index, attempt)
        if spec is not None:
            _counters().add(f"faults.injected_{spec.kind}")
        return spec

    def _settle(self, fn, item, index, handle, plan, stage):
        policy = self._retry
        attempts = policy.attempts if policy is not None else 1
        timeout = policy.task_timeout if policy is not None else None
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt > 0:
                _counters().add("executor.retries")
                delay = retry_delay(policy, index, attempt)
                if delay > 0:
                    time.sleep(delay)
                handle = self._submit_attempt(
                    fn, item, self._select_fault(plan, stage, index, attempt)
                )
            try:
                result = self._wait(handle, timeout)
            except TimeoutError as exc:
                _counters().add("executor.timeouts")
                last_error = EngineError(
                    f"task {index} exceeded its {timeout}s deadline"
                )
                last_error.__cause__ = exc
                continue
            except Exception as exc:
                _counters().add("executor.task_failures")
                last_error = exc
                continue
            if isinstance(result, faults.CorruptResult):
                _counters().add("executor.corrupt_results")
                last_error = EngineError(
                    f"task {index} returned a corrupt result"
                )
                continue
            return result
        # Retries exhausted: escalate per the policy.
        mode = policy.on_failure if policy is not None else "raise"
        if mode in ("serial", "skip"):
            _counters().add("executor.serial_rescues")
            try:
                return fn(item)
            except Exception as exc:
                _counters().add("executor.task_failures")
                last_error = exc
        if mode == "skip":
            _counters().add("executor.skipped_tasks")
            return None
        raise last_error  # type: ignore[misc]

    def close(self) -> None:
        """Release any pooled threads or live children (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """In-driver loop; the seed semantics and the safe default."""

    name = "serial"

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        return [fn(item) for item in items]

    def _submit_attempt(self, fn, item, spec):
        # Lazy: the supervision loop triggers execution at wait time,
        # which is what lets retries re-run the task.
        return lambda: faults.run_with_fault(fn, item, spec)

    def _wait(self, handle, timeout: Optional[float]):
        # A single-threaded backend cannot preempt a running task, so
        # the deadline is unenforceable here and ignored.
        return handle()


def _default_workers(max_workers: Optional[int]) -> int:
    if max_workers is not None:
        return max_workers
    return max(2, os.cpu_count() or 1)


class ThreadExecutor(Executor):
    """Thread-pool backend; tasks complete in arbitrary order."""

    name = "threads"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_workers, retry)
        self._pool = None

    @property
    def workers(self) -> int:
        return _default_workers(self._max_workers)

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def _submit_attempt(self, fn, item, spec):
        return self._ensure_pool().submit(faults.run_with_fault, fn, item, spec)

    def _wait(self, handle, timeout: Optional[float]):
        from concurrent.futures import TimeoutError as FutureTimeout

        try:
            return handle.result(timeout)
        except FutureTimeout as exc:
            # The same class as the builtin from Python 3.11 on.
            raise TimeoutError(str(exc)) from exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class _Unsent(EngineError):
    """A task's outcome could not cross back from its child."""


class _RemoteTraceback(Exception):
    """A child's formatted traceback, chained as ``__cause__`` of the
    exception it raised."""

    def __str__(self) -> str:
        return self.args[0]


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _message(ok: bool, value, trace: Optional[str]) -> bytes:
    """``(ok, value, trace)`` pickled.  A value that cannot be pickled
    is replaced by an :class:`_Unsent` error that says why, so the
    driver reruns the task and meets the real result or exception."""
    try:
        return pickle.dumps((ok, value, trace), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "result" if ok else f"exception ({type(value).__name__})"
        stand_in = _Unsent(f"task {what} could not be pickled: {_describe(exc)}")
        return pickle.dumps((False, stand_in, trace), pickle.HIGHEST_PROTOCOL)


def _outcome(call, *args):
    """Run ``call(*args)`` in a child: ``(ok, message)``."""
    try:
        return True, _message(True, call(*args), None)
    except BaseException as exc:
        import traceback

        trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return False, _message(False, exc, trace)


def _decode(message: bytes):
    """The result a child's ``message`` carries, or raise its error."""
    try:
        ok, value, trace = pickle.loads(message)
    except Exception as exc:
        raise _Unsent(
            f"worker message could not be unpickled: {_describe(exc)}"
        ) from exc
    if ok:
        return value
    if trace is not None:
        value.__cause__ = _RemoteTraceback(trace)
    raise value


def _attempt_body(fn, item, spec) -> bytes:
    """A supervised attempt's child: one message."""
    return _outcome(faults.run_with_fault, fn, item, spec)[1]


#: A plain map cuts its items into at most this many contiguous slices
#: per worker, one child each: the fork cost stays per map, not per
#: item, and a worker whose slice ran fast takes the next one, so one
#: slow slice idles the other workers for less of the tail.
SLICES_PER_WORKER = 2


def _slice_body(fn, items) -> bytes:
    """A plain map's child: one message per item, in order, stopping
    after the first item that raised."""
    messages = []
    for item in items:
        ok, message = _outcome(fn, item)
        messages.append(message)
        if not ok:
            break
    return pickle.dumps(messages, pickle.HIGHEST_PROTOCOL)


class _Child:
    """One forked unit of work of :class:`ProcessExecutor`.

    Pending until the driver forks it (``pid`` set), running while its
    pipe is open (``fd`` set), done once the pipe hit EOF and the child
    was reaped (``payload`` set: what it sent, ``b""`` if it died or
    was killed first).
    """

    __slots__ = ("seq", "body", "pid", "fd", "chunks", "payload")

    def __init__(self, seq: int, body: Callable[[], bytes]) -> None:
        self.seq = seq
        self.body: Optional[Callable[[], bytes]] = body
        self.pid: Optional[int] = None
        self.fd: Optional[int] = None
        self.chunks: List[bytes] = []
        self.payload: Optional[bytes] = None


class ProcessExecutor(Executor):
    """Fork-based backend with graceful serial fallback.

    A plain map cuts its items into at most
    :data:`SLICES_PER_WORKER` × :attr:`workers` contiguous slices and
    forks one child per slice, which sends back one message per item;
    per-process caches warm once per slice, not once per item.  A
    supervised map forks one child per task attempt, so a deadline can
    kill exactly that attempt.  At most :attr:`workers` children are
    alive; a slice or attempt beyond that window starts as soon as any
    running child ends.  A child inherits the function, its items
    and every module the driver has loaded, so nothing is pickled on
    the way out and no warm-up is needed; it sends back only pickled
    results (or exceptions, with the child's traceback as
    ``__cause__``) over a pipe and exits.  The driver reads every
    running child's pipe as data arrives and reaps a child at EOF.

    The function must still be picklable — the contract every backend
    keeps, so that work which runs here would run on a real cluster.
    When it is not, or the platform has no ``os.fork``, the work runs
    serially in the driver and ``executor.process_fallbacks`` is
    incremented — semantics never change, only the fan-out.  The
    triggering error is kept (:attr:`last_fallback_error`, also shown
    in ``repr``) so a silently degraded run can be diagnosed.  A task
    whose result or exception cannot be pickled, or whose child died
    without sending it, is rerun in the driver (a plain map counts a
    fallback; a supervised map counts a task failure and retries).

    One executor runs one map at a time (a map nested in a task that
    runs in the driver shares the window); it is not thread-safe.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_workers, retry)
        self._last_fallback_error: Optional[str] = None
        #: Started, not yet reaped children, oldest first.
        self._running: List[_Child] = []
        #: Submitted work waiting for a free slot, in start order.
        self._pending: "deque[_Child]" = deque()
        #: Children submitted so far; scopes each map's cleanup.
        self._submitted = 0

    @property
    def workers(self) -> int:
        return _default_workers(self._max_workers)

    @property
    def last_fallback_error(self) -> Optional[str]:
        """The most recent error that forced a serial fallback."""
        return self._last_fallback_error

    def _note_fallback(self, error: BaseException) -> None:
        self._last_fallback_error = _describe(error)
        _counters().add("executor.process_fallbacks")

    def _serial_reason(self, fn) -> Optional[BaseException]:
        """Why ``fn`` cannot run in a child, or ``None`` if it can."""
        if not hasattr(os, "fork"):
            return EngineError("os.fork is not available on this platform")
        try:
            pickle.dumps(fn)
        except Exception as exc:
            return exc
        return None

    # -- the children ---------------------------------------------------------

    def _start(self, body: Callable[[], bytes]) -> _Child:
        child = _Child(self._submitted, body)
        self._submitted += 1
        self._pending.append(child)
        self._fill()
        return child

    def _fill(self) -> None:
        """Fork pending children while the window has room."""
        while self._pending and len(self._running) < self.workers:
            self._fork(self._pending.popleft())

    def _fork(self, child: _Child) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            # Every path out of the child is os._exit: nothing may
            # unwind into the driver's stack copy, and the driver's
            # atexit hooks and buffered output are not the child's.
            try:
                os.close(read_fd)
                for sibling in self._running:
                    os.close(sibling.fd)
                # A map the task runs on this executor starts empty.
                self._running, self._pending = [], deque()
                payload = child.body()
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
            finally:
                os._exit(0)
        os.close(write_fd)
        child.pid, child.fd, child.body = pid, read_fd, None
        self._running.append(child)

    def _reap(self, child: _Child, kill: bool = False) -> None:
        if kill:
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os.close(child.fd)
        os.waitpid(child.pid, 0)
        self._running.remove(child)
        child.fd = None
        child.payload = b"" if kill else b"".join(child.chunks)
        child.chunks = []

    def _pump(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` seconds (``None``: until any running
        child sends data or ends), read what arrived, and reap every
        child whose pipe reached EOF, freeing its slot."""
        poller = select.poll()
        by_fd = {}
        for child in self._running:
            poller.register(child.fd, select.POLLIN)
            by_fd[child.fd] = child
        for fd, _ in poller.poll(None if timeout is None else 1000 * timeout):
            child = by_fd[fd]
            chunk = os.read(fd, 1 << 20)
            if chunk:
                child.chunks.append(chunk)
            else:
                self._reap(child)

    def _collect(self, child: _Child, timeout: Optional[float]) -> bytes:
        """What ``child`` sent, once it has ended.  If it runs for
        ``timeout`` seconds after the driver starts waiting on it (or,
        if it was still queued then, after it starts), kill it and
        raise :class:`TimeoutError`."""
        deadline = None
        while child.payload is None:
            self._fill()
            if deadline is None and timeout is not None and child.pid is not None:
                deadline = time.monotonic() + timeout
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._reap(child, kill=True)
                    raise TimeoutError(
                        f"worker process exceeded its {timeout}s deadline"
                    )
            self._pump(remaining)
        return child.payload

    def _discard(self, since: int) -> None:
        """Kill and reap the running children numbered ``since`` or
        later, and drop their pending ones."""
        for child in [c for c in self._running if c.seq >= since]:
            self._reap(child, kill=True)
        for child in self._pending:
            if child.seq >= since:
                child.payload = b""
        self._pending = deque(c for c in self._pending if c.seq < since)

    # -- mapping --------------------------------------------------------------

    def _submit_attempt(self, fn, item, spec) -> _Child:
        return self._start(lambda: _attempt_body(fn, item, spec))

    def _wait(self, handle: _Child, timeout: Optional[float]):
        payload = self._collect(handle, timeout)
        if not payload:
            raise _Unsent(f"worker process {handle.pid} exited without a result")
        return _decode(payload)

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        reason = self._serial_reason(fn)
        if reason is not None:
            self._note_fallback(reason)
            return [fn(item) for item in items]
        size = -(-len(items) // (self.workers * SLICES_PER_WORKER))
        starts = range(0, len(items), size)
        since = self._submitted
        try:
            children = [
                self._start(lambda s=s: _slice_body(fn, items[s:s + size]))
                for s in starts
            ]
            results = []
            for start, child in zip(starts, children):
                try:
                    messages = pickle.loads(self._collect(child, None))
                except (EOFError, pickle.UnpicklingError):
                    messages = []  # it died mid-slice: rerun the rest below
                for position, item in enumerate(items[start:start + size]):
                    try:
                        if position >= len(messages):
                            raise _Unsent(
                                f"worker process {child.pid} sent no result "
                                f"for task {start + position}"
                            )
                        results.append(_decode(messages[position]))
                    except _Unsent as exc:
                        self._note_fallback(exc)
                        results.append(fn(item))
            return results
        finally:
            self._discard(since)

    def _map_supervised(self, fn, items, plan, stage):
        # Work that cannot reach a child degrades to the serial
        # backend's supervision (same retry/fault semantics, in-driver
        # execution) and records why.
        reason = self._serial_reason(fn)
        if reason is not None:
            self._note_fallback(reason)
            rescue = SerialExecutor(retry=self._retry)
            return rescue._map_supervised(fn, items, plan, stage)
        since = self._submitted
        try:
            return super()._map_supervised(fn, items, plan, stage)
        finally:
            self._discard(since)

    def close(self) -> None:
        self._discard(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        degraded = (
            f" degraded={self._last_fallback_error!r}"
            if self._last_fallback_error
            else ""
        )
        return f"<{type(self).__name__} workers={self.workers}{degraded}>"


_BACKENDS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: Singular spellings accepted in specs (``REPRO_EXECUTOR=process``)
#: but not advertised by :func:`executor_names`.
_BACKEND_ALIASES = {
    "thread": ThreadExecutor.name,
    "process": ProcessExecutor.name,
}

#: Environment variable consulted for the process-wide default backend.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

_default_executor: Optional[Executor] = None


def executor_names() -> List[str]:
    """The registered backend names, in definition order."""
    return list(_BACKENDS)


def resolve_executor(spec) -> Executor:
    """Turn a spec into an :class:`Executor`.

    Accepts an existing executor (returned as-is), ``None`` (the
    process default), or a string ``"<name>"`` / ``"<name>:<workers>"``.
    """
    if spec is None:
        return default_executor()
    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str):
        raise EngineError(f"not an executor spec: {spec!r}")
    name, _, workers = spec.partition(":")
    name = name.strip()
    backend = _BACKENDS.get(_BACKEND_ALIASES.get(name, name))
    if backend is None:
        known = ", ".join(executor_names())
        raise EngineError(f"unknown executor {name!r}; known: {known}")
    if workers:
        try:
            count = int(workers)
        except ValueError:
            raise EngineError(f"bad worker count in executor spec {spec!r}")
        return backend(max_workers=count)
    return backend()


def default_executor() -> Executor:
    """The process-wide default backend (``REPRO_EXECUTOR`` or serial)."""
    global _default_executor
    if _default_executor is None:
        spec = os.environ.get(EXECUTOR_ENV_VAR, SerialExecutor.name)
        _default_executor = resolve_executor(spec)
    return _default_executor


def set_default_executor(spec) -> Executor:
    """Install the default backend for callers that name none."""
    global _default_executor
    _default_executor = resolve_executor(spec)
    return _default_executor


@atexit.register
def _close_default_executor() -> None:
    # A thread-pool default must shut down before the interpreter
    # tears down module globals, and a process default may still own
    # children to reap.
    global _default_executor
    if _default_executor is not None:
        _default_executor.close()
        _default_executor = None
