"""Instrumentation: timers, pass counters, perf counters, and memory.

Table 5 (runtime) and Figure 5 (memory) both need honest, repeatable
measurement.  :class:`StageTimer` collects wall-clock per named stage;
:func:`deep_size_bytes` estimates the resident size of nested Python
structures (with cycle protection and shared-object deduplication).

:class:`Counters` is the engine's lightweight event-counter registry
(the module-level :data:`counters` singleton); :func:`perf_counters`
additionally gathers the optimisation-layer statistics — type-intern
hits, similarity-cache hits, counted-merge distinct ratios — that the
``bench_perf_core`` benchmark reports into ``BENCH_PR1.json``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.engine.faults import stage_scope


class Counters:
    """A mergeable bag of named numeric counters.

    Thread-safe: the engine starts no threads, but a library caller
    may run discoveries from several threads of one process, which
    all tick the one :data:`counters` registry, so the
    read-modify-write in :meth:`add` takes a lock.  A forked child
    gets a fresh lock, since another thread of the driver may hold the
    inherited one and no thread of the child will ever release it.  Callers keep counters
    cheap by accumulating locally and adding once per logical
    operation, not once per event.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}
        self._lock = threading.Lock()
        _ALL_COUNTERS.add(self)

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self._values[name] = value

    def get(self, name: str, default: float = 0) -> float:
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{name}={value}" for name, value in sorted(self._values.items())
        )
        return f"<Counters {body}>"


#: Every live :class:`Counters`, for the fork hook below.
_ALL_COUNTERS: "weakref.WeakSet[Counters]" = weakref.WeakSet()


def _renew_locks_in_child() -> None:
    for instance in _ALL_COUNTERS:
        instance._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_locks_in_child)

#: Process-wide engine counters (executor fallbacks, merge ratios, ...).
counters = Counters()


def perf_counters() -> Dict[str, float]:
    """One flat snapshot of every performance counter in the system.

    Combines the engine's :data:`counters` with the jsontypes layer's
    interning and similarity-cache statistics (imported lazily to keep
    this module dependency-free at import time).
    """
    snapshot = counters.snapshot()
    from repro.jsontypes.similarity import similarity_cache_stats
    from repro.jsontypes.types import intern_stats

    # Added (not assigned): process-pool shard workers flush their own
    # intern/similarity deltas into ``counters`` under these same keys
    # on shard completion, and the driver's local cache stats must not
    # clobber them.
    for name, value in intern_stats().items():
        key = f"intern.{name}"
        snapshot[key] = snapshot.get(key, 0) + value
    for name, value in similarity_cache_stats().items():
        key = f"similarity.{name}"
        snapshot[key] = snapshot.get(key, 0) + value
    return snapshot


def reset_perf_counters() -> None:
    """Zero the engine counters and the jsontypes-layer caches' stats."""
    counters.reset()
    from repro.jsontypes.similarity import reset_similarity_cache_stats
    from repro.jsontypes.types import reset_intern_stats

    reset_intern_stats()
    reset_similarity_cache_stats()


class StageTimer:
    """Accumulates wall-clock time per named pipeline stage.

    Entering a stage also labels the thread via
    :func:`repro.engine.faults.stage_scope`, so every timed stage name
    doubles as a fault-injection target for the chaos suite.
    """

    def __init__(self) -> None:
        self._elapsed: "OrderedDict[str, float]" = OrderedDict()
        self._counts: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            with stage_scope(name):
                yield
        finally:
            duration = time.perf_counter() - start
            self._elapsed[name] = self._elapsed.get(name, 0.0) + duration
            self._counts[name] = self._counts.get(name, 0) + 1

    def seconds(self, name: str) -> float:
        return self._elapsed.get(name, 0.0)

    def milliseconds(self, name: str) -> float:
        return 1000.0 * self.seconds(name)

    @property
    def total_seconds(self) -> float:
        return sum(self._elapsed.values())

    @property
    def total_milliseconds(self) -> float:
        return 1000.0 * self.total_seconds

    def rows(self) -> List[Tuple[str, float, int]]:
        """(stage, milliseconds, invocation count) per stage, in order."""
        return [
            (name, 1000.0 * elapsed, self._counts[name])
            for name, elapsed in self._elapsed.items()
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{name}={1000.0 * elapsed:.1f}ms"
            for name, elapsed in self._elapsed.items()
        )
        return f"<StageTimer {body}>"


def deep_size_bytes(obj: object) -> int:
    """Approximate recursive ``sys.getsizeof`` with sharing awareness.

    Each distinct object (by identity) is counted once, so aliased
    substructures — interned strings, shared tuples — do not inflate
    the estimate.
    """
    seen: set = set()
    stack: List[object] = [obj]
    total = 0
    while stack:
        current = stack.pop()
        identity = id(current)
        if identity in seen:
            continue
        seen.add(identity)
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif hasattr(current, "__dict__"):
            stack.append(current.__dict__)
        elif hasattr(current, "__slots__"):
            for slot in current.__slots__:
                if hasattr(current, slot):
                    stack.append(getattr(current, slot))
    return total
