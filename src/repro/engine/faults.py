"""Deterministic fault injection for chaos testing.

A production discovery service must survive worker crashes, hangs, and
corrupted partial results without changing its output.  This module
provides the controlled way to *cause* those failures so the test
suite can prove that claim:

* :class:`FaultSpec` — one fault: raise / delay / corrupt on the Nth
  task of a named stage, for the first ``times`` attempts of that
  task;
* :class:`FaultPlan` — an immutable set of specs, installable
  programmatically (:func:`install_fault_plan`) or via the
  ``REPRO_FAULTS`` environment variable;
* :func:`stage_scope` / :func:`current_stage` — the ambient stage
  label.  :class:`~repro.engine.instrument.StageTimer` enters a scope
  for every timed stage, so stage names are fault-injection targets
  for free.  The one stage that runs executor tasks is
  ``"shard-discover"``, the shard workers of a sharded run.

The executor consults the active plan once per task *attempt* in the
driver (where the injection counters tick), then executes the fault in
the worker via :func:`run_with_fault` — so a ``raise`` genuinely
crashes a worker process and a ``delay`` genuinely makes one hang
past its deadline.  Matching is a pure function of ``(stage, task
index, attempt)``: no wall clock, no shared mutable state, which is
what makes chaos runs reproducible across the serial and process
backends.

``REPRO_FAULTS`` grammar (comma-separated specs)::

    stage:index:kind[:times[:delay_seconds]]

    REPRO_FAULTS="shard-discover:1:raise,shard-discover:0:delay:1:0.5"

A stage of ``*`` matches every stage.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.records import FrozenRecord

#: Environment variable holding a fault-plan spec string.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The recognised fault kinds.
FAULT_KINDS = ("raise", "delay", "corrupt")

#: Default sleep for ``delay`` faults when the spec does not give one.
DEFAULT_DELAY_SECONDS = 0.05


class FaultError(ReproError, ValueError):
    """A fault plan was malformed."""


class InjectedFault(ReproError, RuntimeError):
    """The failure raised by a ``raise`` fault (a simulated crash)."""


class CorruptResult(FrozenRecord):
    """Wrapper a ``corrupt`` fault puts around a task's real result.

    The executor's integrity check treats it like a task failure, so
    retries scrub corruption exactly as they scrub crashes.
    """

    __slots__ = ("original",)

    def __init__(self, original: object) -> None:
        self._init(original)


class FaultSpec(FrozenRecord):
    """One injectable fault, addressed by stage / task / attempt."""

    __slots__ = ("stage", "task_index", "kind", "times", "delay")

    def __init__(
        self,
        #: Stage label to match (``"*"`` matches any stage).
        stage: str,
        #: Task index within a single ``map_list`` call.
        task_index: int,
        #: One of :data:`FAULT_KINDS`.
        kind: str,
        #: Fire on the first ``times`` attempts of the task, then stand
        #: down (so a retry succeeds deterministically).
        times: int = 1,
        #: Sleep duration for ``delay`` faults.
        delay: float = DEFAULT_DELAY_SECONDS,
    ) -> None:
        self._init(stage, task_index, kind, times, delay)
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise FaultError(f"unknown fault kind {self.kind!r}; known: {known}")
        if self.task_index < 0:
            raise FaultError("task_index must be >= 0")
        if self.times <= 0:
            raise FaultError("times must be positive")
        if self.delay < 0:
            raise FaultError("delay must be >= 0")

    def matches(self, stage: Optional[str], task_index: int, attempt: int) -> bool:
        if self.stage != "*" and self.stage != stage:
            return False
        return self.task_index == task_index and attempt < self.times

    def describe(self) -> str:
        extra = f" delay={self.delay}s" if self.kind == "delay" else ""
        return (
            f"{self.kind}@{self.stage}[{self.task_index}]"
            f" times={self.times}{extra}"
        )


class FaultPlan(FrozenRecord):
    """An immutable collection of :class:`FaultSpec`\\ s."""

    __slots__ = ("faults",)

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        self._init(tuple(faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def targets_stage(self, stage: Optional[str]) -> bool:
        """Whether any fault could fire in ``stage``."""
        return any(
            spec.stage == "*" or spec.stage == stage for spec in self.faults
        )

    def match(
        self, stage: Optional[str], task_index: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The first spec that fires for this task attempt, if any."""
        for spec in self.faults:
            if spec.matches(stage, task_index, attempt):
                return spec
        return None

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self.faults) or "(empty)"

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 3:
                raise FaultError(
                    f"bad fault spec {chunk!r}; expected "
                    "stage:index:kind[:times[:delay]]"
                )
            stage, index_text, kind = parts[0], parts[1], parts[2]
            try:
                task_index = int(index_text)
                times = int(parts[3]) if len(parts) > 3 else 1
                delay = (
                    float(parts[4])
                    if len(parts) > 4
                    else DEFAULT_DELAY_SECONDS
                )
            except ValueError as exc:
                raise FaultError(f"bad fault spec {chunk!r}: {exc}") from exc
            specs.append(
                FaultSpec(
                    stage=stage,
                    task_index=task_index,
                    kind=kind,
                    times=times,
                    delay=delay,
                )
            )
        return cls(tuple(specs))

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or None when unset."""
        text = (environ or os.environ).get(FAULTS_ENV_VAR, "").strip()
        if not text:
            return None
        return cls.parse(text)


# -- ambient stage label ------------------------------------------------------

_stage_state = threading.local()


@contextmanager
def stage_scope(name: str) -> Iterator[None]:
    """Label the current (driver-side) thread as running stage ``name``."""
    previous = getattr(_stage_state, "stage", None)
    _stage_state.stage = name
    try:
        yield
    finally:
        _stage_state.stage = previous


def current_stage() -> Optional[str]:
    """The innermost stage label on this thread, if any."""
    return getattr(_stage_state, "stage", None)


# -- plan installation --------------------------------------------------------

_installed_plan: Optional[FaultPlan] = None
_env_cache: Optional[Tuple[str, FaultPlan]] = None


def install_fault_plan(plan) -> FaultPlan:
    """Install ``plan`` (a :class:`FaultPlan` or spec string) globally."""
    global _installed_plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if not isinstance(plan, FaultPlan):
        raise FaultError(f"not a fault plan: {plan!r}")
    _installed_plan = plan
    return plan


def clear_fault_plan() -> None:
    """Remove any installed plan (``REPRO_FAULTS`` stays authoritative)."""
    global _installed_plan
    _installed_plan = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, else the (cached) ``REPRO_FAULTS`` plan."""
    global _env_cache
    if _installed_plan is not None:
        return _installed_plan
    text = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if not text:
        return None
    if _env_cache is None or _env_cache[0] != text:
        _env_cache = (text, FaultPlan.parse(text))
    return _env_cache[1]


# -- execution ---------------------------------------------------------------
#
# Module-level and driven purely by picklable arguments so the process
# backend can ship faulted tasks to its workers.

def run_with_fault(fn, item, spec: Optional[FaultSpec]):
    """Run ``fn(item)``, executing ``spec`` first when one fired.

    ``raise`` faults crash before the task body runs; ``delay`` faults
    sleep first (so a pooled deadline expires), then run the task;
    ``corrupt`` faults run the task and wrap its result in
    :class:`CorruptResult` for the driver's integrity check to catch.
    """
    if spec is None:
        return fn(item)
    if spec.kind == "raise":
        raise InjectedFault(
            f"injected crash: {spec.describe()}"
        )
    if spec.kind == "delay":
        time.sleep(spec.delay)
        return fn(item)
    result = fn(item)
    return CorruptResult(result)
