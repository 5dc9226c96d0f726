"""Sharded multi-process discovery over byte-range shards of a file.

PR 4 made every discovery algorithm a fold into a serializable monoid
``DiscoveryState``; BENCH_PR1/PR6 showed the process backend still
losing on the end-to-end workload because the driver parsed the whole
file, pickled record lists to workers, and got live Python objects
back.  This module removes the driver from the data path entirely:

* **Planning** (:func:`plan_shards`) splits the input into
  newline-aligned byte ranges with one ``seek`` and one ``readline``
  per boundary, no records materialized.  Files that cannot be
  range-split (gzip, empty, not seekable) become one whole-file
  shard.
* **Per-shard discovery** (:func:`_run_shard`, the picklable worker
  body) runs in children forked from the driver by the process
  backend, so it starts with every module and cache the driver has
  loaded and imports no pool stack.  Each worker folds its
  own byte range into a fresh state with
  :func:`~repro.io.fastpath.absorb_file` — the same call an unsharded
  run makes in the coordinating process — and ships back the state's
  ``to_bytes()``: codec bytes, not a pickled object graph.
* **Tree-merge**: the driver decodes the partials and merges them in
  shard-index order with configurable fan-in.  Merge associativity is
  byte-exact (property-tested), so any fan-in yields bytes identical
  to a serial left fold — which in turn equals a plain serial scan,
  because shard ranges partition the file in order and
  ``CountedBag.merge`` preserves first-occurrence order.
* **Failure model**: shard tasks run under the executor's PR-3
  supervision (retry → serial rescue → skip), and stage names
  (``shard-plan`` / ``shard-discover`` / ``shard-merge``) are fault
  targets for the chaos suite.  With a ``checkpoint_dir``, each
  completed shard persists an atomic state file plus a report
  sidecar, guarded by a manifest binding them to the input and
  parameters; a killed run re-uses every completed shard's checkpoint
  and recomputes only the rest, byte-identical to an uninterrupted
  run.
* **The per-file loop** (:func:`absorb_files`) is how the CLI and
  ``JxplainPipeline.run_file`` absorb their inputs, sharded or not: a
  sharded run differs from an unsharded one only in which process
  calls ``absorb_file``.  It also owns the per-file shard checkpoint
  layout (:func:`_shard_checkpoint_dir`) and its cleanup
  (:func:`save_checkpoint`).

Counter accounting survives the process boundary: each worker
snapshots the engine counters and the jsontypes intern/similarity
statistics around its shard and ships the *deltas* home with the
result; the driver folds in deltas only from results produced by a
different process (same-process backends already mutated the shared
singleton).  ``counters.snapshot()`` and ``perf_counters()`` are
therefore accurate under every backend.

One documented asymmetry: within a shard, line numbers are relative
to the shard's byte range.  ``skip``/``collect`` reports are re-based
to exact whole-file line numbers by
:func:`repro.io.jsonlines.merge_ingest_reports`; a ``raise``-policy
error message, however, names the shard-relative line (its byte
offset is unavailable at raise time).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engine.executor import Executor, resolve_executor
from repro.engine.instrument import StageTimer, counters
from repro.errors import CheckpointError, EngineError

#: Default merge fan-in for the driver-side partial tree.
DEFAULT_MERGE_FANIN = 2

#: Floor on bytes per shard when sizing shard counts adaptively.
#: Below this, per-shard overhead (the partial's pickle back, its
#: decode and merge) dominates the range's fold work.
MIN_SHARD_BYTES = 1 << 18

#: Adaptive shard counts target this many shards per worker, so a
#: slow shard does not leave the other workers idle at the tail.
SHARDS_PER_WORKER = 2

#: Manifest file name inside a shard checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Version 2: manifests carry an ``enrich`` key and state files are
#: codec-version-2 bytes (enrichment-capable).
_MANIFEST_VERSION = 2


def default_shard_count(file_size: int, workers: int) -> int:
    """Adaptive shard count from the file size and the worker count.

    :data:`SHARDS_PER_WORKER` shards per worker for tail latency,
    but never so many that a shard falls under
    :data:`MIN_SHARD_BYTES` — small files collapse toward a single
    shard, where serial dispatch wins.
    """
    if file_size <= 0:
        return 1
    by_size = max(1, file_size // MIN_SHARD_BYTES)
    return max(1, min(max(1, workers) * SHARDS_PER_WORKER, by_size))


@dataclass(frozen=True)
class ShardPlan:
    """The byte-range decomposition of one input file."""

    path: str
    file_size: int
    #: ``(start, end)`` byte ranges in file order.  A single
    #: ``(0, None)`` range means the file could not be range-split
    #: (gzip, empty, unmappable) and is read whole by one shard.
    ranges: Tuple[Tuple[int, Optional[int]], ...]

    @property
    def shard_count(self) -> int:
        return len(self.ranges)

    @property
    def splittable(self) -> bool:
        return self.ranges != ((0, None),)


def plan_shards(path, shards: Optional[int], workers: int) -> ShardPlan:
    """Compute a :class:`ShardPlan` without reading any records.

    ``shards=None`` sizes the count adaptively via
    :func:`default_shard_count`.
    """
    from repro.io.fastpath import split_byte_ranges

    path = os.fspath(path)
    try:
        file_size = os.path.getsize(path)
    except OSError:
        file_size = 0
    if shards is None:
        shards = default_shard_count(file_size, workers)
    elif shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    ranges = split_byte_ranges(path, shards) if shards > 1 else None
    if shards == 1 or ranges is None:
        return ShardPlan(path=path, file_size=file_size, ranges=((0, None),))
    return ShardPlan(
        path=path, file_size=file_size, ranges=tuple(ranges)
    )


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order (picklable, as every executor task is)."""

    index: int
    path: str
    start: int
    end: Optional[int]
    algorithm: str
    config: Optional[object] = None
    on_bad_record: str = "raise"
    ingest: str = "fused"
    checkpoint_dir: Optional[str] = None
    #: Parsed :class:`~repro.discovery.sketches.EnrichmentOptions`
    #: (frozen, picklable) or ``None``.
    enrich: Optional[object] = None


@dataclass
class ShardResult:
    """One shard's outcome (picklable; sent back from the worker)."""

    index: int
    #: The shard's serialized ``DiscoveryState`` (codec bytes).
    state_bytes: bytes
    #: Shard-relative ingestion report (absolute byte offsets).
    report: object
    #: Counter deltas accumulated while running this shard, including
    #: ``intern.*`` / ``similarity.*`` cache statistics.
    counter_deltas: dict = field(default_factory=dict)
    #: PID of the process that produced the result; the driver flushes
    #: ``counter_deltas`` only when this differs from its own PID.
    worker_pid: int = 0
    #: Whether the result was loaded from a per-shard checkpoint.
    resumed: bool = False


def _perf_snapshot() -> dict:
    """Engine counters + intern/similarity cache stats, one flat dict."""
    from repro.jsontypes.similarity import similarity_cache_stats
    from repro.jsontypes.types import intern_stats

    snapshot = counters.snapshot()
    for name, value in intern_stats().items():
        snapshot[f"intern.{name}"] = snapshot.get(f"intern.{name}", 0) + value
    for name, value in similarity_cache_stats().items():
        key = f"similarity.{name}"
        snapshot[key] = snapshot.get(key, 0) + value
    return snapshot


def _snapshot_delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _shard_state_path(checkpoint_dir: str, index: int) -> str:
    return os.path.join(checkpoint_dir, f"shard-{index:05d}.state")


def _shard_report_path(checkpoint_dir: str, index: int) -> str:
    return os.path.join(checkpoint_dir, f"shard-{index:05d}.report.json")


def _report_to_json(report) -> dict:
    return {
        "path": report.path,
        "policy": report.policy,
        "total_lines": report.total_lines,
        "record_count": report.record_count,
        "bad_records": [
            {
                "line_number": bad.line_number,
                "byte_offset": bad.byte_offset,
                "error": bad.error,
                "payload": bad.payload,
            }
            for bad in report.bad_records
        ],
    }


def _report_from_json(payload: dict):
    from repro.io.jsonlines import BadRecord, IngestReport

    report = IngestReport(
        path=payload["path"],
        policy=payload["policy"],
        total_lines=payload["total_lines"],
        record_count=payload["record_count"],
    )
    report.bad_records = [
        BadRecord(
            line_number=bad["line_number"],
            byte_offset=bad["byte_offset"],
            error=bad["error"],
            payload=bad["payload"],
        )
        for bad in payload["bad_records"]
    ]
    return report


def _atomic_write(path: str, payload: bytes) -> None:
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
    os.replace(tmp_path, path)


def _load_shard_checkpoint(task: ShardTask) -> Optional[ShardResult]:
    """A completed shard's persisted result, or ``None``."""
    state_path = _shard_state_path(task.checkpoint_dir, task.index)
    report_path = _shard_report_path(task.checkpoint_dir, task.index)
    if not (os.path.exists(state_path) and os.path.exists(report_path)):
        return None
    with open(state_path, "rb") as handle:
        state_bytes = handle.read()
    with open(report_path, "r", encoding="utf-8") as handle:
        report = _report_from_json(json.load(handle))
    return ShardResult(
        index=task.index,
        state_bytes=state_bytes,
        report=report,
        worker_pid=os.getpid(),
        resumed=True,
    )


def _run_shard(task: ShardTask) -> ShardResult:
    """The worker body: one shard's range → serialized state partial.

    Module-level and argument-picklable, so the process backend ships
    it for real.  The range enters a fresh state through
    :func:`~repro.io.fastpath.absorb_file`, the same call an unsharded
    run makes in the coordinating process.
    """
    if task.checkpoint_dir is not None:
        cached = _load_shard_checkpoint(task)
        if cached is not None:
            counters.add("sharding.shards_resumed")
            cached.counter_deltas = {"sharding.shards_resumed": 1}
            return cached

    from repro.discovery.state import state_for_algorithm
    from repro.io.fastpath import absorb_file

    before = _perf_snapshot()
    state = state_for_algorithm(
        task.algorithm, task.config, enrich=task.enrich
    )
    report = absorb_file(
        state,
        task.path,
        ingest=task.ingest,
        on_bad_record=task.on_bad_record,
        start=task.start,
        end=task.end,
    )
    state_bytes = state.to_bytes()
    counters.add("sharding.shards_completed")
    deltas = _snapshot_delta(before, _perf_snapshot())
    result = ShardResult(
        index=task.index,
        state_bytes=state_bytes,
        report=report,
        counter_deltas=deltas,
        worker_pid=os.getpid(),
    )
    if task.checkpoint_dir is not None:
        _atomic_write(
            _shard_state_path(task.checkpoint_dir, task.index), state_bytes
        )
        _atomic_write(
            _shard_report_path(task.checkpoint_dir, task.index),
            json.dumps(_report_to_json(report), sort_keys=True).encode(
                "utf-8"
            ),
        )
    return result


@dataclass
class ShardRunResult:
    """Everything a sharded discovery run produced."""

    #: The merged :class:`~repro.discovery.state.DiscoveryState`.
    state: object
    #: Whole-file ingestion report (exact line numbers re-based from
    #: the per-shard reports).
    report: object
    plan: ShardPlan
    #: Shards whose results were loaded from per-shard checkpoints.
    resumed_shards: int = 0
    #: Shards dropped by a ``skip``-escalation supervision policy.
    skipped_shards: int = 0
    #: Total serialized partial payload shipped back to the driver.
    partial_bytes: int = 0

    @property
    def shard_count(self) -> int:
        return self.plan.shard_count


class ShardCoordinator:
    """Plans, dispatches, and merges a sharded discovery run.

    The coordinator owns no workers of its own: it fans shard tasks out
    through a PR-1 :class:`~repro.engine.executor.Executor` (any
    backend, including supervised ones), which is what gives sharded
    runs retry/rescue and fault-injection for free.
    """

    def __init__(
        self,
        algorithm: str,
        config=None,
        *,
        executor=None,
        shards: Optional[int] = None,
        merge_fanin: int = DEFAULT_MERGE_FANIN,
        on_bad_record: str = "raise",
        ingest: str = "fused",
        checkpoint_dir=None,
        enrich=None,
    ) -> None:
        from repro.discovery.sketches import parse_enrich_spec
        from repro.io.jsonlines import _check_ingest_mode, _check_policy

        _check_policy(on_bad_record)
        _check_ingest_mode(ingest)
        if merge_fanin < 2:
            raise EngineError(
                f"merge_fanin must be >= 2, got {merge_fanin}"
            )
        self.enrich = parse_enrich_spec(enrich)
        # Instantiating the empty state up front validates the
        # algorithm name and configuration before any fan-out.
        from repro.discovery.state import state_for_algorithm

        state_for_algorithm(algorithm, config, enrich=self.enrich)
        self.algorithm = algorithm
        self.config = config
        self.executor: Executor = resolve_executor(executor)
        self.shards = shards
        self.merge_fanin = merge_fanin
        self.on_bad_record = on_bad_record
        self.ingest = ingest
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )

    # -- fan-out ---------------------------------------------------------------

    def map_shards(self, fn, tasks: Sequence) -> List:
        """Dispatch shard tasks through the executor (fault target:
        the surrounding stage's name)."""
        return self.executor.map_list(fn, tasks)

    # -- checkpoint manifest ---------------------------------------------------

    def _manifest(self, plan: ShardPlan) -> dict:
        from repro.discovery.state import state_for_algorithm

        fingerprint = state_for_algorithm(
            self.algorithm, self.config, enrich=self.enrich
        ).to_bytes()
        return {
            "version": _MANIFEST_VERSION,
            "path": plan.path,
            "file_size": plan.file_size,
            "algorithm": self.algorithm,
            "on_bad_record": self.on_bad_record,
            "ingest": self.ingest,
            # Feature names only; sketch geometry is bound through
            # ``empty_state_hex`` (an enriched empty state serializes
            # its options).
            "enrich": self.enrich.spec() if self.enrich else None,
            "empty_state_hex": fingerprint.hex(),
            "ranges": [[start, end] for start, end in plan.ranges],
        }

    def _prepare_checkpoint_dir(self, plan: ShardPlan) -> None:
        """Create/validate the shard checkpoint directory.

        The manifest binds the per-shard files to this exact input and
        parameter set (including the shard ranges — resuming with a
        different shard count would silently mis-split the file), so a
        stale directory fails loudly instead of merging wrong shards.
        """
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        manifest_path = os.path.join(self.checkpoint_dir, MANIFEST_NAME)
        manifest = self._manifest(plan)
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if existing != manifest:
                raise CheckpointError(
                    f"shard checkpoint dir {self.checkpoint_dir!r} was "
                    "built for a different input or parameter set; "
                    "remove it (or point elsewhere) to start fresh"
                )
            return
        _atomic_write(
            manifest_path,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )

    # -- the run ---------------------------------------------------------------

    def run(self, path, *, timer: Optional[StageTimer] = None) -> ShardRunResult:
        """Discover ``path``'s schema state via sharded fan-out.

        Returns a :class:`ShardRunResult` whose ``state`` bytes equal
        a serial whole-file run's for every algorithm and fan-in.
        """
        timer = timer if timer is not None else StageTimer()
        with timer.stage("shard-plan"):
            plan = plan_shards(path, self.shards, self.executor.workers)
            if self.checkpoint_dir is not None:
                self._prepare_checkpoint_dir(plan)
            tasks = [
                ShardTask(
                    index=index,
                    path=plan.path,
                    start=start,
                    end=end,
                    algorithm=self.algorithm,
                    config=self.config,
                    on_bad_record=self.on_bad_record,
                    ingest=self.ingest,
                    checkpoint_dir=self.checkpoint_dir,
                    enrich=self.enrich,
                )
                for index, (start, end) in enumerate(plan.ranges)
            ]
        with timer.stage("shard-discover"):
            # Shard workers intern types into the module-level
            # hash-cons table by design (idempotent canonical values;
            # per-process tables in the process backend).
            results = self.map_shards(_run_shard, tasks)  # repro-lint: disable=R9
        with timer.stage("shard-merge"):
            run_result = self._merge_results(plan, results)
        counters.add("sharding.runs")
        counters.add("sharding.shards", plan.shard_count)
        return run_result

    def _merge_results(
        self, plan: ShardPlan, results: List[Optional[ShardResult]]
    ) -> ShardRunResult:
        from repro.discovery.state import DiscoveryState, state_for_algorithm
        from repro.io.jsonlines import merge_ingest_reports

        driver_pid = os.getpid()
        settled = [result for result in results if result is not None]
        skipped = len(results) - len(settled)
        if skipped:
            counters.add("sharding.skipped_shards", skipped)
        for result in settled:
            if result.worker_pid != driver_pid:
                # Same-process results (serial/thread backends, rescue
                # re-runs) already mutated the shared counters; only
                # true cross-process results carry unflushed deltas.
                for name, value in result.counter_deltas.items():
                    counters.add(name, value)
        partial_bytes = sum(len(result.state_bytes) for result in settled)
        counters.add("sharding.partial_bytes", partial_bytes)
        # Decode once, then tree-merge in shard-index order.  Merge is
        # byte-associative, so any fan-in produces the bytes of the
        # in-order left fold — i.e. of a serial scan of the file.
        level = [
            DiscoveryState.from_bytes(result.state_bytes)
            for result in sorted(settled, key=lambda result: result.index)
        ]
        while len(level) > 1:
            merged_level = []
            for start in range(0, len(level), self.merge_fanin):
                group = level[start:start + self.merge_fanin]
                acc = group[0]
                for state in group[1:]:
                    acc = acc.merge(state)
                    counters.add("sharding.merges")
                merged_level.append(acc)
            level = merged_level
        state = (
            level[0]
            if level
            else state_for_algorithm(
                self.algorithm, self.config, enrich=self.enrich
            )
        )
        report = merge_ingest_reports(
            [
                result.report
                for result in sorted(
                    settled, key=lambda result: result.index
                )
            ],
            path=plan.path,
            policy=self.on_bad_record,
        )
        return ShardRunResult(
            state=state,
            report=report,
            plan=plan,
            resumed_shards=sum(
                1 for result in settled if result.resumed
            ),
            skipped_shards=skipped,
            partial_bytes=partial_bytes,
        )


def discover_sharded(
    path,
    algorithm: str,
    config=None,
    *,
    executor=None,
    shards: Optional[int] = None,
    merge_fanin: int = DEFAULT_MERGE_FANIN,
    on_bad_record: str = "raise",
    ingest: str = "fused",
    checkpoint_dir=None,
    enrich=None,
    timer: Optional[StageTimer] = None,
) -> ShardRunResult:
    """One-call sharded discovery (see :class:`ShardCoordinator`)."""
    coordinator = ShardCoordinator(
        algorithm,
        config,
        executor=executor,
        shards=shards,
        merge_fanin=merge_fanin,
        on_bad_record=on_bad_record,
        ingest=ingest,
        checkpoint_dir=checkpoint_dir,
        enrich=enrich,
    )
    return coordinator.run(path, timer=timer)


def _shard_checkpoint_dir(checkpoint, path) -> str:
    """Where a run checkpointed at ``checkpoint`` keeps ``path``'s
    per-shard checkpoints.

    Keyed by a digest of the file path: the shard manifest validates
    the full parameter set, so the name only has to be distinct per
    file.
    """
    digest = hashlib.sha256(os.fspath(path).encode("utf-8")).hexdigest()[:16]
    return os.path.join(f"{os.fspath(checkpoint)}.shards", digest)


def absorb_files(
    state,
    paths: Sequence,
    *,
    ingest: str,
    on_bad_record: str,
    shards=None,
    executor=None,
    merge_fanin: Optional[int] = None,
    checkpoint=None,
    timer: Optional[StageTimer] = None,
):
    """Absorb ``paths`` into ``state`` in order: ``(state, reports)``.

    With ``shards=None`` each file is one
    :func:`~repro.io.fastpath.absorb_file` call in this process.
    Otherwise (``"auto"`` or a count) each file is one
    :class:`ShardCoordinator` run, whose workers make the same call
    over byte ranges, and its merged partial is merged into ``state``;
    file order is merge order, so the bytes equal an unsharded run's.
    The state may be replaced by the merge, so use the returned one.

    With a ``checkpoint`` path, a sharded file keeps its per-shard
    checkpoints in :func:`_shard_checkpoint_dir`, so a killed run
    resumes from its completed shards; :func:`save_checkpoint`
    removes them once the merged state is saved.
    """
    from repro.io.fastpath import absorb_file

    timer = timer if timer is not None else StageTimer()
    reports = []
    for path in paths:
        if shards is None:
            with timer.stage("absorb"):
                reports.append(
                    absorb_file(
                        state,
                        path,
                        ingest=ingest,
                        on_bad_record=on_bad_record,
                    )
                )
            continue
        coordinator = ShardCoordinator(
            state.algorithm,
            getattr(state, "config", None),
            executor=executor,
            shards=None if shards == "auto" else shards,
            merge_fanin=(
                DEFAULT_MERGE_FANIN if merge_fanin is None else merge_fanin
            ),
            on_bad_record=on_bad_record,
            ingest=ingest,
            checkpoint_dir=(
                None
                if checkpoint is None
                else _shard_checkpoint_dir(checkpoint, path)
            ),
            enrich=getattr(state.enrichment, "options", None),
        )
        run = coordinator.run(path, timer=timer)
        state = state.merge(run.state)
        reports.append(run.report)
    return state, reports


def save_checkpoint(state, checkpoint, paths: Sequence) -> None:
    """Save ``state`` to ``checkpoint``, then drop the per-shard
    checkpoints :func:`absorb_files` kept for ``paths`` (they only
    matter while a run can still be killed)."""
    from repro.discovery.state import save_state

    save_state(state, checkpoint)
    for path in paths:
        shutil.rmtree(
            _shard_checkpoint_dir(checkpoint, path), ignore_errors=True
        )
    try:
        os.rmdir(f"{os.fspath(checkpoint)}.shards")
    except OSError:
        pass
