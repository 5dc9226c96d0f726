"""A small partitioned dataflow substrate (the paper's Spark stand-in).

The paper implements both extractors on Apache Spark; what the
algorithms actually require from Spark is narrow:

* partitioned record storage with ``map`` / ``filter`` / sampling;
* associative fan-in aggregation (``aggregate`` / ``treeAggregate``)
  for single-pass statistics and for K-reduction's fold;
* a way to count passes over the data, since JXPLAIN's whole overhead
  story (Table 5) is "it takes extra passes".

:class:`LocalDataset` provides exactly that surface over in-memory
partitions.  Every full traversal increments ``scans``, so tests and
benchmarks can assert pass counts (K-reduce: 1 pass; staged JXPLAIN:
3 passes, per Figure 3).

Per-partition work is dispatched through a pluggable
:class:`~repro.engine.executor.Executor` (serial, thread pool, or
process pool), which every derived dataset inherits.  Scan counting is
executor-independent: the counter ticks once per traversal in the
driver, never in workers, so pass counts stay exact under any backend.
Partition lists are treated as immutable throughout — transformations
build fresh lists and never mutate their input — which is what lets
:meth:`union` share them and workers read them without copies.

Datasets hold in-memory records (:meth:`LocalDataset.from_records`)
and serve the §4.2 Figure 3 reproduction
(``JxplainPipeline.run``).  Files never become datasets: they enter
discovery through :func:`repro.io.fastpath.absorb_file`, sharded or
not (:mod:`repro.engine.sharding`).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Generic, Iterable, Iterator, List, Optional, TypeVar

from repro.engine.executor import Executor, resolve_executor
from repro.errors import EngineError

T = TypeVar("T")
U = TypeVar("U")

#: Default number of partitions for new datasets.
DEFAULT_PARTITIONS = 4

#: Floor on records per partition when partitioning adaptively
#: (``num_partitions=None``).  Below this, per-task dispatch overhead
#: (pickling, queue hops) dominates the work a partition carries.
MIN_RECORDS_PER_PARTITION = 1024


def adaptive_partitions(record_count: int, workers: int) -> int:
    """Partition count balancing parallelism against dispatch overhead.

    One partition per worker, but never so many that a partition falls
    under :data:`MIN_RECORDS_PER_PARTITION` records — small inputs
    collapse toward a single partition, where serial dispatch wins.
    This is opt-in (``num_partitions=None``): explicit counts, and the
    default of :data:`DEFAULT_PARTITIONS`, are respected verbatim
    because ``sample()`` results are a function of the partition
    layout.
    """
    if record_count <= 0:
        return 1
    by_size = max(1, record_count // MIN_RECORDS_PER_PARTITION)
    return max(1, min(max(1, workers), by_size))


# -- per-partition task bodies ------------------------------------------------
#
# Module-level so the process backend can pickle them (the wrapped user
# function still has to be picklable itself).

def _map_task(fn, partition):
    return [fn(item) for item in partition]


def _filter_task(predicate, partition):
    return [item for item in partition if predicate(item)]


def _flat_map_task(fn, partition):
    return [out for item in partition for out in fn(item)]


def _map_partitions_task(fn, partition):
    return fn(list(partition))


def _sample_task(fraction, seed, indexed_partition):
    index, partition = indexed_partition
    # One RNG per (seed, partition): sampling is a pure function of the
    # partition's identity, so the result is identical no matter which
    # worker runs it, or in what order.  (Knuth-style mix; Random()
    # itself only accepts scalar seeds.)
    rng = random.Random(seed * 2654435761 + index)
    return [item for item in partition if rng.random() < fraction]


def _fold_task(zero, seq_op, partition):
    acc = zero()
    for item in partition:
        acc = seq_op(acc, item)
    return acc


def _serialized_fold_task(zero, seq_op, dumps, partition):
    """Fold a partition, then serialize the accumulator in the worker.

    What crosses the executor boundary is the ``dumps`` byte payload —
    a versioned codec state — rather than a pickled live accumulator.
    """
    acc = zero()
    for item in partition:
        acc = seq_op(acc, item)
    return dumps(acc)


class LocalDataset(Generic[T]):
    """An immutable, partitioned, in-memory dataset."""

    def __init__(
        self,
        partitions: List[List[T]],
        *,
        executor: Optional[Executor] = None,
        _scan_counter: Optional[List[int]] = None,
    ):
        if not partitions:
            partitions = [[]]
        self._partitions = partitions
        self._executor = resolve_executor(executor)
        # The scan counter is shared across derived datasets so that a
        # whole pipeline's pass count accumulates in one place.
        self._scan_counter = _scan_counter if _scan_counter is not None else [0]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[T],
        num_partitions: Optional[int] = DEFAULT_PARTITIONS,
        *,
        executor: Optional[Executor] = None,
    ) -> "LocalDataset[T]":
        """Round-robin the records into ``num_partitions`` partitions.

        ``num_partitions=None`` sizes the layout adaptively from the
        record count and the executor's worker count (see
        :func:`adaptive_partitions`); note the resulting layout — and
        therefore ``sample()`` — then depends on both.
        """
        if num_partitions is None:
            records = list(records)
            num_partitions = adaptive_partitions(
                len(records), resolve_executor(executor).workers
            )
        if num_partitions <= 0:
            raise EngineError("num_partitions must be positive")
        partitions: List[List[T]] = [[] for _ in range(num_partitions)]
        for index, record in enumerate(records):
            partitions[index % num_partitions].append(record)
        return cls(partitions, executor=executor)

    def _derive(self, partitions: List[List[U]]) -> "LocalDataset[U]":
        return LocalDataset(
            partitions,
            executor=self._executor,
            _scan_counter=self._scan_counter,
        )

    @property
    def executor(self) -> Executor:
        """The backend this dataset's lineage runs on."""
        return self._executor

    def with_executor(self, executor) -> "LocalDataset[T]":
        """The same dataset (partitions, scan counter) on a new backend.

        ``executor`` may be an :class:`Executor` or a spec string such
        as ``"threads:4"``.
        """
        return LocalDataset(
            self._partitions,
            executor=resolve_executor(executor),
            _scan_counter=self._scan_counter,
        )

    def with_retry(self, retry) -> "LocalDataset[T]":
        """The same dataset on this backend with a
        :class:`~repro.engine.executor.RetryPolicy` installed (``None``
        removes supervision)."""
        return self.with_executor(self._executor.with_retry(retry))

    # -- introspection -------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def scans(self) -> int:
        """Number of full passes made over this dataset's lineage."""
        return self._scan_counter[0]

    def count(self) -> int:
        self._note_scan()
        return sum(len(partition) for partition in self._partitions)

    def collect(self) -> List[T]:
        self._note_scan()
        out: List[T] = []
        for partition in self._partitions:
            out.extend(partition)
        return out

    def is_empty(self) -> bool:
        return all(not partition for partition in self._partitions)

    def _note_scan(self) -> None:
        self._scan_counter[0] += 1

    def __iter__(self) -> Iterator[T]:
        for partition in self._partitions:
            yield from partition

    # -- transformations (eager, scan-counted) --------------------------------

    def map(self, fn: Callable[[T], U]) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(partial(_map_task, fn), self._partitions)
        )

    def filter(self, predicate: Callable[[T], bool]) -> "LocalDataset[T]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_filter_task, predicate), self._partitions
            )
        )

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_flat_map_task, fn), self._partitions
            )
        )

    def map_partitions(
        self, fn: Callable[[List[T]], List[U]]
    ) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_map_partitions_task, fn), self._partitions
            )
        )

    def union(self, other: "LocalDataset[T]") -> "LocalDataset[T]":
        # Partition lists are immutable by convention, so the union can
        # share them instead of deep-copying every partition.
        return self._derive(list(self._partitions) + list(other._partitions))

    def sample(self, fraction: float, seed: int = 0) -> "LocalDataset[T]":
        """Uniform Bernoulli sample, deterministic under ``seed``.

        Each partition derives its own RNG from ``(seed, partition
        index)``, so the sample is a pure function of the data layout —
        independent of the order (or parallelism) in which partitions
        are traversed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise EngineError("fraction must be within [0, 1]")
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_sample_task, fraction, seed),
                list(enumerate(self._partitions)),
            )
        )

    def repartition(self, num_partitions: int) -> "LocalDataset[T]":
        return LocalDataset.from_records(
            self.collect(), num_partitions, executor=self._executor
        )

    # -- aggregation -----------------------------------------------------------

    def _partials(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
    ) -> List[U]:
        """Fold every partition with ``seq_op``, fanned out over the
        executor."""
        return self._executor.map_list(
            partial(_fold_task, zero, seq_op), self._partitions
        )

    def aggregate(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Fold each partition with ``seq_op``, combine with ``comb_op``.

        ``zero`` is a factory so mutable accumulators are safe.
        """
        self._note_scan()
        partials = self._partials(zero, seq_op)
        result = zero()
        for partial_result in partials:
            result = comb_op(result, partial_result)
        return result

    def tree_aggregate(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Like :meth:`aggregate` but with pairwise (fan-in) combining.

        Exercises associativity the way a distributed reduction would:
        partial results are combined in a balanced binary tree rather
        than a left fold.
        """
        self._note_scan()
        partials = self._partials(zero, seq_op)
        if not partials:
            return zero()
        while len(partials) > 1:
            combined: List[U] = []
            for index in range(0, len(partials) - 1, 2):
                combined.append(comb_op(partials[index], partials[index + 1]))
            if len(partials) % 2:
                combined.append(partials[-1])
            partials = combined
        return partials[0]

    def tree_aggregate_serialized(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
        *,
        dumps: Callable[[U], bytes],
        loads: Callable[[bytes], U],
    ) -> U:
        """:meth:`tree_aggregate` with a serialized worker boundary.

        Each worker folds its partition and returns ``dumps(acc)`` —
        a byte payload — instead of the live accumulator; the driver
        decodes with ``loads`` and fans the partials in pairwise.  This
        is how a real distributed reduction moves state, and (unlike
        closures) the ``(zero, seq_op, dumps)`` task pickles, so the
        process backend genuinely ships work to other processes.

        A supervised backend that escalates a failed partition to
        ``skip`` yields ``None`` for it; such partials are dropped,
        mirroring :class:`~repro.engine.executor.Executor.map_list`'s
        skip semantics.
        """
        from repro.engine.instrument import counters

        self._note_scan()
        payloads = self._executor.map_list(
            partial(_serialized_fold_task, zero, seq_op, dumps),
            self._partitions,
        )
        payloads = [payload for payload in payloads if payload is not None]
        counters.add("state.partials", len(payloads))
        counters.add(
            "state.partial_bytes", sum(len(payload) for payload in payloads)
        )
        partials = [loads(payload) for payload in payloads]
        if not partials:
            return zero()
        while len(partials) > 1:
            combined: List[U] = []
            for index in range(0, len(partials) - 1, 2):
                combined.append(comb_op(partials[index], partials[index + 1]))
                counters.add("state.merges")
            if len(partials) % 2:
                combined.append(partials[-1])
            partials = combined
        return partials[0]

    def reduce(self, comb_op: Callable[[T, T], T]) -> T:
        """Pairwise reduction of a non-empty dataset."""
        items = self.collect()
        if not items:
            raise EngineError("cannot reduce an empty dataset")
        result = items[0]
        for item in items[1:]:
            result = comb_op(result, item)
        return result
