"""Spans and the traced replays of each workload.

A traced operation replays what ``jxplain discover`` does for its
workload through the program's public calls, in the order the CLI
makes them, with a span around each call into a layer.  The program
itself is not edited: spans are recorded here, around the calls, and
the two calls that only happen inside ``state.synthesize()`` (pass ①
``decide_collections`` and pass ② ``build_partitioners``) are wrapped
for the duration of that one call.

A span is ``{id, name, parent, run, pid, start, end}``; spans of one
operation share ``run``.  Times are ``time.perf_counter()`` values,
which on Linux read the system-wide monotonic clock, so spans made in
shard worker processes line up with the driver's.  Spans stay in
memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from repro.discovery import (
    DiscoveryState,
    make_discoverer,
    state_for_algorithm,
)
from repro.discovery.tagged_unions import (
    extract_tagged_unions,
    tagged_union_json_schema,
)
from repro.engine.executor import ProcessExecutor
from repro.engine.instrument import StageTimer, perf_counters
from repro.engine.sharding import ShardCoordinator, ShardResult
from repro.io.fastpath import read_jsonlines_typed
from repro.io.jsonlines import IngestReport, ingest_jsonlines
from repro.jsontypes.types import type_of
from repro.schema import annotate_json_schema, to_json_schema

#: ``ShardCoordinator.run`` stage names and the spans they become.
STAGE_SPANS = {
    "shard-plan": "engine.shard_plan",
    "shard-discover": "engine.shard_discover",
    "shard-merge": "engine.shard_merge",
}


class Tracer:
    """Collects the spans of one operation, in memory."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list = []
        self._open: list = []

    @property
    def current(self):
        """The id of the innermost open span, or ``None``."""
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self.current,
            "run": self.run,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a shard worker) under
        ``parent``, renumbering them to stay unique."""
        offset = len(self.spans)
        for record in spans:
            record = dict(record, id=record["id"] + offset, run=self.run)
            record["parent"] = (
                parent if record["parent"] is None
                else record["parent"] + offset
            )
            self.spans.append(record)


def self_times(spans: list) -> dict:
    """Seconds per span name, each span minus its same-process children.

    Worker spans hang under the driver's ``engine.shard_discover`` span
    but run beside it, so only children from the span's own process
    are subtracted.
    """
    by_id = {record["id"]: record for record in spans}
    totals: dict = {}
    for record in spans:
        duration = record["end"] - record["start"]
        totals[record["name"]] = totals.get(record["name"], 0.0) + duration
        parent = by_id.get(record["parent"])
        if parent is not None and parent["pid"] == record["pid"]:
            totals[parent["name"]] = totals.get(parent["name"], 0.0) - duration
    return totals


@contextmanager
def traced_attr(tracer: Tracer, owner, attr: str, name: str):
    """Wrap ``owner.attr`` in a span for the duration of the block."""
    stored = vars(owner)[attr]  # a classmethod is restored as one
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, stored)


def counter_delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


class SpanTimer(StageTimer):
    """A ``StageTimer`` whose stages are also spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    @contextmanager
    def stage(self, name: str):
        with self.tracer.span(STAGE_SPANS.get(name, name)):
            with super().stage(name):
                yield


def traced_shard(task) -> ShardResult:
    """One enriched shard, as the coordinator's worker runs it, with
    spans around the reader, the structural absorb, the sketch
    observation and the partial's encoding.

    ``state.absorb_typed(tau, value)`` is ``absorb_type(tau)`` then
    ``enrichment.observe(value)``; running the two halves as separate
    loops over the same records in the same order gives the same state.
    """
    tracer = Tracer(run=task.index)
    before = perf_counters()
    report = IngestReport(path=task.path, policy=task.on_bad_record)
    state = state_for_algorithm(task.algorithm, task.config, enrich=task.enrich)
    with tracer.span("engine.shard_task"):
        with tracer.span("io.read"):
            pairs = list(
                read_jsonlines_typed(
                    task.path,
                    on_bad_record=task.on_bad_record,
                    report=report,
                    start=task.start,
                    end=task.end,
                )
            )
        with tracer.span("discovery.absorb"):
            for tau, _ in pairs:
                state.absorb_type(tau)
        with tracer.span("sketches.observe"):
            observe = state.enrichment.observe
            for _, value in pairs:
                observe(value)
        with tracer.span("codec.encode"):
            state_bytes = state.to_bytes()
    result = ShardResult(
        index=task.index,
        state_bytes=state_bytes,
        report=report,
        counter_deltas=counter_delta(before, perf_counters()),
        worker_pid=os.getpid(),
    )
    result.spans = tracer.spans
    return result


class TracedCoordinator(ShardCoordinator):
    """Dispatches :func:`traced_shard` instead of the stock worker body
    and adopts the spans each shard brings back."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def map_shards(self, fn, tasks):
        results = self.executor.map_list(traced_shard, tasks)
        for result in results:
            self.tracer.adopt(result.__dict__.pop("spans"), self.tracer.current)
        return results


def synthesize(tracer: Tracer, state):
    """``state.synthesize()`` with passes ① and ② as child spans; the
    span's self time is the rest: tuple shapes and the pass ③ fold."""
    import repro.discovery.pipeline as pipeline
    import repro.discovery.stat_tree as stat_tree

    with traced_attr(tracer, stat_tree, "decide_collections", "synth.pass1"):
        with traced_attr(
            tracer, pipeline, "build_partitioners", "synth.pass2"
        ):
            with tracer.span("synth.pass3"):
                return state.synthesize()


def render(tracer: Tracer, schema, output: str, state=None) -> None:
    """The CLI's ``--format json --output`` step."""
    with tracer.span("schema.render"):
        document = to_json_schema(schema)
        enrichment = getattr(state, "enrichment", None)
        if enrichment is not None:
            document = annotate_json_schema(document, enrichment)
            if enrichment.options.unions:
                with tracer.span("tagged_unions.extract"):
                    decisions = extract_tagged_unions(state)
                if decisions:
                    document["x-repro-tagged-union"] = {
                        "key": decisions[0].key,
                        "schema": tagged_union_json_schema(decisions[0]),
                    }
        text = json.dumps(document, indent=2, sort_keys=True)
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def replay_classic(tracer: Tracer, corpus: str, output: str) -> dict:
    """``discover corpus``: classic reader, driver-side merger."""
    with tracer.span("io.read"):
        records, _ = ingest_jsonlines(corpus, on_bad_record="raise")
    with tracer.span("jsontypes.type_of"):
        types = [type_of(value) for value in records]
    with tracer.span("discovery.merge_types"):
        schema = make_discoverer("bimax-merge").merge_types(types)
    render(tracer, schema, output)
    return {"distinct_types": len(set(types))}


def replay_sharded(
    tracer: Tracer, corpus: str, output: str, shards: int, workers: int,
    enrich: str,
) -> dict:
    """``discover corpus --ingest fused --enrich E --shards N --workers W``."""
    executor = ProcessExecutor(max_workers=workers)
    try:
        coordinator = TracedCoordinator(
            tracer,
            "bimax-merge",
            None,
            executor=executor,
            shards=shards,
            on_bad_record="raise",
            ingest="fused",
            enrich=enrich,
        )
        # The merge stage decodes each shard's partial state.
        with traced_attr(tracer, DiscoveryState, "from_bytes", "codec.decode"):
            run = coordinator.run(corpus, timer=SpanTimer(tracer))
    finally:
        executor.close()
    schema = synthesize(tracer, run.state)
    render(tracer, schema, output, run.state)
    return {
        "distinct_types": run.state.distinct_count,
        "partial_kb": run.partial_bytes / 1024,
    }
