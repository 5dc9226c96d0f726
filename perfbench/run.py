"""Benchmark of ``jxplain discover`` on seeded corpora.

Run from the repository root::

    python3 perfbench/run.py --workload github --seed 1 --seconds 54 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in
``perfbench/workloads.py``.  The load is one closed-loop client: each
operation calls ``repro.cli.main(argv)`` in a child forked from this
process, waits for it, checks its output, and starts the next.  This
process imports the CLI once and never runs discovery itself, so every
operation starts with the empty intern and similarity caches a fresh
``jxplain discover`` process has, without paying interpreter start-up
(that is ``setup_s``).  Inputs and reference outputs are made before
the timed region, also in forked children.

``--trace 0`` prints the end-to-end metrics:

* ``records_per_s``: input records turned into a schema document per
  second of one operation, timed from the call into ``main`` until the
  schema is written, at the run's tail: the highest latency percentile
  with at least ten operations beyond it;
* ``cpu_s``: CPU seconds of one operation, driver plus reaped workers,
  at the same percentile;
* ``peak_rss_mb``: the driver's peak RSS plus the largest worker's
  (highest over the run);
* ``setup_s``: from interpreter start until ``repro.cli`` is imported,
  in fresh interpreters with a warm bytecode cache, sampled after every
  fourth operation (median).

The 2-core virtual machines this runs on slow down by up to 2x for
seconds to minutes at a time under their neighbours' load.  Over a run
of sixty or more operations the slow phases' ceiling moved least from
run to run, far less than the median or the fastest operation, so the
timed metrics are read at the tail; the median latency is printed
beside the result.

``--trace 1`` alternates untraced operations with traced replays of the
same operation (``perfbench/tracing.py``) and prints per-layer metrics:
each layer's self time per operation (median), counters from
``perf_counters()`` per operation, and ``trace.overhead_ms``, the
traced replay's median latency minus the untraced median.  Spans are
written to ``.perfbench_work/traces/``.

An operation fails if ``main`` returns non-zero, raises, or its output
differs from the second route's bytes (the fused reader for
``github``, the unsharded run for ``github-enriched-2w``).  The last
line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: One fresh interpreter is timed for ``setup_s`` after every this many
#: operations, so its samples spread over the run as the operations do.
SETUP_EVERY = 4

END_TO_END = {
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "io.read_s": "s", "io.mb_per_s": "MB/s", "io.shape_hit_ratio": "ratio",
    "io.bad_records": "count",
    "jsontypes.type_of_s": "s", "jsontypes.intern_hit_ratio": "ratio",
    "jsontypes.distinct_types": "count",
    "discovery.merge_types_s": "s", "entities.subset_tests": "count",
    "entities.clusters_emitted": "count",
    "discovery.absorb_s": "s",
    "sketches.observe_s": "s",
    "synth.pass1_s": "s", "synth.pass2_s": "s", "synth.pass3_s": "s",
    "similarity.hit_ratio": "ratio",
    "codec.decode_s": "s", "codec.encode_s": "s",
    "engine.shard_plan_s": "s", "engine.shard_discover_s": "s",
    "engine.shard_merge_s": "s", "engine.partial_kb": "KB",
    "engine.retries": "count",
    "tagged_unions.extract_s": "s",
    "schema.render_s": "s",
    "trace.overhead_ms": "ms",
}

#: Executor counters that ``engine.retries`` adds up.
RETRY_COUNTERS = (
    "executor.retries", "executor.timeouts", "executor.task_failures",
    "executor.serial_rescues", "executor.skipped_tasks",
    "executor.process_fallbacks",
)


def fork(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its JSON result.

    This process starts no threads, so forking it is safe.  The child's
    standard output goes to standard error, keeping the result line the
    last line of this process's standard output.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            os.dup2(2, 1)
            payload = json.dumps(fn(*args)).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            # Nothing may unwind into this process's own stack in the
            # child: every path ends in os._exit.
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"child for {fn.__name__} failed (status {status})")
    return json.loads(payload)


def attempt(fn, *args) -> dict:
    """``fork(fn, *args)``, or an error record if the child died."""
    try:
        return fork(fn, *args)
    except RuntimeError as exc:
        return {"rc": None, "error": str(exc)}


def setup_seconds() -> float:
    """Seconds from interpreter start until ``repro.cli`` is imported,
    in a fresh interpreter whose bytecode cache this process has
    written.  ``perf_counter`` reads the system-wide monotonic clock, so
    the child's reading and ours compare."""
    code = "import repro.cli, time; print(time.perf_counter())"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.split()[-1]) - start


def traced_op(workload, run: int) -> dict:
    """A traced replay of one operation (run in a child)."""
    from repro.engine.instrument import perf_counters
    from tracing import Tracer, counter_delta

    tracer = Tracer(run)
    before = perf_counters()
    start = time.perf_counter()
    with tracer.span("op"):
        extras = workload.replay(tracer, "trace")
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "spans": tracer.spans,
        "counters": counter_delta(before, perf_counters()),
        "extras": extras,
    }


def tail(values: list):
    """``(value, percentile)``: the highest nearest-rank percentile with
    at least ten samples beyond it (the maximum when there are ten or
    fewer samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    percentile = (100 * (n - 10)) // n
    rank = -(-percentile * n // 100)
    return ordered[rank - 1], percentile


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(workload, traced: list, untraced_wall: list) -> dict:
    """Per-layer metrics from the traced operations."""
    from tracing import self_times

    per_op = [self_times(op["spans"]) for op in traced]
    totals: dict = {}
    for op in traced:
        for name, value in op["counters"].items():
            totals[name] = totals.get(name, 0) + value

    def seconds(span: str) -> float:
        return statistics.median(times.get(span, 0.0) for times in per_op)

    def per_op_count(name: str) -> float:
        return statistics.median(op["counters"].get(name, 0) for op in traced)

    def extra(name: str) -> float:
        return statistics.median(op["extras"].get(name, 0) for op in traced)

    read_s = seconds("io.read")
    values = {
        name: seconds(name[:-2])
        for name, unit in PER_LAYER.items()
        if unit == "s"
    }
    values.update({
        "io.mb_per_s": ratio(workload.input_bytes / 2**20, read_s),
        "io.shape_hit_ratio": ratio(
            totals.get("ingest.shape_hits", 0),
            totals.get("ingest.shape_hits", 0)
            + totals.get("ingest.shape_misses", 0),
        ),
        "io.bad_records": per_op_count("ingest.bad_records"),
        "jsontypes.intern_hit_ratio": ratio(
            totals.get("intern.hits", 0),
            totals.get("intern.hits", 0) + totals.get("intern.misses", 0),
        ),
        "jsontypes.distinct_types": extra("distinct_types"),
        "entities.subset_tests": per_op_count("entities.subset_tests"),
        "entities.clusters_emitted": per_op_count("entities.clusters_emitted"),
        "similarity.hit_ratio": ratio(
            totals.get("similarity.similar_hits", 0)
            + totals.get("similarity.union_hits", 0),
            sum(
                totals.get(f"similarity.{name}", 0)
                for name in ("similar_hits", "similar_misses",
                             "union_hits", "union_misses")
            ),
        ),
        "engine.partial_kb": extra("partial_kb"),
        "engine.retries": sum(totals.get(name, 0) for name in RETRY_COUNTERS),
        "trace.overhead_ms": 1000 * (
            statistics.median(op["wall_s"] for op in traced)
            - statistics.median(untraced_wall)
        ),
    })
    return values


def unfilled(workload, traced: list, values: dict) -> list:
    """Applicable per-layer metrics the traced run did not observe."""
    seen_spans = {span["name"] for op in traced for span in op["spans"]}
    seen_counters = {name for op in traced for name in op["counters"]}
    missing = []
    for name in workload.layers:
        if PER_LAYER[name] == "s":
            ok = name[:-2] in seen_spans
        elif name == "io.bad_records":
            ok = True  # zero is a count; every reader flushes it
        elif name == "engine.retries":
            ok = "sharding.runs" in seen_counters
        elif name in ("entities.subset_tests", "entities.clusters_emitted"):
            ok = name in seen_counters
        else:
            ok = values[name] > 0
        if not ok:
            missing.append(name)
    return missing


def run(args) -> dict:
    from workloads import WORKLOADS, timed_main

    workload = WORKLOADS[args.workload]
    if args.trace:
        import tracing  # noqa: F401  (imported before the traced forks)
    work = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        corpus = workload.prepare(work, args.seed, fork)
        print("corpus", json.dumps(corpus, sort_keys=True))
        ops: list = []
        setup: list = []
        traced: list = []
        failures = traced_attempts = 0
        deadline = time.perf_counter() + args.seconds
        while not ops or time.perf_counter() < deadline:
            result = attempt(timed_main, workload.argv("e2e"))
            if (result["rc"] != 0
                    or workload.produced("e2e") != workload.reference):
                failures += 1
                print("failed operation", json.dumps(result), file=sys.stderr)
            ops.append(result)
            if args.trace:
                result = attempt(traced_op, workload, traced_attempts)
                traced_attempts += 1
                if "spans" not in result or (
                    workload.produced("trace") != workload.produced("e2e")
                ):
                    failures += 1
                    print("traced replay differs from the CLI's bytes",
                          file=sys.stderr)
                else:
                    traced.append(result)
            elif len(ops) % SETUP_EVERY == 1:
                setup.append(setup_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) + traced_attempts
    ops = [op for op in ops if "wall_s" in op]
    walls = [op["wall_s"] for op in ops]
    print("walls", " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"{workload.name}: {len(ops)} operations of "
          f"{workload.records_per_op} records", file=sys.stderr)
    if args.trace:
        values = layer_metrics(workload, traced, walls)
        units = PER_LAYER
        missing = unfilled(workload, traced, values)
        if missing:
            print("per-layer metrics not filled:", ", ".join(missing),
                  file=sys.stderr)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(
            WORK, "traces", f"{workload.name}-s{args.seed}.json"
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump([span for op in traced for span in op["spans"]], handle)
        print(f"{len(traced)} traced replays; tracing overhead "
              f"{values['trace.overhead_ms']:.1f} ms per operation; "
              f"spans in {os.path.relpath(trace_path, ROOT)}")
    else:
        missing = []
        wall, percentile = tail(walls)
        values = {
            "records_per_s": workload.records_per_op / wall,
            "cpu_s": tail([op["cpu_s"] for op in ops])[0],
            "peak_rss_mb": max(op["rss_mb"] for op in ops),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        print(f"latency p{percentile} of {len(walls)} operations "
              f"{1000 * wall:.1f} ms, median "
              f"{1000 * statistics.median(walls):.1f} ms; setup_s is the "
              f"median of {len(setup)} interpreter starts")
    return {
        "correct": failures == 0 and not missing,
        "attempted": attempted,
        "failed": failures,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/repro/cli.py", "benchmarks/corpus.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    # Bytecode is cached in the checkout, as an installed package's is:
    # only the first operation compiles what the CLI imports lazily.
    sys.dont_write_bytecode = False
    sys.path[:0] = [SRC, ROOT]
    import repro.cli  # noqa: F401  (imported once, before any fork)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
