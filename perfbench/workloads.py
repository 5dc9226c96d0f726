"""The workloads: their inputs, their CLI operation, the second route
that checks each operation's output, and their traced replay.

Inputs are generated from the run's seed with
``benchmarks.corpus.write_corpus``; the program only ever sees the
generated files.  Every step here that runs program code (corpus
generation, the reference route) runs in a forked child through the
``fork`` callable the runner passes in, so the runner's own process
keeps the empty caches a fresh ``jxplain discover`` starts with.
"""

from __future__ import annotations

import hashlib
import os


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_corpus(path: str, dataset: str, records: int, seed: int) -> dict:
    from benchmarks.corpus import write_corpus

    return write_corpus(path, dataset, records, seed=seed)


class Workload:
    """One ``discover corpus --format json --output F [flags]`` per
    operation, checked against the schema bytes of a second route.

    ``layers`` names the per-layer metrics a traced run of this workload
    must fill; the others are reported as 0.  ``replay(tracer, corpus,
    output)`` is the traced replay of one operation.
    """

    def __init__(self, name, dataset, records, flags, reference_flags,
                 layers, replay):
        self.name = name
        self.dataset = dataset
        self.records = records
        self.flags = list(flags)
        self.reference_flags = list(reference_flags)
        self.layers = layers
        self._replay = replay

    def prepare(self, work: str, seed: int, fork) -> dict:
        """Write the corpus and the reference schema; returns the
        corpus description to record with the results."""
        self.work = work
        self.corpus = os.path.join(work, f"{self.dataset}.jsonl")
        info = fork(_write_corpus, self.corpus, self.dataset, self.records, seed)
        info["path"] = os.path.basename(self.corpus)
        info["sha256"] = sha256_of(self.corpus)
        self.input_bytes = info["bytes"]
        self.records_per_op = info["records"]
        reference = os.path.join(work, "reference.json")
        result = fork(timed_main, self._argv(reference, self.reference_flags))
        if result["rc"] != 0:
            raise RuntimeError(f"reference route failed: {result}")
        self.reference = read_bytes(reference)
        return info

    def _argv(self, output: str, flags) -> list:
        return ["discover", self.corpus, "--format", "json",
                "--output", output, *flags]

    def output(self, lane: str) -> str:
        return os.path.join(self.work, f"{lane}.json")

    def argv(self, lane: str) -> list:
        return self._argv(self.output(lane), self.flags)

    def produced(self, lane: str) -> bytes:
        return read_bytes(self.output(lane))

    def replay(self, tracer, lane: str) -> dict:
        return self._replay(tracer, self.corpus, self.output(lane))


def timed_main(argv: list) -> dict:
    """Call ``repro.cli.main(argv)`` and measure it (run in a child).

    CPU time counts this process and every worker it has reaped; the
    CLI closes its process pool before ``main`` returns.  Peak RSS is
    this process's plus the largest reaped worker's.
    """
    import resource
    import time
    import traceback

    from repro.cli import main

    def cpu(usage):
        return usage.ru_utime + usage.ru_stime

    cpu_start = cpu(resource.getrusage(resource.RUSAGE_SELF))
    error = None
    start = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu(own) - cpu_start + cpu(workers),
        "rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024,
    }


def _replay_classic(tracer, corpus, output):
    import tracing

    return tracing.replay_classic(tracer, corpus, output)


def _replay_sharded(tracer, corpus, output):
    import tracing

    return tracing.replay_sharded(
        tracer, corpus, output, shards=2, workers=2, enrich="sketches,unions"
    )


#: Why each workload exists is recorded in ``BENCHMARK.json``.  Sizes are
#: chosen so that one operation takes under a second on a 2-core host and
#: a run holds sixty or more operations.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "github",
            "github", 6000, (), ("--ingest", "fused"),
            (
                "io.read_s", "io.mb_per_s", "io.bad_records",
                "jsontypes.type_of_s", "jsontypes.intern_hit_ratio",
                "jsontypes.distinct_types",
                "discovery.merge_types_s", "entities.subset_tests",
                "entities.clusters_emitted", "similarity.hit_ratio",
                "schema.render_s",
            ),
            _replay_classic,
        ),
        Workload(
            "github-enriched-2w",
            "github", 2000,
            ("--ingest", "fused", "--enrich", "sketches,unions",
             "--shards", "2", "--workers", "2"),
            ("--ingest", "fused", "--enrich", "sketches,unions"),
            (
                "io.read_s", "io.mb_per_s", "io.bad_records",
                "jsontypes.intern_hit_ratio", "jsontypes.distinct_types",
                "discovery.absorb_s", "sketches.observe_s",
                "synth.pass1_s", "synth.pass2_s", "synth.pass3_s",
                "similarity.hit_ratio", "codec.decode_s", "codec.encode_s",
                "engine.shard_plan_s", "engine.shard_discover_s",
                "engine.shard_merge_s", "engine.partial_kb",
                "engine.retries", "tagged_unions.extract_s",
                "schema.render_s",
            ),
            _replay_sharded,
        ),
    )
}
