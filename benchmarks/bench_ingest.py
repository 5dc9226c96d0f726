"""Fused vs. classic ingestion bench: bytes → interned types.

Two corpora (a small one where dispatch overheads dominate and a large
one where parsing does), each ingested twice into an identical
discovery state through :func:`repro.io.fastpath.absorb_file`: the
classic reader (bytes → str → value tree → type) and the fused reader
(bytes → interned type in one pass, with the structural-hash shape
cache in front).  State bytes are asserted
identical on every corpus — the speedup is only meaningful because the
answer is provably the same.

The small corpus is also pushed through ``JxplainPipeline.run_file``
sharded on every executor backend, fused vs. classic, asserting
byte-identical schemas — the end-to-end wiring check, and (on the
process backend) the scenario behind the BENCH_PR1
processes-slower-than-serial regression.

Results go machine-readably to ``BENCH_PR6.json`` at the repo root and
as text under ``benchmarks/results/``.  Scale with
``REPRO_BENCH_SCALE``.  Gates: fused serial ingestion must beat
classic by >= 1.5x on the large corpus at any scale (the CI smoke
gate), and by >= 2x at full scale.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from benchmarks.corpus import write_corpus
from repro.discovery import JxplainPipeline
from repro.discovery.state import state_for_algorithm
from repro.engine.instrument import perf_counters
from repro.io.fastpath import absorb_file
from repro.jsontypes.tokenizer import line_token_count
from repro.schema import to_json_schema

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Corpus sizes (scaled).  The large corpus is where the 2x acceptance
#: gate lives; the small one shows the fast path is not a regression
#: when there is little repetition to exploit.
INGEST_SIZES = {"github-4k": 4000, "github-200k": 200000}

#: Executor backends for the end-to-end pipeline comparison.
PIPELINE_BACKENDS = ("serial", "processes:4")

#: Gate thresholds on the large corpus, serial ingestion.
SMOKE_SPEEDUP = 1.5
FULL_SCALE_SPEEDUP = 2.0
FULL_SCALE_RECORDS = 200000

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR6.json"


def _corpus_stats(path: Path) -> dict:
    total_bytes = path.stat().st_size
    tokens = 0
    with open(path, "rb") as handle:
        for line in handle:
            tokens += line_token_count(line.strip())
    return {"bytes": total_bytes, "tokens": tokens}


def _schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


def _bench_ingest(path: Path, records: int, stats: dict) -> dict:
    # Classic: parse values, type them, fold the types into a state.
    start = time.perf_counter()
    classic_state = state_for_algorithm("l-reduce", None)
    absorb_file(classic_state, path, ingest="classic", on_bad_record="raise")
    classic_s = time.perf_counter() - start

    # Fused: stream interned types straight into an identical state.
    before = perf_counters()
    start = time.perf_counter()
    fused_state = state_for_algorithm("l-reduce", None)
    absorb_file(fused_state, path, ingest="fused", on_bad_record="raise")
    fused_s = time.perf_counter() - start
    after = perf_counters()

    assert fused_state.to_bytes() == classic_state.to_bytes(), (
        f"{path.name}: fused state bytes diverged from classic"
    )
    hits, misses = (
        after.get(name, 0) - before.get(name, 0)
        for name in ("ingest.shape_hits", "ingest.shape_misses")
    )
    hit_rate = hits / max(1, hits + misses)
    return {
        "records": records,
        "bytes": stats["bytes"],
        "tokens": stats["tokens"],
        "classic_s": round(classic_s, 4),
        "fused_s": round(fused_s, 4),
        "classic_records_per_s": round(records / classic_s),
        "fused_records_per_s": round(records / fused_s),
        "classic_tokens_per_s": round(stats["tokens"] / classic_s),
        "fused_tokens_per_s": round(stats["tokens"] / fused_s),
        "shape_hit_rate": round(hit_rate, 4),
        "shape_misses": misses,
        "speedup": round(classic_s / fused_s, 2),
    }


def _bench_pipeline(path: Path) -> dict:
    backends = {}
    for backend in PIPELINE_BACKENDS:
        start = time.perf_counter()
        classic = JxplainPipeline(executor=backend, shards=2).run_file(path)
        classic_s = time.perf_counter() - start
        start = time.perf_counter()
        fused = JxplainPipeline(
            executor=backend, shards=2, ingest="fused"
        ).run_file(path)
        fused_s = time.perf_counter() - start
        assert _schema_bytes(fused.schema) == _schema_bytes(classic.schema), (
            f"{backend}: fused pipeline schema diverged from classic"
        )
        backends[backend] = {
            "classic_s": round(classic_s, 4),
            "fused_s": round(fused_s, 4),
            "speedup": round(classic_s / fused_s, 2),
        }
    return backends


def test_fused_ingestion():
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "corpora": {},
        "pipeline": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-ingest-") as tmp:
        workdir = Path(tmp)
        small_path = None
        for name, size in INGEST_SIZES.items():
            scaled = max(200, int(size * SCALE))
            path = workdir / f"{name}.jsonl"
            write_corpus(path, "github", scaled, seed=11)
            if small_path is None:
                small_path = path
            report["corpora"][name] = _bench_ingest(
                path, scaled, _corpus_stats(path)
            )
        report["pipeline"] = _bench_pipeline(small_path)

    large = report["corpora"]["github-200k"]
    full_scale = large["records"] >= FULL_SCALE_RECORDS
    gate = FULL_SCALE_SPEEDUP if full_scale else SMOKE_SPEEDUP
    report["acceptance"] = {
        "large_corpus_speedup": large["speedup"],
        "shape_hit_rate": large["shape_hit_rate"],
        "gate": gate,
        "full_scale": full_scale,
        "met": large["speedup"] >= gate,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        "corpus        records   classic_rec/s   fused_rec/s"
        "   fused_tok/s  hit_rate  speedup",
    ]
    for name, data in report["corpora"].items():
        lines.append(
            f"{name:<12} {data['records']:>8}"
            f"  {data['classic_records_per_s']:>14,}"
            f"  {data['fused_records_per_s']:>12,}"
            f"  {data['fused_tokens_per_s']:>12,}"
            f"  {data['shape_hit_rate']:>8.2%}"
            f"  {data['speedup']:>6.2f}x"
        )
    lines.append("")
    lines.append("pipeline (small corpus)   classic_s   fused_s  speedup")
    for backend, data in report["pipeline"].items():
        lines.append(
            f"{backend:<24} {data['classic_s']:>10.3f}"
            f"  {data['fused_s']:>8.3f}  {data['speedup']:>6.2f}x"
        )
    emit("ingest", "\n".join(lines))

    assert large["speedup"] >= gate, (
        f"fused ingestion ({large['speedup']}x) under the "
        f"{gate}x gate on the large corpus"
    )
