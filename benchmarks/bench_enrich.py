"""Enrichment bench: sketch overhead and tagged-union accuracy (PR 8).

Two questions, answered on seeded synthetic corpora:

* **What do the sketches cost?**  Enriched discovery must read values
  (the typed reader: the fused reader's shape cache for types, plus a
  stdlib decode of every line for its value) and feed them to the
  sketches — the honest price of value-domain enrichment.  A
  github-style corpus (200k records at full scale) is discovered plain
  (fused scan, the fastest serial path) and enriched
  (``sketches,unions`` over the typed scan); the ratio is the
  overhead.  Before any timing, the clone-strip oracle is asserted:
  the enriched state's bytes, with the sidecar nulled, equal the plain
  run's bytes — and a sharded enriched run lands on the serial
  enriched bytes.
* **Does tagged-union extraction find real entities?**  The twelve
  labelled datasets (``PAPER_DATASETS`` minus wikidata) are scored via
  :func:`repro.metrics.union_accuracy.evaluate_tagged_union_detection`
  — the same helper the accuracy suite pins — reporting pair
  precision/recall next to the Bimax/GreedyMerge baselines.  The
  planted github discriminant (``type``) is asserted recovered.

Results go machine-readably to ``BENCH_PR8.json`` at the repo root and
as text under ``benchmarks/results/``.  Scale the overhead corpus with
``REPRO_BENCH_SCALE``; the accuracy table is fixed at the suite's
(n=600, seed=3) so the bench and the pinned fixture never diverge.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from benchmarks.corpus import write_corpus
from repro.datasets import PAPER_DATASETS
from repro.discovery.state import state_for_algorithm
from repro.engine import SerialExecutor
from repro.engine.sharding import discover_sharded
from repro.io.fastpath import absorb_file
from repro.metrics.union_accuracy import evaluate_tagged_union_detection

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Overhead corpus size at full scale.
CORPUS_RECORDS = 200_000
CORPUS_SEED = 23

ENRICH = "sketches,unions"
ACCURACY_DATASETS = tuple(
    name for name in PAPER_DATASETS if name != "wikidata"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR8.json"


def _hardware() -> dict:
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def test_enrichment_overhead_and_accuracy():
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "hardware": _hardware(),
        "corpus": {},
        "byte_identity": {},
        "overhead": {},
        "accuracy": [],
    }

    with tempfile.TemporaryDirectory(prefix="bench-enrich-") as tmp:
        path = Path(tmp) / "corpus.jsonl"
        records = max(2_000, int(CORPUS_RECORDS * SCALE))
        report["corpus"] = write_corpus(
            path, "github", records, seed=CORPUS_SEED
        )

        # -- plain baseline: the fused scan (shape-cached fast path).
        start = time.perf_counter()
        plain = state_for_algorithm("jxplain")
        absorb_file(plain, path, ingest="fused", on_bad_record="raise")
        plain_s = time.perf_counter() - start

        # -- enriched: the same call on an enriched state takes the
        # typed reader (every value is decoded and fed to the
        # sketches — this IS the enrichment overhead).
        start = time.perf_counter()
        rich = state_for_algorithm("jxplain", enrich=ENRICH)
        absorb_file(rich, path, ingest="fused", on_bad_record="raise")
        rich_s = time.perf_counter() - start

        # -- correctness before timing is reported: stripping the
        # sidecar recovers the plain bytes exactly.
        clone = type(plain).from_bytes(rich.to_bytes())
        clone.enrichment = None
        identical = clone.to_bytes() == plain.to_bytes()
        report["byte_identity"]["strip_equals_plain"] = identical
        assert identical, "enriched state diverged structurally from plain"

        # -- and a sharded enriched run equals the serial enriched run.
        sharded = discover_sharded(
            path,
            "jxplain",
            executor=SerialExecutor(),
            shards=4,
            enrich=ENRICH,
        )
        sharded_identical = sharded.state.to_bytes() == rich.to_bytes()
        report["byte_identity"]["sharded_equals_serial"] = sharded_identical
        assert sharded_identical, "sharded enriched bytes diverged"

        report["overhead"] = {
            "records": records,
            "plain_fused_s": round(plain_s, 4),
            "enriched_typed_s": round(rich_s, 4),
            "ratio": round(rich_s / plain_s, 2),
            "plain_records_per_s": round(records / plain_s),
            "enriched_records_per_s": round(records / rich_s),
        }

    # -- accuracy table (fixed n/seed; matches the pinned fixture).
    for name in ACCURACY_DATASETS:
        report["accuracy"].append(evaluate_tagged_union_detection(name))

    by_name = {row["dataset"]: row for row in report["accuracy"]}
    github = by_name["github"]["discriminant"]
    assert github is not None and github["key"] == "type", (
        f"github planted discriminant not recovered: {github}"
    )
    synapse = by_name["synapse"]["discriminant"]
    assert synapse is not None and synapse["key"] == "type"

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    overhead = report["overhead"]
    lines = [
        f"corpus: {overhead['records']:,} github records; "
        f"host: {report['hardware']['cpu_count']} core(s)",
        f"plain fused scan:    {overhead['plain_fused_s']:>8.3f}s  "
        f"({overhead['plain_records_per_s']:,} rec/s)",
        f"enriched typed scan: {overhead['enriched_typed_s']:>8.3f}s  "
        f"({overhead['enriched_records_per_s']:,} rec/s)",
        f"sketch overhead: {overhead['ratio']:.2f}x  "
        "(byte-identical structural schema, serial and sharded)",
        "",
        "dataset         discriminant  union P/R      bimax-merge P/R",
    ]
    for row in report["accuracy"]:
        disc = row["discriminant"]
        key = disc["key"] if disc else "-"
        union = row["scores"][0]
        merge = row["scores"][2]
        lines.append(
            f"{row['dataset']:<15} {key:<13} "
            f"{union['precision']:.2f}/{union['recall']:.2f}      "
            f"{merge['precision']:.2f}/{merge['recall']:.2f}"
        )
    emit("enrich", "\n".join(lines))
