"""Sharded multi-process discovery bench: scaling to 1M+ records.

A seeded github-style corpus (1M records at full scale; see
``benchmarks/corpus.py``) is discovered four ways: by an *optimized
serial* baseline — the fused sequential scan, i.e. the fastest
single-process path this repo has — and by the shard coordinator on
the process backend at 2, 4, and 8 workers (forked children, one
per slice of the shards).  Before any timing,
sharded state bytes are asserted identical to the serial run for all
three algorithms — the speedup is only meaningful because the answer
is provably the same.

Results go machine-readably to ``BENCH_PR7.json`` at the repo root and
as text under ``benchmarks/results/``.  Scale with
``REPRO_BENCH_SCALE``.

Gates are **hardware-conditional** and recorded in the report: process
parallelism cannot beat serial on a single core, so each worker
count's speedup gate applies only when ``os.cpu_count()`` provides at
least that many cores (the CI smoke job runs on multi-core runners
and enforces >= 1.5x at 4 workers; the full-scale target is >= 3x at
4 workers on a >= 1M-record corpus).  On smaller machines the bench
still runs — correctness is asserted unconditionally — and reports
the gates as not applicable rather than fabricating a speedup.
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
from repro.discovery.state import state_for_algorithm
from repro.engine import ProcessExecutor
from repro.engine.sharding import discover_sharded
from repro.io.fastpath import read_jsonlines_fused

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Full-scale corpus size — the acceptance criterion's 1M records.
CORPUS_RECORDS = 1_000_000
CORPUS_SEED = 17

#: Worker counts swept by the scaling section.
WORKER_COUNTS = (2, 4, 8)

ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")

#: Speedup gates at 4 workers, enforced only when the host has the
#: cores to make them physically possible.
SMOKE_SPEEDUP = 1.5
FULL_SCALE_SPEEDUP = 3.0
FULL_SCALE_RECORDS = 1_000_000
GATE_WORKERS = 4

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR7.json"


def _serial_scan(path, algorithm: str):
    """The optimized serial baseline: fused scan -> state."""
    start = time.perf_counter()
    state = state_for_algorithm(algorithm, None)
    for tau in read_jsonlines_fused(path):
        state.absorb_type(tau)
    return state, time.perf_counter() - start


def _hardware() -> dict:
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def test_sharded_scaling():
    cores = os.cpu_count() or 1
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "hardware": _hardware(),
        "corpus": {},
        "byte_identity": {},
        "scaling": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-sharding-") as tmp:
        path = Path(tmp) / "corpus.jsonl"
        records = max(2_000, int(CORPUS_RECORDS * SCALE))
        report["corpus"] = write_corpus(
            path, "github", records, seed=CORPUS_SEED
        )

        # -- correctness first: sharded bytes == serial bytes, all
        # three algorithms, on the process backend.
        serial_states = {}
        serial_times = {}
        for algorithm in ALGORITHMS:
            state, elapsed = _serial_scan(path, algorithm)
            serial_states[algorithm] = state.to_bytes()
            serial_times[algorithm] = elapsed
        executor = ProcessExecutor(2)
        try:
            for algorithm in ALGORITHMS:
                sharded = discover_sharded(
                    path, algorithm, executor=executor, shards=4
                )
                identical = (
                    sharded.state.to_bytes() == serial_states[algorithm]
                )
                report["byte_identity"][algorithm] = identical
                assert identical, (
                    f"{algorithm}: sharded state bytes diverged from "
                    "the serial scan"
                )
        finally:
            executor.close()

        # -- scaling sweep (jxplain, the paper's algorithm).  A second
        # serial baseline — the sharded code path on one in-driver
        # shard (fused read + counted-bag fold, no pool) — separates
        # the bag-fold's algorithmic gain from actual parallelism.
        serial_s = serial_times["jxplain"]
        report["serial_s"] = round(serial_s, 4)
        start = time.perf_counter()
        bagfold = discover_sharded(
            path, "jxplain", executor="serial", shards=1
        )
        bagfold_s = time.perf_counter() - start
        assert bagfold.state.to_bytes() == serial_states["jxplain"]
        report["serial_bagfold_s"] = round(bagfold_s, 4)
        for workers in WORKER_COUNTS:
            executor = ProcessExecutor(workers)
            try:
                # Warm the pool so fork/import cost is not billed to
                # the timed run (the coordinator's intended usage).
                discover_sharded(
                    path, "jxplain", executor=executor, shards=workers * 2
                )
                start = time.perf_counter()
                result = discover_sharded(
                    path, "jxplain", executor=executor, shards=workers * 2
                )
                elapsed = time.perf_counter() - start
            finally:
                executor.close()
            assert result.state.to_bytes() == serial_states["jxplain"]
            report["scaling"][str(workers)] = {
                "workers": workers,
                "shards": workers * 2,
                "sharded_s": round(elapsed, 4),
                "speedup": round(serial_s / elapsed, 2),
                "records_per_s": round(records / elapsed),
                "partial_bytes": result.partial_bytes,
                "cores_available": cores >= workers,
            }

    gate_row = report["scaling"][str(GATE_WORKERS)]
    full_scale = records >= FULL_SCALE_RECORDS
    gate = FULL_SCALE_SPEEDUP if full_scale else SMOKE_SPEEDUP
    gate_applicable = cores >= GATE_WORKERS
    report["acceptance"] = {
        "byte_identity": all(report["byte_identity"].values()),
        "gate_workers": GATE_WORKERS,
        "gate": gate,
        "full_scale": full_scale,
        "gate_applicable": gate_applicable,
        "speedup_at_gate": gate_row["speedup"],
        "met": (not gate_applicable) or gate_row["speedup"] >= gate,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"corpus: {records:,} github records "
        f"({report['corpus']['bytes']:,} bytes), "
        f"host: {cores} core(s)",
        f"serial fused scan (jxplain): {serial_s:.3f}s; "
        f"serial bag-fold (1 shard, no pool): "
        f"{report['serial_bagfold_s']:.3f}s",
        "",
        "workers  shards  sharded_s  records/s   speedup  gate",
    ]
    for workers in WORKER_COUNTS:
        row = report["scaling"][str(workers)]
        note = "" if row["cores_available"] else "  (insufficient cores)"
        lines.append(
            f"{workers:>7}  {row['shards']:>6}  {row['sharded_s']:>9.3f}"
            f"  {row['records_per_s']:>9,}  {row['speedup']:>6.2f}x"
            f"{note}"
        )
    lines.append("")
    lines.append(
        "state bytes identical to serial for: "
        + ", ".join(a for a in ALGORITHMS if report["byte_identity"][a])
    )
    emit("sharding", "\n".join(lines))

    if gate_applicable:
        assert gate_row["speedup"] >= gate, (
            f"sharded discovery ({gate_row['speedup']}x at "
            f"{GATE_WORKERS} workers) under the {gate}x gate"
        )
