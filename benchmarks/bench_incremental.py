"""Incremental-append bench: resume a checkpoint vs. re-run from scratch.

The monitoring scenario the states exist for: a corpus was already
discovered (and checkpointed); 10% more records arrive.  The naive
path absorbs the concatenated input into a fresh state and
synthesizes; the incremental path loads the checkpoint, absorbs only
the new records, and re-synthesizes from the accumulated statistics.
Every file enters its state through
:func:`repro.io.fastpath.absorb_file`.  Both
must produce byte-identical schemas (asserted); the incremental path
must win on wall clock.

Results go machine-readably to ``BENCH_PR4.json`` at the repo root and
as text under ``benchmarks/results/``.  Scale with
``REPRO_BENCH_SCALE``; the speedup gate applies only at full scale
(>= 2000 base records), smoke runs just assert schema identity.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from repro.datasets import make_dataset
from repro.discovery import load_state, save_state, state_for_algorithm
from repro.io.fastpath import absorb_file
from repro.io.jsonlines import write_jsonlines
from repro.schema import to_json_schema

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Base corpus sizes (scaled); 10% more records arrive afterwards.
APPEND_SIZES = {"github": 4000, "yelp-merged": 4000}
APPEND_FRACTION = 0.10

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR4.json"


def _schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


def _bench_dataset(name: str, base_size: int, workdir: Path) -> dict:
    append_size = max(5, int(base_size * APPEND_FRACTION))
    records = make_dataset(name).generate(base_size + append_size, seed=17)
    base_path = workdir / f"{name}-base.jsonl"
    append_path = workdir / f"{name}-append.jsonl"
    full_path = workdir / f"{name}-full.jsonl"
    write_jsonlines(base_path, records[:base_size])
    write_jsonlines(append_path, records[base_size:])
    write_jsonlines(full_path, records)
    checkpoint = workdir / f"{name}.ckpt"

    def absorb(state, path):
        absorb_file(state, path, ingest="fused", on_bad_record="raise")
        return state

    # The original run, checkpointed (amortized; timed for context).
    start = time.perf_counter()
    base = absorb(state_for_algorithm("jxplain"), base_path)
    base.synthesize()
    save_state(base, checkpoint)
    base_run_s = time.perf_counter() - start

    # Naive: full re-run over base + append.
    start = time.perf_counter()
    full_schema = absorb(state_for_algorithm("jxplain"), full_path).synthesize()
    full_rerun_s = time.perf_counter() - start

    # Incremental: load the checkpoint, absorb only the append file,
    # re-synthesize.
    start = time.perf_counter()
    resumed = absorb(load_state(checkpoint), append_path)
    resumed_schema = resumed.synthesize()
    resume_s = time.perf_counter() - start

    assert _schema_bytes(resumed_schema) == _schema_bytes(full_schema), (
        f"{name}: resumed schema diverged from the full re-run"
    )
    assert resumed.record_count == base_size + append_size

    return {
        "base_records": base_size,
        "append_records": append_size,
        "checkpoint_bytes": checkpoint.stat().st_size,
        "distinct_types": resumed.distinct_count,
        "base_run_s": round(base_run_s, 4),
        "full_rerun_s": round(full_rerun_s, 4),
        "resume_s": round(resume_s, 4),
        "speedup": round(full_rerun_s / resume_s, 2),
    }


def test_incremental_append():
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "append_fraction": APPEND_FRACTION,
        "datasets": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-incremental-") as tmp:
        workdir = Path(tmp)
        for name, size in APPEND_SIZES.items():
            scaled = max(50, int(size * SCALE))
            report["datasets"][name] = _bench_dataset(name, scaled, workdir)

    best = max(d["speedup"] for d in report["datasets"].values())
    full_scale = min(
        d["base_records"] for d in report["datasets"].values()
    ) >= 2000
    report["acceptance"] = {
        "best_speedup": best,
        "gate_applies": full_scale,
        "met": best > 1.0,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        "dataset        base  append  ckpt_KiB  full_rerun_s  resume_s"
        "  speedup",
    ]
    for name, data in report["datasets"].items():
        lines.append(
            f"{name:<14} {data['base_records']:>4}  {data['append_records']:>6}"
            f"  {data['checkpoint_bytes'] / 1024:>8.1f}"
            f"  {data['full_rerun_s']:>12.3f}  {data['resume_s']:>8.3f}"
            f"  {data['speedup']:>6.2f}x"
        )
    lines.append(f"best resume speedup over full re-run: {best}x")
    emit("incremental", "\n".join(lines))

    if full_scale:
        assert best > 1.0, (
            f"resume ({best}x) did not beat the full re-run at full scale"
        )
