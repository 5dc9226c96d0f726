"""Core performance bench for the dataflow backends + merge fast path.

Times both extractors end-to-end — K-reduce as a one-pass bag fold
into a :class:`~repro.discovery.state.KReduceState`, JXPLAIN as the
recursive merger and as the staged three-pass pipeline — on the yelp/github/pharma synthetic datasets under four
configurations:

* ``baseline``            — serial executor, list bags, interning and
  the similarity cache off (the seed's behaviour);
* ``optimized-serial``    — counted bags + interning + cached
  similarity, still serial;
* ``optimized-threads4``  — the same, with the pipeline's pass ②
  fanned out on 4 threads;
* ``optimized-processes4``— the same, on 4 processes (picklable tasks).

Results — timings, speedups versus baseline, intern/cache counters,
distinct-type ratios, worker counts — are written machine-readably to
``BENCH_PR1.json`` at the repo root and as text under
``benchmarks/results/``.  Schema identity across every configuration
is asserted, and at full scale the run must show a ≥2x speedup for
both algorithms on at least one dataset.

Scale with ``REPRO_BENCH_SCALE`` (CI smoke uses a small fraction; the
speedup gate only applies at >= 2000 records).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from repro.datasets import make_dataset
from repro.discovery import Jxplain, JxplainPipeline
from repro.discovery import KReduceState
from repro.engine import resolve_executor
from repro.engine.instrument import (
    counters,
    perf_counters,
    reset_perf_counters,
)
from repro.jsontypes import (
    as_bag,
    clear_intern_table,
    set_counted_merge,
    set_interning,
    type_of,
)
from repro.jsontypes.similarity import set_similarity_cache

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Multi-thousand-record corpora (scaled), the regime of Table 5.
PERF_SIZES = {"yelp-merged": 4000, "github": 4000, "pharma": 4000}

#: (name, executor spec, counted bags + interning + similarity cache)
MODES = [
    ("baseline", "serial", False),
    ("optimized-serial", "serial", True),
    ("optimized-threads4", "threads:4", True),
    ("optimized-processes4", "processes:4", True),
]

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR1.json"


def _run_kreduce(records):
    """One-pass K-reduce: the records' type bag (a list bag in the
    baseline mode), folded into a state by one batch merge."""
    state = KReduceState()
    state.absorb_bag(as_bag(type_of(value) for value in records))
    return state.synthesize()


def _set_mode(optimized):
    set_counted_merge(optimized)
    set_interning(optimized)
    set_similarity_cache(optimized)
    clear_intern_table()
    reset_perf_counters()


def _bench_dataset(name, size):
    records = make_dataset(name).generate(size, seed=17)
    schemas_k, schemas_j, schemas_p = {}, {}, {}
    modes = {}
    for mode_name, spec, optimized in MODES:
        executor = resolve_executor(spec)
        _set_mode(optimized)

        start = time.perf_counter()
        schemas_k[mode_name] = _run_kreduce(records)
        kreduce_s = time.perf_counter() - start

        # The one-shot recursive merger (Section 5's Algorithm 4 as a
        # whole-bag merge): this is where the counted-bag fast path
        # concentrates, since every nested path re-merges a bag.
        start = time.perf_counter()
        schemas_j[mode_name] = Jxplain().discover(records)
        jxplain_s = time.perf_counter() - start

        # The staged three-pass pipeline: the records are absorbed
        # into a state, then passes ①–③ run once over it, with pass
        # ②'s per-path clustering fanned out over the executor.
        start = time.perf_counter()
        schemas_p[mode_name] = JxplainPipeline(
            executor=executor
        ).run(records).schema
        pipeline_s = time.perf_counter() - start

        snapshot = perf_counters()
        total = counters.get("kreduce.merge_total_types")
        distinct = counters.get("kreduce.merge_distinct_types")
        modes[mode_name] = {
            "kreduce_s": round(kreduce_s, 4),
            "jxplain_s": round(jxplain_s, 4),
            "pipeline_s": round(pipeline_s, 4),
            "workers": executor.workers,
            "distinct_type_ratio": round(distinct / total, 4) if total else None,
            "counters": {
                key: value
                for key, value in sorted(snapshot.items())
                if key.startswith(("intern.", "similarity.", "executor.",
                                   "kreduce.", "jxplain."))
            },
        }
    _set_mode(True)  # restore defaults

    for algo, schemas in (
        ("kreduce", schemas_k),
        ("jxplain", schemas_j),
        ("pipeline", schemas_p),
    ):
        reference = schemas["baseline"]
        for mode_name, schema in schemas.items():
            assert schema == reference, (
                f"{name}: {algo} schema diverged under {mode_name}"
            )

    base = modes["baseline"]
    opt = modes["optimized-serial"]
    return {
        "records": len(records),
        "modes": modes,
        "kreduce_speedup": round(base["kreduce_s"] / opt["kreduce_s"], 2),
        "jxplain_speedup": round(base["jxplain_s"] / opt["jxplain_s"], 2),
        "pipeline_speedup": round(base["pipeline_s"] / opt["pipeline_s"], 2),
    }


def test_perf_core():
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "cpu_count": os.cpu_count(),
        "modes": [
            {"name": mode, "executor": spec, "optimized": optimized}
            for mode, spec, optimized in MODES
        ],
        "datasets": {},
    }
    for name, size in PERF_SIZES.items():
        scaled = max(50, int(size * SCALE))
        report["datasets"][name] = _bench_dataset(name, scaled)

    best_k = max(d["kreduce_speedup"] for d in report["datasets"].values())
    best_j = max(d["jxplain_speedup"] for d in report["datasets"].values())
    full_scale = min(
        d["records"] for d in report["datasets"].values()
    ) >= 2000
    report["acceptance"] = {
        "kreduce_best_speedup": best_k,
        "jxplain_best_speedup": best_j,
        "gate_applies": full_scale,
        "met": best_k >= 2.0 and best_j >= 2.0,
    }

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        "dataset        mode                   kreduce_s  jxplain_s"
        "  pipeline_s  workers",
    ]
    for name, data in report["datasets"].items():
        for mode_name, row in data["modes"].items():
            lines.append(
                f"{name:<14} {mode_name:<22} {row['kreduce_s']:>9.3f}"
                f"  {row['jxplain_s']:>9.3f}  {row['pipeline_s']:>10.3f}"
                f"  {row['workers']:>7}"
            )
        lines.append(
            f"{name:<14} speedup (serial, optimized/baseline): "
            f"kreduce {data['kreduce_speedup']}x, "
            f"jxplain {data['jxplain_speedup']}x, "
            f"pipeline {data['pipeline_speedup']}x"
        )
    lines.append(f"best speedups: kreduce {best_k}x, jxplain {best_j}x")
    emit("perf_core", "\n".join(lines))

    if full_scale:
        assert best_k >= 2.0, f"kreduce speedup {best_k} < 2.0"
        assert best_j >= 2.0, f"jxplain speedup {best_j} < 2.0"
