"""Output bytes do not depend on the interpreter's hash seed.

String hashing is randomized per process, so the iteration order of a
``set`` or ``dict`` keyed by strings can differ between two runs of the
same command.  A schema and a checkpoint are deterministic functions of
the input: ``discover`` runs in fresh interpreters under two
``PYTHONHASHSEED`` values must print the same stdout and write the same
``--checkpoint`` bytes.  This is the behavioural form of the
determinism laws (no hash-ordered iteration feeding output, no
``id()``/``hash()`` sort keys, no unseeded randomness reaching a
schema or a checkpoint), checked on the real CLI routes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datasets import make_dataset
from repro.io.jsonlines import write_jsonlines

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: A repetitive corpus and a high-distinct one.
CORPORA = ("github", "yelp-merged")
RECORDS = 500
HASH_SEEDS = ("0", "1")

#: ``discover --format json`` flag sets: the plain route (Algorithm 4),
#: the stateful route, the enriched route and real shard workers.
FLAG_SETS = {
    "plain": [],
    "checkpoint": ["--checkpoint", "{ckpt}"],
    "enriched": ["--enrich", "sketches,unions", "--checkpoint", "{ckpt}"],
    "sharded": ["--shards", "2", "--workers", "2", "--checkpoint", "{ckpt}"],
}

#: Runs every flag set on one corpus in this fresh interpreter and
#: prints the md5 of each run's stdout and checkpoint bytes.
PROBE = """
import contextlib, hashlib, io, json, os, sys
from repro.cli import main

corpus, workdir, flag_sets = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
digests = {}
for name, flags in sorted(flag_sets.items()):
    ckpt = os.path.join(workdir, name + ".ckpt")
    argv = ["discover", corpus, "--format", "json"]
    argv += [flag.replace("{ckpt}", ckpt) for flag in flags]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (name, code)
    digest = {"stdout": hashlib.md5(out.getvalue().encode()).hexdigest()}
    if os.path.exists(ckpt):
        with open(ckpt, "rb") as handle:
            digest["checkpoint"] = hashlib.md5(handle.read()).hexdigest()
    digests[name] = digest
print(json.dumps(digests, sort_keys=True))
"""


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    paths = {}
    for seed, name in enumerate(CORPORA, start=1):
        path = root / f"{name}.jsonl"
        write_jsonlines(path, make_dataset(name).generate(RECORDS, seed=seed))
        paths[name] = path
    return paths


@pytest.mark.parametrize("corpus", CORPORA)
def test_discover_bytes_do_not_depend_on_the_hash_seed(
    corpora, tmp_path, corpus
):
    runs = {}
    for hash_seed in HASH_SEEDS:
        workdir = tmp_path / f"seed{hash_seed}"
        workdir.mkdir()
        runs[hash_seed] = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(corpora[corpus]),
             str(workdir), json.dumps(FLAG_SETS)],
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    digests = {}
    for hash_seed, run in runs.items():
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        digests[hash_seed] = json.loads(out.splitlines()[-1])
    first, second = (digests[seed] for seed in HASH_SEEDS)
    assert sorted(first) == sorted(FLAG_SETS)
    # Every stateful flag set wrote a checkpoint; the plain one did not.
    assert [name for name in sorted(first) if "checkpoint" in first[name]] \
        == sorted(name for name in FLAG_SETS if name != "plain")
    assert first == second
