"""The import budget of a ``discover`` process.

``import repro.cli`` loads what a default ``discover`` runs and nothing
else: numpy is only for the k-means baseline, the dataset generators
only for ``generate``/``datasets``, validation only for ``validate``/
``diff``, and the analyzer only for ``lint``; no route loads
``multiprocessing`` or a process pool, since the process backend forks
its own children, and none maps its input with ``mmap``, since every
reader streams one buffered handle.  Each check runs in a fresh
interpreter, since this test process has imported all of them already.
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

#: Modules a plain ``discover`` never needs.
NOT_LOADED = (
    "numpy",
    "repro.datasets",
    "repro.validation",
    "repro.analysis",
    "multiprocessing",
    "concurrent.futures",
    "concurrent.futures.process",
    "mmap",
)


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(statements: str) -> dict:
    return _fresh(
        "import json, sys\n"
        f"{statements}\n"
        f"print(json.dumps({{name: name in sys.modules "
        f"for name in {NOT_LOADED!r}}}))"
    )


@pytest.fixture(scope="module")
def github_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "github.jsonl"
    write_jsonlines(path, make_dataset("github").generate(300, seed=1))
    return str(path)


def _discover(path: str, *flags: str) -> str:
    argv = ["discover", path, "--format", "json", "--output", os.devnull,
            *flags]
    return f"from repro.cli import main\nassert main({argv!r}) == 0"


def test_importing_the_cli_loads_none_of_the_optional_subsystems():
    loaded = _loaded_after("import repro.cli")
    assert not any(loaded.values()), loaded


def test_default_discover_leaves_numpy_unloaded(github_corpus):
    loaded = _loaded_after(_discover(github_corpus))
    assert not any(loaded.values()), loaded


def test_enriched_sharded_discover_leaves_numpy_unloaded(github_corpus):
    # The process backend forks its children itself: a sharded run
    # loads no pool stack either.
    loaded = _loaded_after(_discover(
        github_corpus, "--enrich", "sketches,unions",
        "--shards", "2", "--workers", "2",
    ))
    assert not any(loaded.values()), loaded


def test_kmeans_strategy_loads_numpy_on_demand(github_corpus):
    loaded = _loaded_after(_discover(github_corpus, "--strategy", "kmeans"))
    assert loaded["numpy"]


def test_every_public_name_resolves():
    names = _fresh(
        "import json, sys, repro\n"
        "eager = 'repro.validation' in sys.modules\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "from repro import *\n"
        "from repro import ValidationReport, diff_schemas, validate_records\n"
        "print(json.dumps([eager, missing, validate_records.__module__]))"
    )
    assert names == [False, [], "repro.validation.validator"]
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_generate_help_names_every_dataset():
    # In a fresh interpreter: other tests register extra generators.
    names = _fresh(
        "import json\n"
        "from repro.cli import _DATASET_NAMES\n"
        "from repro.datasets import dataset_names\n"
        "print(json.dumps([list(_DATASET_NAMES), dataset_names()]))"
    )
    assert names[0] == names[1]
