"""The import budget of a ``discover`` process.

``import repro.cli`` loads what a default ``discover`` runs and nothing
else: numpy is only for the k-means baseline, the dataset generators
only for ``generate``/``datasets``, and validation only for
``validate``/``diff``; no route loads
``multiprocessing`` or a process pool, since the process backend forks
its own children, and none maps its input with ``mmap``, since every
reader streams one buffered handle.  No route generates code either:
the record classes are plain slotted classes (:mod:`repro.records`), so
neither ``dataclasses`` nor the ``inspect`` stack behind it loads, and
the sketches hash with ``_blake2``, so OpenSSL (``_hashlib``) stays
out.  Nor does it load a subsystem that only an opted-in run needs
(:data:`DEFERRED`): the package ``__init__``s serve their public names
on first use (:mod:`repro._lazy`), and the codec, the sketches, the
process backend, the staged synthesis and the baselines are imported
by the code that runs them.  A default ``discover`` then imports
nothing beyond the CLI's own import but argparse's ``locale``, and a
run that keeps a state but forks no workers (the staged synthesis, a
checkpoint) loads nothing of the process backend.  Each
check runs in a fresh interpreter, since this test process has
imported all of them already.
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
    "multiprocessing",
    "concurrent.futures",
    "concurrent.futures.process",
    "mmap",
    "dataclasses",
    "inspect",
    "_hashlib",
)

#: Modules that only an opted-in route runs (a checkpoint, shards,
#: ``--enrich``, another algorithm or strategy, another subcommand):
#: neither ``import repro.cli`` nor a default ``discover`` loads them.
DEFERRED = (
    "pickle",
    "select",
    "signal",
    "base64",
    "repro.engine.executor",
    "repro.discovery.codec",
    "repro.discovery.sketches",
    "repro.discovery.pipeline",
    "repro.discovery.fold",
    "repro.discovery.kreduce",
    "repro.discovery.lreduce",
    "repro.discovery.tagged_unions",
    "repro.discovery.coref",
    "repro.entities.kmeans",
    "repro.io.sampling",
    "repro.schema.enrich",
    "repro.schema.docgen",
    "repro.schema.subsume",
    "repro.schema.sample",
)

#: What only the process backend uses: a run that forks no workers
#: loads none of it, however much state it keeps.
PROCESS_BACKEND = (
    "pickle",
    "_pickle",
    "select",
    "signal",
    "repro.engine.executor",
)

#: The packages whose ``__init__`` serves its names on first use.
PACKAGES = (
    "repro",
    "repro.discovery",
    "repro.schema",
    "repro.engine",
    "repro.io",
    "repro.entities",
    "repro.jsontypes",
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


def _loaded_after(statements: str, names=NOT_LOADED) -> dict:
    return _fresh(
        "import json, sys\n"
        f"{statements}\n"
        f"print(json.dumps({{name: name in sys.modules "
        f"for name in {tuple(names)!r}}}))"
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


@pytest.mark.parametrize("output", ["text", "json"])
def test_default_discover_leaves_the_deferred_subsystems_unloaded(
    github_corpus, output
):
    statements = _discover(github_corpus).replace(
        '"json"', repr(output), 1
    )
    loaded = _loaded_after(statements, DEFERRED)
    assert not any(loaded.values()), loaded
    assert not any(_loaded_after("import repro.cli", DEFERRED).values())


@pytest.mark.parametrize("output", ["text", "json"])
def test_default_discover_imports_nothing_beyond_the_cli(
    github_corpus, output
):
    # perfbench forks every operation from a process that imported the
    # CLI: a module a default run imports late is paid in every run.
    argv = ["discover", github_corpus, "--format", output,
            "--output", os.devnull]
    added = _fresh(
        "import json, sys\n"
        "from repro.cli import main\n"
        "before = set(sys.modules)\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert set(added) <= {"locale", "_locale"}, added


@pytest.mark.parametrize("route", ["jxplain-pipeline", "checkpoint"])
def test_stateful_routes_leave_the_process_backend_unloaded(
    github_corpus, tmp_path, route
):
    # The staged synthesis runs in the driver, and so does a checkpoint.
    flags = {
        "jxplain-pipeline": ("--algorithm", "jxplain-pipeline"),
        "checkpoint": ("--checkpoint", str(tmp_path / "state.ckpt")),
    }[route]
    loaded = _loaded_after(_discover(github_corpus, *flags), PROCESS_BACKEND)
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


@pytest.mark.parametrize("package", PACKAGES)
def test_every_package_name_resolves_lazily(package):
    # In the import-only state every name is served through the
    # package's __getattr__; then every module of the package loads,
    # and each served name must be the object some module defines
    # under that name (never a submodule shadowing it).
    result = _fresh(
        "import importlib, json, pkgutil, sys, types\n"
        f"pkg = importlib.import_module({package!r})\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "served = {name: getattr(pkg, name) for name in pkg.__all__}\n"
        "star = sorted(n for n in namespace if n != '__builtins__')\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + '.'):\n"
        "    importlib.import_module(info.name)\n"
        "modules = [m for n, m in list(sys.modules.items())\n"
        "           if n.startswith(pkg.__name__ + '.')]\n"
        "orphans = [name for name, value in served.items()\n"
        "           if name != '__version__' and (\n"
        "               isinstance(value, types.ModuleType)\n"
        "               or not any(vars(m).get(name) is value for m in modules))]\n"
        "shadowed = [name for name in pkg.__all__\n"
        "            if isinstance(getattr(pkg, name), types.ModuleType)]\n"
        "print(json.dumps([star == sorted(pkg.__all__), unknown,\n"
        "                  orphans, shadowed]))"
    )
    assert result == [True, "AttributeError", [], []]


def test_the_discoverer_registry_is_complete_in_a_fresh_interpreter():
    result = _fresh(
        "import json\n"
        "from repro.discovery import discoverer_names, make_discoverer\n"
        "names = discoverer_names()\n"
        "print(json.dumps([names, make_discoverer('k-reduce').name]))"
    )
    assert result == [
        ["bimax-merge", "bimax-naive", "jxplain-pipeline", "k-reduce",
         "l-reduce"],
        "k-reduce",
    ]
