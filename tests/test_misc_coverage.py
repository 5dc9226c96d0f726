"""Coverage for small branches the focused suites do not reach."""

import pytest

from repro.cli import main
from repro.errors import (
    DatasetError,
    EmptyInputError,
    EngineError,
    InvalidJsonValueError,
    RecursionDepthError,
    ReproError,
    SchemaConstructionError,
    UnsupportedSchemaError,
)
from repro.io.jsonlines import write_jsonlines


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for error_type in (
            InvalidJsonValueError,
            SchemaConstructionError,
            EmptyInputError,
            UnsupportedSchemaError,
            DatasetError,
            EngineError,
            RecursionDepthError,
        ):
            assert issubclass(error_type, ReproError)

    def test_dual_inheritance(self):
        # Library errors remain catchable by their stdlib counterparts.
        assert issubclass(InvalidJsonValueError, TypeError)
        assert issubclass(SchemaConstructionError, ValueError)
        assert issubclass(EngineError, RuntimeError)
        assert issubclass(RecursionDepthError, RecursionError)


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.discovery
        import repro.entities
        import repro.jsontypes
        import repro.metrics
        import repro.schema
        import repro.validation

        for module in (
            repro.discovery,
            repro.entities,
            repro.jsontypes,
            repro.metrics,
            repro.schema,
            repro.validation,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_public_names_are_exported(self):
        """Every public name a package imports into its namespace is in
        its ``__all__`` (submodules aside)."""
        import importlib
        import pkgutil
        import types

        import repro

        packages = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        for package in packages:
            listed = set(package.__all__)
            for name, value in vars(package).items():
                if name.startswith("_") or isinstance(value, types.ModuleType):
                    continue
                assert name in listed, (package.__name__, name)


class TestCliEntropyFlag:
    def test_literal_collections_flag(self, tmp_path, capsys):
        records = [
            {"sig": {f"s{i % 9}": {f"k{i % 7}": "x"}}} for i in range(60)
        ]
        data = tmp_path / "sig.jsonl"
        write_jsonlines(data, records)
        schema_path = tmp_path / "schema.json"
        assert (
            main(
                [
                    "discover",
                    str(data),
                    "--format",
                    "json",
                    "--output",
                    str(schema_path),
                ]
            )
            == 0
        )
        assert main(["entropy", str(schema_path)]) == 0
        decision = float(capsys.readouterr().out)
        assert (
            main(
                ["entropy", str(schema_path), "--literal-collections"]
            )
            == 0
        )
        literal = float(capsys.readouterr().out)
        # Nested collections compound under the literal convention.
        assert literal >= decision


class TestDocgenCollectionsOfObjects:
    def test_array_of_objects_section(self):
        from repro.schema.docgen import schema_to_markdown
        from repro.schema.nodes import (
            ArrayCollection,
            NUMBER_S,
            ObjectCollection,
            ObjectTuple,
            STRING_S,
        )

        schema = ObjectTuple(
            {
                "items": ArrayCollection(
                    ObjectTuple({"sku": STRING_S, "qty": NUMBER_S}), 6
                ),
                "index": ObjectCollection(
                    ObjectTuple({"rank": NUMBER_S}), domain=("a", "b")
                ),
            }
        )
        text = schema_to_markdown(schema)
        assert "Array elements" in text
        assert "| `sku` |" in text
        assert "Collection values" in text
        assert "| `rank` |" in text


class TestDiffSimilarityPairing:
    def test_non_tuple_branches_pair_loosely(self):
        from repro.schema.nodes import ArrayCollection, NUMBER_S, STRING_S, union
        from repro.validation.diff import ChangeKind, diff_schemas

        old = union(NUMBER_S, ArrayCollection(NUMBER_S))
        new = union(NUMBER_S, ArrayCollection(STRING_S))
        diff = diff_schemas(old, new)
        # The array branches pair up (same node type) and report the
        # element change rather than an entity swap.
        kinds = {change.kind for change in diff.changes}
        assert ChangeKind.TYPE_CHANGED in kinds
        assert ChangeKind.ENTITY_ADDED not in kinds


class TestSweepEdges:
    def test_fraction_yielding_empty_sample_skipped(self):
        from repro.discovery import KReduce
        from repro.metrics.recall import run_sweep

        records = [{"a": i} for i in range(10)]
        # 10% of a 9-record training pool rounds to one record; zero
        # fraction would be filtered by uniform_sample's guard.
        sweep = run_sweep(
            "tiny", records, [KReduce()], fractions=(0.1,), trials=1
        )
        assert len(sweep.trials) == 1

    def test_format_empty_sweep(self):
        from repro.metrics.recall import SweepResult, format_sweep_table

        table = format_sweep_table(SweepResult(dataset="x"), "recall")
        assert "dataset" in table
