"""Golden fixture tests: every rule R1–R7 fires on its fixture."""

from pathlib import Path

from repro.analysis import Severity, all_rules, analyze_source

FIXTURES = Path(__file__).parent / "lint_fixtures"


def analyze_fixture(name: str, path: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return analyze_source(source, path)


def rule_ids(findings):
    return sorted(finding.rule_id for finding in findings)


class TestR1CodecDeterminism:
    def test_fires_in_critical_module(self):
        findings, _ = analyze_fixture(
            "r1_set_iteration.py", "src/repro/discovery/state.py"
        )
        assert rule_ids(findings) == ["R1", "R1", "R1"]
        messages = " | ".join(f.message for f in findings)
        assert "for loop" in messages
        assert "list()" in messages
        assert "id()" in messages

    def test_set_iteration_allowed_outside_critical_modules(self):
        findings, _ = analyze_fixture(
            "r1_set_iteration.py", "src/repro/entities/bimax.py"
        )
        # Only the unstable sort key survives: that law is global.
        assert rule_ids(findings) == ["R1"]
        assert "id()" in findings[0].message

    def test_severity(self):
        findings, _ = analyze_fixture(
            "r1_set_iteration.py", "src/repro/discovery/codec.py"
        )
        assert all(f.severity is Severity.ERROR for f in findings)


class TestR2Picklability:
    def test_flags_lambdas_and_local_defs(self):
        findings, _ = analyze_fixture(
            "r2_lambda_fanout.py", "src/repro/discovery/jxplain.py"
        )
        assert rule_ids(findings) == ["R2", "R2", "R2", "R2"]
        messages = [f.message for f in findings]
        assert sum("a lambda" in m for m in messages) == 3
        assert sum("locally-defined function 'local'" in m for m in messages) == 1
        assert any("map_shards" in m for m in messages)

    def test_partial_over_module_function_is_fine(self):
        source = (
            "from functools import partial\n"
            "def _task(x):\n"
            "    return x\n"
            "def run(executor, items):\n"
            "    return executor.map_list(partial(_task), items)\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert findings == []


class TestR3ExceptionDiscipline:
    def test_flags_silent_swallow_only(self):
        findings, _ = analyze_fixture("r3_swallow.py", "src/repro/engine/x.py")
        assert rule_ids(findings) == ["R3"]
        assert findings[0].severity is Severity.ERROR
        assert "swallows the error" in findings[0].message

    def test_returning_the_exception_records_it(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception as exc:\n"
            "        return exc\n"
            "    return None\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert findings == []

    def test_bare_except_and_bare_return_flagged(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except:\n"
            "        return\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert rule_ids(findings) == ["R3"]
        assert "bare except" in findings[0].message


class TestR4RngDiscipline:
    def test_flags_global_rng_calls(self):
        findings, _ = analyze_fixture("r4_global_rng.py", "src/repro/x.py")
        assert rule_ids(findings) == ["R4", "R4"]
        messages = " | ".join(f.message for f in findings)
        assert "random.shuffle" in messages
        assert "random.randint" in messages

    def test_numpy_global_flagged_but_default_rng_allowed(self):
        source = (
            "import numpy as np\n"
            "def draw(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(3) + np.random.randint(3)\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert rule_ids(findings) == ["R4"]
        assert "np.random.randint" in findings[0].message


class TestR5CounterDiscipline:
    def test_flags_private_nonhelper_and_subscript(self):
        findings, _ = analyze_fixture(
            "r5_counter_poke.py", "src/repro/engine/executor.py"
        )
        assert rule_ids(findings) == ["R5", "R5", "R5"]
        messages = " | ".join(f.message for f in findings)
        assert "private counter state" in messages
        assert "'.increment'" in messages
        assert "item access" in messages

    def test_instrument_module_itself_is_exempt(self):
        findings, _ = analyze_fixture(
            "r5_counter_poke.py", "src/repro/engine/instrument.py"
        )
        assert findings == []


class TestR6RegistryCompleteness:
    def test_codec_pair_check(self):
        findings, _ = analyze_fixture(
            "r6_codec_missing_pair.py", "src/repro/discovery/codec.py"
        )
        assert rule_ids(findings) == ["R6"]
        assert "write_header() has no matching read_header()" in (
            findings[0].message
        )

    def test_codec_pair_check_only_in_codec_modules(self):
        findings, _ = analyze_fixture(
            "r6_codec_missing_pair.py", "src/repro/discovery/state.py"
        )
        assert findings == []

    def test_all_drift(self):
        findings, _ = analyze_fixture(
            "r6_all_drift.py", "src/repro/discovery/__init__.py"
        )
        assert rule_ids(findings) == ["R6", "R6"]
        by_severity = {f.severity: f for f in findings}
        assert "missing_name" in by_severity[Severity.ERROR].message
        assert "basename" in by_severity[Severity.WARNING].message

    def test_pep562_lazy_exports_count_as_bound(self):
        source = (
            "import typing\n"
            "if typing.TYPE_CHECKING:\n"
            "    from os.path import join\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "__all__ = ['join', 'missing_name']\n"
        )
        path = "src/repro/discovery/__init__.py"
        findings, _ = analyze_source(source, path)
        assert [f.message for f in findings] == [
            "__all__ exports 'missing_name' but the module never imports "
            "or defines it"
        ]
        # Without a module __getattr__ nothing serves the name at run
        # time, so a TYPE_CHECKING import binds nothing.
        eager = source.replace("__getattr__", "getattr_")
        findings, _ = analyze_source(eager, path)
        assert len(findings) == 2


class TestR7StageNameDiscipline:
    def fixture_facts(self):
        _, facts = analyze_fixture(
            "r7_stage_names.py", "tests/robustness/test_x.py"
        )
        return facts["R7"]

    def test_collects_definitions_and_references(self):
        facts = self.fixture_facts()
        defined = {f["stage"] for f in facts if f["kind"] == "defined"}
        refs = {f["stage"] for f in facts if f["kind"] == "ref"}
        assert defined == {"parse", "synthesize"}
        assert refs == {"parse", "ghost-stage"}

    def test_finalize_flags_unknown_stage(self):
        (rule,) = all_rules(only=["R7"])
        findings = rule.finalize({"tests/robustness/test_x.py": self.fixture_facts()})
        assert rule_ids(findings) == ["R7"]
        assert "'ghost-stage'" in findings[0].message
        assert findings[0].severity is Severity.WARNING

    def test_finalize_silent_without_definitions(self):
        (rule,) = all_rules(only=["R7"])
        refs_only = [{"kind": "ref", "stage": "ghost", "line": 3}]
        assert rule.finalize({"a.py": refs_only}) == []


class TestSuppressions:
    def test_inline_disable(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:  # repro-lint: disable=R3\n"
            "        pass\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert findings == []

    def test_disable_next_line(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    # repro-lint: disable-next-line=R3\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert findings == []

    def test_disable_file_in_header(self):
        source = (
            "# repro-lint: disable-file=R4\n"
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert findings == []

    def test_disable_file_ignored_past_header_window(self):
        padding = "\n" * 15
        source = (
            padding
            + "# repro-lint: disable-file=R4\n"
            + "import random\n"
            + "def draw():\n"
            + "    return random.random()\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert rule_ids(findings) == ["R4"]

    def test_disable_wrong_rule_keeps_finding(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:  # repro-lint: disable=R1\n"
            "        pass\n"
        )
        findings, _ = analyze_source(source, "mod.py")
        assert rule_ids(findings) == ["R3"]

    def test_suppressions_can_be_bypassed(self):
        source = (
            "def probe(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:  # repro-lint: disable=R3\n"
            "        pass\n"
        )
        findings, _ = analyze_source(
            source, "mod.py", respect_suppressions=False
        )
        assert rule_ids(findings) == ["R3"]
