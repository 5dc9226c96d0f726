"""The codebase-specific rules (R1–R10).

Each rule machine-checks one of the cross-cutting laws PRs 1–4
introduced:

====  =======================  ==================================================
id    name                     law
====  =======================  ==================================================
R1    codec-determinism        equal states must encode to equal bytes: no
                               unordered set/frozenset iteration feeding output
                               in determinism-critical modules, no ``id()`` /
                               ``hash()`` sort keys anywhere
R2    picklability             work shipped through ``Executor.map_list`` /
                               ``tree_aggregate*`` must be picklable: no
                               lambdas or locally-defined functions at fan-out
                               call sites (the process backend silently
                               degrades to a serial rescue)
R3    exception-discipline     supervision never swallows errors: a broad
                               ``except`` must record (counter, log, or
                               ``last_*_error``) or re-raise
R4    rng-discipline           all randomness flows through seeded RNG
                               instances, never the global ``random`` module
                               state
R5    counter-discipline       ``instrument`` counters mutate only through the
                               thread-safe ``add`` / ``set`` helpers
R6    registry-completeness    every codec encoder has a decoder (and vice
                               versa); ``__init__`` ``__all__`` lists match
                               what is actually imported
R7    stage-name-discipline    fault-plan stage names must match a
                               ``StageTimer`` / ``stage_scope`` label defined
                               somewhere in the linted tree
R8    determinism-taint        nondeterminism sources must not reach codec /
                               ``to_bytes`` / render sinks through *any* call
                               path (interprocedural; ``sorted()`` sanitizes
                               order taint)
R9    shared-state-mutation    tasks handed to executor fan-out must not
                               mutate driver-side shared objects (the static
                               analogue of a race detector)
R10   monoid-protocol          ``DiscoveryState``/``Sketch`` implementers
                               cover the full monoid+codec surface; paired
                               codec functions agree on arity
====  =======================  ==================================================

R1–R6 are per-file; R7 contributes per-file *facts* (labels defined,
stages referenced) and reconciles them in :meth:`Rule.finalize`.
R8–R10 share one per-file extraction (symbol skeleton + taint facts)
and resolve everything on the driver-side project model built from the
call graph — see :mod:`repro.analysis.callgraph`,
:mod:`repro.analysis.taint`, and :mod:`repro.analysis.summaries`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Rule, RuleContext, register_rule
from repro.analysis.findings import Finding, Severity

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _callable_name(func: ast.expr) -> Optional[str]:
    """The trailing name of a call target (``a.b.c()`` → ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _string_value(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_unordered_expr(node: ast.expr) -> bool:
    """Syntactically a set/frozenset value (hash-ordered iteration)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _callable_name(node.func) in ("set", "frozenset")
    return False


class _ScopeStack:
    """Names bound to nested functions / lambdas, per enclosing scope."""

    def __init__(self) -> None:
        self._scopes: List[Set[str]] = []

    def push(self) -> None:
        self._scopes.append(set())

    def pop(self) -> None:
        self._scopes.pop()

    def bind_local_callable(self, name: str) -> None:
        if self._scopes:
            self._scopes[-1].add(name)

    def is_local_callable(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    @property
    def depth(self) -> int:
        return len(self._scopes)


# ---------------------------------------------------------------------------
# R1 — codec-determinism
# ---------------------------------------------------------------------------

#: Modules whose output bytes must be a pure function of the value.
DETERMINISM_CRITICAL_MODULES = (
    "repro/discovery/codec.py",
    "repro/discovery/state.py",
    "repro/io/fastpath.py",
    "repro/jsontypes/tokenizer.py",
    "repro/schema/render.py",
    "repro/schema/jsonschema.py",
)

#: Sort keys whose value changes across processes (PYTHONHASHSEED, heap
#: layout), so any ordering built on them is unstable.
_UNSTABLE_KEY_FUNCS = ("id", "hash")


@register_rule
class CodecDeterminismRule(Rule):
    rule_id = "R1"
    name = "codec-determinism"
    severity = Severity.ERROR
    law = (
        "equal states encode to equal bytes: determinism-critical "
        "modules never let hash-ordered set iteration reach output, "
        "and nothing sorts by id()/hash()"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        critical = any(
            ctx.matches_module(module)
            for module in DETERMINISM_CRITICAL_MODULES
        )
        visitor = _DeterminismVisitor(self, ctx, findings, critical)
        visitor.visit(ctx.tree)
        return findings, []


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, rule, ctx, findings, critical: bool):
        self._rule = rule
        self._ctx = ctx
        self._findings = findings
        self._critical = critical
        # Name → bool: locals assigned a set-valued expression.  One
        # flat map with function-scoped save/restore keeps it simple.
        self._set_valued: Dict[str, bool] = {}

    # -- scope bookkeeping ---------------------------------------------------

    def visit_FunctionDef(self, node):
        saved = dict(self._set_valued)
        self.generic_visit(node)
        self._set_valued = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def _note_assignment(self, target, value) -> None:
        if isinstance(target, ast.Name):
            self._set_valued[target.id] = _is_unordered_expr(value)

    def visit_Assign(self, node):
        for target in node.targets:
            self._note_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._note_assignment(node.target, node.value)
        self.generic_visit(node)

    # -- detection -----------------------------------------------------------

    def _is_unordered(self, node: ast.expr) -> bool:
        if _is_unordered_expr(node):
            return True
        return isinstance(node, ast.Name) and self._set_valued.get(
            node.id, False
        )

    def _flag_iteration(self, node: ast.expr, how: str) -> None:
        if self._critical and self._is_unordered(node):
            self._findings.append(
                self._rule.finding(
                    self._ctx,
                    node,
                    f"hash-ordered set iteration {how} in a "
                    "determinism-critical module; wrap in sorted()",
                )
            )

    def visit_For(self, node):
        self._flag_iteration(node.iter, "drives a for loop")
        self.generic_visit(node)

    def _visit_comprehension_generators(self, node):
        for gen in node.generators:
            self._flag_iteration(gen.iter, "drives a comprehension")

    def visit_ListComp(self, node):
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    visit_GeneratorExp = visit_ListComp
    visit_DictComp = visit_ListComp

    def visit_SetComp(self, node):
        # Building another set is fine; consuming one is what's flagged.
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = _callable_name(node.func)
        if name in ("list", "tuple", "enumerate", "join") and node.args:
            consumer = "feeds " + (
                "str.join" if name == "join" else f"{name}()"
            )
            self._flag_iteration(node.args[0], consumer)
        self._check_sort_key(node, name)
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call, name: Optional[str]) -> None:
        # Unstable sort keys are flagged in EVERY module: a repr-stable
        # order is a law of the whole codebase (PR 2's determinism fix).
        if name not in ("sorted", "sort", "min", "max"):
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            bad = self._unstable_key(keyword.value)
            if bad is not None:
                self._findings.append(
                    self._rule.finding(
                        self._ctx,
                        keyword.value,
                        f"sort key uses {bad}(), which is not stable "
                        "across processes; sort by value or repr",
                    )
                )

    @staticmethod
    def _unstable_key(key: ast.expr) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in _UNSTABLE_KEY_FUNCS:
            return key.id
        if isinstance(key, ast.Lambda):
            for sub in ast.walk(key.body):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in _UNSTABLE_KEY_FUNCS
                ):
                    return sub.func.id
        return None


# ---------------------------------------------------------------------------
# R2 — picklability
# ---------------------------------------------------------------------------

# Methods that hand their callable arguments to an executor backend
# (``map_shards`` is the shard coordinator's fan-out).  One definition,
# shared with the interprocedural engine: R2 checks the *shape* of the
# task expression, R9 checks what the task *does*.
from repro.analysis.taint import FANOUT_METHODS  # noqa: E402


@register_rule
class PicklabilityRule(Rule):
    rule_id = "R2"
    name = "picklability"
    severity = Severity.WARNING
    law = (
        "ops shipped to the process backend must pickle: executor "
        "fan-out call sites take module-level callables (or partials "
        "over them), never lambdas or locally-defined functions"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        visitor = _PicklabilityVisitor(self, ctx, findings)
        visitor.visit(ctx.tree)
        return findings, []


class _PicklabilityVisitor(ast.NodeVisitor):
    def __init__(self, rule, ctx, findings):
        self._rule = rule
        self._ctx = ctx
        self._findings = findings
        self._scopes = _ScopeStack()

    def visit_FunctionDef(self, node):
        # A def nested inside another function is only picklable by
        # value, which stock pickle cannot do.
        self._scopes.bind_local_callable(node.name)
        self._scopes.push()
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes.bind_local_callable(target.id)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in FANOUT_METHODS
        ):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                self._check_arg(node.func.attr, arg)
        self.generic_visit(node)

    def _check_arg(self, method: str, arg: ast.expr) -> None:
        if isinstance(arg, ast.Lambda):
            self._emit(arg, method, "a lambda")
        elif isinstance(arg, ast.Name) and self._scopes.is_local_callable(
            arg.id
        ):
            self._emit(
                arg, method, f"locally-defined function {arg.id!r}"
            )
        elif (
            isinstance(arg, ast.Call)
            and _callable_name(arg.func) == "partial"
            and arg.args
        ):
            # partial(...) is picklable iff the wrapped callable is.
            self._check_arg(method, arg.args[0])

    def _emit(self, node: ast.expr, method: str, what: str) -> None:
        self._findings.append(
            self._rule.finding(
                self._ctx,
                node,
                f"{what} passed to {method}() cannot pickle; the "
                "process backend degrades to a serial rescue — use a "
                "module-level function (or functools.partial over one)",
            )
        )


# ---------------------------------------------------------------------------
# R3 — exception-discipline
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = ("Exception", "BaseException")
#: Assignment-target substrings that count as recording the failure.
_RECORDING_NAME_HINTS = ("error", "err", "fail", "last")


@register_rule
class ExceptionDisciplineRule(Rule):
    rule_id = "R3"
    name = "exception-discipline"
    severity = Severity.ERROR
    law = (
        "supervision never swallows errors: a bare/broad except must "
        "re-raise, call a recording helper, or store the error"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if not self._records(node.body):
                caught = (
                    "bare except"
                    if node.type is None
                    else f"except {ast.unparse(node.type)}"
                )
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{caught} swallows the error: record it "
                        "(counter / log / last_*_error) or re-raise",
                    )
                )
        return findings, []

    @staticmethod
    def _is_broad(node: Optional[ast.expr]) -> bool:
        if node is None:
            return True
        names: List[ast.expr] = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        return any(
            isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS
            for name in names
        )

    @classmethod
    def _records(cls, body) -> bool:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, (ast.Raise, ast.Call)):
                    return True
                # ``return exc`` propagates the error as a value; only a
                # bare ``return``/``return None`` counts as swallowing.
                if isinstance(node, ast.Return) and node.value is not None:
                    if not (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None
                    ):
                        return True
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(cls._is_recording_target(t) for t in targets):
                        return True
        return False

    @staticmethod
    def _is_recording_target(target: ast.expr) -> bool:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return False
        lowered = name.lower()
        return any(hint in lowered for hint in _RECORDING_NAME_HINTS)


# ---------------------------------------------------------------------------
# R4 — rng-discipline
# ---------------------------------------------------------------------------

#: ``random`` module attributes that *construct* seeded generators.
_SEEDED_RNG_FACTORIES = frozenset({"Random", "SystemRandom"})
#: ``numpy.random`` attributes that construct seeded generators.
_SEEDED_NP_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64"}
)


@register_rule
class RngDisciplineRule(Rule):
    rule_id = "R4"
    name = "rng-discipline"
    severity = Severity.ERROR
    law = (
        "all randomness flows through seeded RNG instances "
        "(random.Random(seed), numpy default_rng(seed)); the global "
        "module-level RNG is shared mutable state and unseedable per "
        "call site"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        random_aliases: Set[str] = set()
        numpy_aliases: Set[str] = set()
        from_imports: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name in ("numpy", "numpy.random"):
                        numpy_aliases.add(
                            (alias.asname or alias.name).split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_RNG_FACTORIES:
                            from_imports.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_aliases.add(alias.asname or "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            flagged = self._flagged_call(
                node.func, random_aliases, numpy_aliases, from_imports
            )
            if flagged is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{flagged} draws from the global RNG; use a "
                        "seeded random.Random / numpy default_rng "
                        "instance instead",
                    )
                )
        return findings, []

    @staticmethod
    def _flagged_call(
        func, random_aliases, numpy_aliases, from_imports
    ) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in from_imports:
            return f"random.{func.id}"
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name) and value.id in random_aliases:
            if func.attr not in _SEEDED_RNG_FACTORIES:
                return f"{value.id}.{func.attr}"
            return None
        # numpy.random.<fn>(...) — either via ``np.random`` or a direct
        # ``from numpy import random as nprand`` alias.
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in numpy_aliases
            and func.attr not in _SEEDED_NP_FACTORIES
        ):
            return f"{value.value.id}.random.{func.attr}"
        return None


# ---------------------------------------------------------------------------
# R5 — counter-discipline
# ---------------------------------------------------------------------------

#: The thread-safe public surface of :class:`repro.engine.instrument.Counters`.
_COUNTER_METHODS = frozenset({"add", "set", "get", "snapshot", "reset"})

#: The module that implements the helpers (exempt by definition).
_COUNTERS_HOME = "repro/engine/instrument.py"


@register_rule
class CounterDisciplineRule(Rule):
    rule_id = "R5"
    name = "counter-discipline"
    severity = Severity.ERROR
    law = (
        "instrument counters mutate only through the lock-taking "
        "add()/set() helpers; direct attribute pokes race with worker "
        "threads"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        if ctx.matches_module(_COUNTERS_HOME):
            return findings, []
        assignment_targets = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                assignment_targets.update(id(t) for t in targets)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and self._is_counters(
                node.value
            ):
                if node.attr.startswith("_"):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"access to private counter state "
                            f"'.{node.attr}' bypasses the lock; use "
                            "counters.add()/set()/snapshot()",
                        )
                    )
                elif id(node) in assignment_targets or (
                    node.attr not in _COUNTER_METHODS
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"counter attribute '.{node.attr}' is not a "
                            "thread-safe helper; use counters.add() or "
                            "counters.set()",
                        )
                    )
            elif isinstance(node, ast.Subscript) and self._is_counters(
                node.value
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "counters does not support item access; use "
                        "counters.add()/get()",
                    )
                )
        return findings, []

    @staticmethod
    def _is_counters(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "counters"
        return isinstance(node, ast.Attribute) and node.attr == "counters"


# ---------------------------------------------------------------------------
# R6 — registry-completeness
# ---------------------------------------------------------------------------

#: Modules whose top-level functions are held to the encoder/decoder
#: pairing law: the state codec plus the PR-8 enrichment modules,
#: which serialize sketches and tagged-union decisions themselves.
_CODEC_MODULES = ("codec", "sketches", "tagged_unions")

#: Encoder/decoder name-prefix pairs checked in codec modules.
_CODEC_PAIRS = (
    ("dumps_", "loads_"),
    ("write_", "read_"),
    ("_write_", "_read_"),
)


def _is_type_checking_block(node: ast.stmt) -> bool:
    """``if TYPE_CHECKING:`` (or ``typing.TYPE_CHECKING``)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


@register_rule
class RegistryCompletenessRule(Rule):
    rule_id = "R6"
    name = "registry-completeness"
    severity = Severity.ERROR
    law = (
        "registries stay closed under their operations: every codec "
        "encoder kind has a decoder arm (and vice versa), and "
        "__init__ __all__ lists match what is imported"
    )

    def check(self, ctx: RuleContext):
        findings: List[Finding] = []
        basename = ctx.module_parts[-1]
        if basename in _CODEC_MODULES:
            self._check_codec_pairs(ctx, findings)
        if basename == "__init__":
            self._check_all_drift(ctx, findings)
        return findings, []

    def _check_codec_pairs(self, ctx, findings) -> None:
        functions: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in ctx.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        for forward, backward in _CODEC_PAIRS:
            for name, node in functions.items():
                for this, other in ((forward, backward), (backward, forward)):
                    if not name.startswith(this):
                        continue
                    counterpart = other + name[len(this):]
                    if counterpart not in functions:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"codec {name}() has no matching "
                                f"{counterpart}(): every encoder kind "
                                "needs a decoder arm (and vice versa)",
                            )
                        )
                    break

    def _check_all_drift(self, ctx, findings) -> None:
        all_node = None
        exported: List[str] = []
        bound: Set[str] = set()
        from_imported: Dict[str, ast.stmt] = {}
        # PEP 562 lazy exports: a module-level __getattr__ serves the
        # names that an ``if TYPE_CHECKING:`` block imports for static
        # readers, so those count as bound.
        lazy = any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in ctx.tree.body
        )
        for node in ctx.tree.body:
            if lazy and _is_type_checking_block(node):
                for inner in node.body:
                    if isinstance(inner, ast.ImportFrom):
                        bound.update(
                            alias.asname or alias.name
                            for alias in inner.names
                        )
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            all_node = node
                            exported = [
                                element.value
                                for element in getattr(
                                    node.value, "elts", []
                                )
                                if isinstance(element, ast.Constant)
                                and isinstance(element.value, str)
                            ]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name
                    bound.add(name)
                    if not name.startswith("_") and alias.name != "*":
                        from_imported[name] = node
        if all_node is None:
            return
        for name in exported:
            if name not in bound:
                findings.append(
                    self.finding(
                        ctx,
                        all_node,
                        f"__all__ exports {name!r} but the module never "
                        "imports or defines it",
                    )
                )
        listed = set(exported)
        for name, node in from_imported.items():
            if name not in listed:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name!r} is imported into the package "
                        "namespace but missing from __all__",
                        severity=Severity.WARNING,
                    )
                )


# ---------------------------------------------------------------------------
# R7 — stage-name-discipline
# ---------------------------------------------------------------------------


def _fault_spec_stages(text: str) -> List[str]:
    """Stage labels referenced by a ``REPRO_FAULTS``-grammar string."""
    stages = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk or ":" not in chunk:
            continue
        stage = chunk.split(":", 1)[0].strip()
        if stage and stage != "*":
            stages.append(stage)
    return stages


@register_rule
class StageNameDisciplineRule(Rule):
    rule_id = "R7"
    name = "stage-name-discipline"
    severity = Severity.WARNING
    law = (
        "fault-plan stage names target real pipeline stages: every "
        "stage referenced by a FaultSpec / REPRO_FAULTS string matches "
        "a StageTimer.stage() / stage_scope() label defined in the "
        "linted tree"
    )

    def check(self, ctx: RuleContext):
        facts: List[dict] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callable_name(node.func)
            if name in ("stage", "stage_scope") and node.args:
                label = _string_value(node.args[0])
                if label is not None:
                    facts.append({"kind": "defined", "stage": label})
            self._collect_references(node, name, facts)
        return [], facts

    @staticmethod
    def _collect_references(node: ast.Call, name, facts: List[dict]) -> None:
        spec_text = None
        if name in ("parse", "install_fault_plan") and node.args:
            spec_text = _string_value(node.args[0])
        elif name == "setenv" and len(node.args) >= 2:
            if _string_value(node.args[0]) == "REPRO_FAULTS":
                spec_text = _string_value(node.args[1])
        elif name == "FaultSpec":
            stage = None
            if node.args:
                stage = _string_value(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "stage":
                    stage = _string_value(keyword.value)
            if stage is not None and stage != "*":
                facts.append(
                    {"kind": "ref", "stage": stage, "line": node.lineno}
                )
            return
        if spec_text is None:
            return
        for stage in _fault_spec_stages(spec_text):
            facts.append({"kind": "ref", "stage": stage, "line": node.lineno})

    def finalize(self, facts_by_file, context=None):
        defined: Set[str] = set()
        references: List[Tuple[str, str, int]] = []
        for path, facts in facts_by_file.items():
            for fact in facts:
                if fact.get("kind") == "defined":
                    defined.add(fact["stage"])
                elif fact.get("kind") == "ref":
                    references.append(
                        (path, fact["stage"], fact.get("line", 1))
                    )
        if not defined:
            # Linting a subtree with no stage definitions in sight:
            # there is nothing to reconcile against.
            return []
        findings = []
        for path, stage, line in sorted(references):
            if stage not in defined:
                # The known-stage enumeration is deliberately NOT part of
                # the message: messages feed baseline fingerprints, and a
                # stage added anywhere would invalidate every R7 entry.
                findings.append(
                    Finding(
                        file=path,
                        line=line,
                        column=0,
                        rule_id=self.rule_id,
                        severity=self.severity,
                        message=(
                            f"fault plan targets stage {stage!r}, which "
                            f"no StageTimer/stage_scope defines"
                        ),
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# R8/R9/R10 — the interprocedural rules
# ---------------------------------------------------------------------------
#
# All three share one per-file extraction (symbol skeleton + taint
# facts) stored under the common facts key "XP", and one driver-side
# project model (symbol table → call graph → SCC-ordered summary
# fixpoint) built at most once per finalize pass and memoized on the
# FinalizeContext.

from repro.analysis.summaries import (  # noqa: E402
    build_project_model,
    extract_interproc_facts,
    resolve_taint,
)
from repro.analysis.taint import ORDER_KINDS  # noqa: E402
from repro.engine.instrument import counters  # noqa: E402

#: Shared facts key for the interprocedural payload.
_XP_FACTS_KEY = "XP"
#: Finalize-state key for the summary store (digests + summaries + deps).
_XP_STATE_KEY = "XP"


def _xp_payload(ctx: RuleContext) -> dict:
    """The per-file interprocedural payload, computed once per file
    even when several XP rules are active (memoized on the context)."""
    payload = ctx.__dict__.get("_xp_payload")
    if payload is None:
        payload = extract_interproc_facts(ctx.path, ctx.tree)
        ctx.__dict__["_xp_payload"] = payload
    return payload


def _short_id(function_id: str) -> str:
    return function_id.partition("::")[2] or function_id


def _is_method_id(function_id: str) -> bool:
    return "." in function_id.partition("::")[2]


def _prev_dep_closure(
    changed: Set[str], prev_deps: Dict[str, List[str]]
) -> Set[str]:
    """Files that depended (last run) on any changed file, transitively.

    The current call graph cannot see edges into functions a change
    *removed*; the previous run's file-dependency map can.
    """
    reverse: Dict[str, List[str]] = {}
    for path, deps in prev_deps.items():
        for dep in deps:
            reverse.setdefault(dep, []).append(path)
    seen = set(changed)
    queue = list(changed)
    while queue:
        for caller in reverse.get(queue.pop(), ()):
            if caller not in seen:
                seen.add(caller)
                queue.append(caller)
    return seen


def _file_deps(model) -> Dict[str, List[str]]:
    """rel path → sorted rel paths of files its functions call into."""
    deps: Dict[str, Set[str]] = {}
    for caller, callees in model.graph.edges.items():
        caller_file = model.file_of.get(caller)
        if caller_file is None:
            continue
        bucket = deps.setdefault(caller_file, set())
        for callee in callees:
            callee_file = model.file_of.get(callee)
            if callee_file is not None and callee_file != caller_file:
                bucket.add(callee_file)
    return {path: sorted(files) for path, files in deps.items() if files}


def _project_model(facts_by_file, context):
    """Build (or reuse) the project model for one finalize pass.

    With a :class:`~repro.analysis.base.FinalizeContext`, summaries are
    incremental: files whose digests match the previous finalize state
    reuse their resolved summaries, and only the changed files plus
    their transitive callers re-resolve (counted in
    ``lint.summary_files_recomputed``).
    """
    if context is not None and "xp_model" in context.shared:
        return context.shared["xp_model"]

    payloads = {
        path: facts[0]
        for path, facts in facts_by_file.items()
        if facts and isinstance(facts[0], dict) and "symbols" in facts[0]
    }

    previous_summaries = None
    changed = None
    executor = None
    if context is not None:
        executor = context.executor
        previous = context.previous.get(_XP_STATE_KEY) or {}
        prev_digests = previous.get("digests") or {}
        current_digests = {
            path: context.digests.get(path, "") for path in payloads
        }
        if prev_digests and set(prev_digests) == set(current_digests):
            changed_set = {
                path
                for path, digest in current_digests.items()
                if digest != prev_digests.get(path) or not digest
            }
            changed_set = _prev_dep_closure(
                changed_set, previous.get("deps") or {}
            )
            changed = sorted(changed_set)
            previous_summaries = previous.get("summaries") or {}

    model = build_project_model(
        payloads,
        executor=executor,
        previous_summaries=previous_summaries,
        changed_files=changed,
    )
    counters.add("lint.summary_files_recomputed", len(model.dirty_files))
    counters.add(
        "lint.summary_functions_recomputed",
        sum(
            1
            for path in model.file_of.values()
            if path in model.dirty_files
        ),
    )
    if context is not None:
        context.new_state[_XP_STATE_KEY] = {
            "digests": {
                path: context.digests.get(path, "") for path in payloads
            },
            "summaries": model.summaries_by_file(),
            "deps": _file_deps(model),
        }
        context.shared["xp_model"] = model
    return model


class _InterprocRule(Rule):
    """Base for the engine-backed rules: shared extraction, no
    per-file findings (everything resolves in finalize)."""

    facts_key = _XP_FACTS_KEY

    def check(self, ctx: RuleContext):
        return [], [_xp_payload(ctx)]


@register_rule
class DeterminismTaintRule(_InterprocRule):
    rule_id = "R8"
    name = "determinism-taint"
    severity = Severity.ERROR
    law = (
        "nondeterminism sources (hash-ordered sets, completion order, "
        "urandom/time, unstable sort keys) never reach codec/to_bytes/"
        "render sinks through any call path; sorted() sanitizes order"
    )

    def finalize(self, facts_by_file, context=None):
        model = _project_model(facts_by_file, context)
        previous = {}
        if context is not None:
            previous = (context.previous.get(self.rule_id) or {}).get(
                "findings", {}
            )
        findings_by_file: Dict[str, List[dict]] = {}
        for path in sorted(facts_by_file):
            if path in model.dirty_files or path not in previous:
                findings_by_file[path] = self._file_findings(path, model)
            else:
                findings_by_file[path] = previous[path]
        if context is not None:
            context.new_state[self.rule_id] = {
                "findings": findings_by_file
            }
        return [
            Finding.from_dict(payload)
            for path in sorted(findings_by_file)
            for payload in findings_by_file[path]
        ]

    def _file_findings(self, path: str, model) -> List[dict]:
        env = model.env
        out: List[dict] = []
        seen: Set[Tuple[int, str]] = set()

        def emit(line: int, column: int, message: str) -> None:
            if (line, message) in seen:
                return
            seen.add((line, message))
            out.append(
                Finding(
                    file=path,
                    line=line,
                    column=column,
                    rule_id=self.rule_id,
                    severity=self.severity,
                    message=message,
                ).to_dict()
            )

        for function_id in sorted(
            fid for fid, p in model.file_of.items() if p == path
        ):
            facts = model.functions[function_id]
            qualname = _short_id(function_id)
            for sink in facts.get("sinks", ()):
                kinds, _ = resolve_taint(sink.get("taint"), env)
                if sink["kind"] == "iteration":
                    kinds = kinds & ORDER_KINDS
                if not kinds:
                    continue
                emit(
                    sink["line"],
                    sink.get("col", 0),
                    f"nondeterministic value ({', '.join(sorted(kinds))}) "
                    f"reaches the {sink['detail']} {sink['kind']} sink in "
                    f"{qualname}(); order output with sorted() or use a "
                    "canonical collection",
                )
            for event in facts.get("calls", ()):
                callee = event.get("f")
                if callee is None:
                    continue
                offset = event.get("o", 0)
                for param_str, centry in sorted(
                    env.ps.get(callee, {}).items()
                ):
                    arg = event.get("a", {}).get(
                        str(int(param_str) - offset)
                    )
                    if arg is None:
                        continue
                    kinds, _ = resolve_taint(arg, env)
                    if centry.get("z"):
                        kinds = kinds - ORDER_KINDS
                    if centry["kind"] == "iteration":
                        kinds = kinds & ORDER_KINDS
                    if not kinds:
                        continue
                    chain = " -> ".join(
                        _short_id(link[0]) for link in centry["chain"]
                    )
                    emit(
                        event["line"],
                        0,
                        "nondeterministic value "
                        f"({', '.join(sorted(kinds))}) passed from "
                        f"{qualname}() reaches the {centry['detail']} "
                        f"{centry['kind']} sink via {chain}; order it "
                        "with sorted() before handing it to the codec",
                    )
        return out


@register_rule
class SharedStateMutationRule(_InterprocRule):
    rule_id = "R9"
    name = "shared-state-mutation"
    severity = Severity.ERROR
    law = (
        "tasks handed to executor fan-out never mutate driver-side "
        "shared objects (captured instances, partial-bound arguments, "
        "module globals) except through the counters API"
    )

    def finalize(self, facts_by_file, context=None):
        model = _project_model(facts_by_file, context)
        env = model.env
        findings: List[Finding] = []
        for function_id in sorted(model.functions):
            facts = model.functions[function_id]
            path = model.file_of[function_id]
            for fanout in facts.get("fanouts", ()):
                for task in fanout.get("tasks", ()):
                    callee = task.get("f")
                    if callee is None:
                        continue
                    mutations = env.mut.get(callee)
                    if not mutations:
                        continue
                    reasons = self._shared_mutations(callee, task, mutations)
                    if not reasons:
                        continue
                    findings.append(
                        Finding(
                            file=path,
                            line=fanout["line"],
                            column=0,
                            rule_id=self.rule_id,
                            severity=self.severity,
                            message=(
                                f"task {_short_id(callee)}() handed to "
                                f"{fanout['method']}() mutates "
                                f"{'; '.join(reasons)} — parallel workers "
                                "race on driver-side state; return values "
                                "or use the counters API"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _shared_mutations(
        callee: str, task: dict, mutations: dict
    ) -> List[str]:
        reasons: List[str] = []
        mutated_globals = mutations.get("g", ())
        if mutated_globals:
            names = ", ".join(sorted(mutated_globals))
            reasons.append(f"module global(s) {names}")
        mutated_params = set(mutations.get("p", ()))
        bound = task.get("bound")
        if bound is not None:
            # partial(f, a, b): bound argument k is callee parameter k,
            # shared by every invocation the executor makes.
            for index, root in enumerate(bound):
                if index not in mutated_params:
                    continue
                if root.get("k") == "literal":
                    continue
                if root.get("k") == "global":
                    what = f"partial-bound module global {root['n']!r}"
                else:
                    what = f"partial-bound argument {index}"
                reasons.append(what)
        elif _is_method_id(callee) and 0 in mutated_params:
            reasons.append("shared instance state (self)")
        return reasons


#: The serialization-monoid surface every implementer must cover.
_PROTOCOL_SURFACE = ("empty", "absorb", "merge", "to_bytes", "from_bytes")
#: Base-class names that put a class under the protocol law.
_PROTOCOL_ROOTS = frozenset({"DiscoveryState", "Sketch"})
#: (writer prefix, reader prefix, expected writer−reader arity delta):
#: ``write_x(enc, value)`` pairs with ``read_x(dec)``; ``dumps_x(value)``
#: pairs with ``loads_x(data)``.
_SIGNATURE_PAIRS = (
    ("dumps_", "loads_", 0),
    ("write_", "read_", 1),
    ("_write_", "_read_", 1),
)


@register_rule
class MonoidProtocolRule(_InterprocRule):
    rule_id = "R10"
    name = "monoid-protocol"
    severity = Severity.ERROR
    law = (
        "every DiscoveryState/Sketch implementer covers the full "
        "empty/absorb/merge/to_bytes/from_bytes surface with concrete "
        "methods, and paired codec functions agree on arity"
    )

    def finalize(self, facts_by_file, context=None):
        model = _project_model(facts_by_file, context)
        symbols = model.symbols
        findings: List[Finding] = []
        for module in sorted(symbols.modules):
            facts = symbols.modules[module]
            path = symbols.module_paths[module]
            self._check_protocol_surface(
                symbols, module, facts, path, findings
            )
            if module.rsplit(".", 1)[-1] in _CODEC_MODULES:
                self._check_signatures(facts, path, findings)
        return findings

    def _check_protocol_surface(
        self, symbols, module, facts, path, findings
    ) -> None:
        for class_name in sorted(facts.get("classes", {})):
            if class_name in _PROTOCOL_ROOTS:
                continue  # the protocol bases themselves define the stubs
            owner = f"{module}::{class_name}"
            chain = symbols.mro(owner)
            if not any(
                link.partition("::")[2] in _PROTOCOL_ROOTS
                for link in chain[1:]
            ):
                continue
            if symbols.subclasses(owner):
                # Intermediate bases may stay abstract; the law binds
                # the leaves that get instantiated.
                continue
            klass = facts["classes"][class_name]
            for method in _PROTOCOL_SURFACE:
                status = self._surface_status(symbols, chain, method)
                if status == "concrete":
                    continue
                how = (
                    "defines no"
                    if status is None
                    else "inherits only an abstract stub for"
                )
                findings.append(
                    Finding(
                        file=path,
                        line=klass.get("line", 1),
                        column=0,
                        rule_id=self.rule_id,
                        severity=self.severity,
                        message=(
                            f"{class_name} implements the "
                            "DiscoveryState/Sketch protocol but "
                            f"{how} {method}(); the full "
                            "empty/absorb/merge/to_bytes/from_bytes "
                            "surface is required for checkpoint, "
                            "shard-merge, and resume"
                        ),
                    )
                )

    @staticmethod
    def _surface_status(symbols, chain, method: str):
        for link in chain:
            module, _, class_name = link.partition("::")
            owner_facts = symbols.modules.get(module)
            if owner_facts is None:
                continue
            methods = owner_facts.get("classes", {}).get(class_name, {}).get(
                "methods", {}
            )
            if method in methods:
                return methods[method]
        return None

    def _check_signatures(self, facts, path, findings) -> None:
        functions = facts.get("functions", {})
        if not isinstance(functions, dict):
            return
        for name in sorted(functions):
            for writer_prefix, reader_prefix, delta in _SIGNATURE_PAIRS:
                if not name.startswith(writer_prefix):
                    continue
                counterpart = reader_prefix + name[len(writer_prefix):]
                writer = functions[name]
                reader = functions.get(counterpart)
                # Existence of the counterpart is R6's law; R10 only
                # judges pairs that do exist.
                if reader is None:
                    break
                if writer.get("vararg") or reader.get("vararg"):
                    break
                writer_arity = writer.get("arity")
                reader_arity = reader.get("arity")
                if writer_arity is None or reader_arity is None:
                    break
                if reader_arity != writer_arity - delta:
                    findings.append(
                        Finding(
                            file=path,
                            line=writer.get("line", 1),
                            column=0,
                            rule_id=self.rule_id,
                            severity=self.severity,
                            message=(
                                f"codec pair {name}()/{counterpart}() "
                                "disagree on arity: a reader takes "
                                "exactly the writer's parameters minus "
                                "the value being written, so the pair "
                                "cannot round-trip"
                            ),
                        )
                    )
                break
