"""Local taint extraction: the per-function half of the R8/R9 engine.

Each function is abstractly interpreted once, file-locally, into a
serializable summary — nondeterminism *sources* that reach its return
value, its sink events, its calls (with per-argument taint), its
mutations of parameters/globals, and its executor fan-out sites.  The
summaries are deliberately **parameterized on unknowns**: taint that
flows in from a parameter, a callee's return value, or a class
attribute is recorded symbolically and resolved later by the
SCC-ordered fixpoint in :mod:`repro.analysis.summaries` using the
project call graph.

Source model (``kind`` strings):

================  =====  ======================================
kind              class  construct
================  =====  ======================================
set-order         order  ``set``/``frozenset`` literals, comps,
                         and constructor calls
completion-order  order  ``as_completed(...)`` result streams
unstable-sort     order  ``sorted(..., key=id/hash)``
urandom           value  ``os.urandom``, ``uuid.uuid4/uuid1``,
                         ``secrets.*``
time              value  ``time.time/monotonic/perf_counter*``,
                         ``datetime.now/utcnow/today``
================  =====  ======================================

Sanitizer model: ``sorted(E)`` erases *order* kinds (a sorted sequence
has a canonical order) but never *value* kinds — sorting random bytes
still yields random bytes.  An ``id()``/``hash()`` sort key re-taints
with ``unstable-sort``.

Sink model: inside **sink-scope** functions — any function in a
determinism-critical module, or any function whose name looks like a
codec writer (``to_bytes``, ``write_*``, ``_write_*``, ``dumps_*``,
``render*``) — iteration events (``for``, comprehension generators,
``list``/``tuple``/``enumerate``/``join`` consumption) and write
events (calls into ``write_*``-family helpers and low-level writer
methods) are recorded with the taint of the consumed expression.
Taint arriving through a parameter is exported as a *parameter sink*
so call sites anywhere in the project are checked against it.

The analysis is **optimistic** at every unresolved edge: an unknown
callee, an ambiguous attribute, or dynamic dispatch contributes no
taint.  These rules gate CI; a false positive on code the analysis
cannot understand would be worse than a miss it documents.  Known
blind spots, accepted deliberately: nested function bodies, local
(non-module-level) ``partial`` bindings, and taint carried by loop
variables element-wise.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.callgraph import encode_call_ref

#: Source kinds whose nondeterminism is in *iteration order*.
ORDER_KINDS = frozenset({"set-order", "completion-order", "unstable-sort"})
#: Source kinds whose nondeterminism is in the *value itself*.
VALUE_KINDS = frozenset({"urandom", "time"})

#: Fully-qualified callables that introduce value/order taint.
SOURCE_CALLS = {
    "os.urandom": "urandom",
    "uuid.uuid1": "urandom",
    "uuid.uuid4": "urandom",
    "secrets.token_bytes": "urandom",
    "secrets.token_hex": "urandom",
    "secrets.token_urlsafe": "urandom",
    "secrets.randbits": "urandom",
    "time.time": "time",
    "time.time_ns": "time",
    "time.monotonic": "time",
    "time.monotonic_ns": "time",
    "time.perf_counter": "time",
    "time.perf_counter_ns": "time",
    "datetime.datetime.now": "time",
    "datetime.datetime.utcnow": "time",
    "datetime.datetime.today": "time",
    "datetime.date.today": "time",
    "concurrent.futures.as_completed": "completion-order",
}

#: Trailing call names tainting with completion order even when the
#: import path cannot be resolved (``as_completed`` is unambiguous).
_COMPLETION_NAMES = frozenset({"as_completed"})

#: Builtins whose result carries no taint regardless of arguments.
_PURE_BUILTINS = frozenset(
    {
        "len", "sum", "min", "max", "any", "all", "abs", "round",
        "int", "float", "bool", "str", "repr", "format", "bytes",
        "bytearray", "isinstance", "issubclass", "hasattr", "getattr",
        "callable", "ord", "chr", "hex", "oct", "divmod", "pow",
        "range", "type", "vars", "print",
    }
)

#: Calls that pass their arguments' taint straight through.
_PASSTHROUGH_CALLS = frozenset(
    {"list", "tuple", "reversed", "iter", "enumerate", "zip", "map",
     "filter", "next"}
)

#: Methods that return a view/copy carrying the receiver's taint.
_PASSTHROUGH_METHODS = frozenset(
    {"copy", "union", "intersection", "difference",
     "symmetric_difference", "keys", "values", "items"}
)

#: Methods that mutate their receiver in place (the R9 model).
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "add", "update", "extend", "insert",
        "setdefault", "pop", "popleft", "popitem", "remove", "discard",
        "clear", "sort", "reverse",
    }
)

#: Executor fan-out entry points whose callables cross the
#: thread/process boundary (shared with rule R2).
FANOUT_METHODS = frozenset(
    {
        "map_list",
        "map",
        "flat_map",
        "filter",
        "map_partitions",
        "map_shards",
        "aggregate",
        "tree_aggregate",
        "with_retry",
    }
)

#: Modules whose output bytes must be a pure function of the value
#: (kept in step with rule R1's list).
DETERMINISM_CRITICAL_MODULES = (
    "repro/discovery/codec.py",
    "repro/discovery/state.py",
    "repro/io/fastpath.py",
    "repro/jsontypes/tokenizer.py",
    "repro/schema/render.py",
    "repro/schema/jsonschema.py",
)

#: Function-name shapes that put a function in sink scope anywhere.
_SINK_NAME_PREFIXES = ("write_", "_write_", "dumps_", "render")
_SINK_NAMES = frozenset({"to_bytes"})

#: Low-level writer methods treated as write sinks inside sink scope.
_WRITER_METHODS = frozenset({"raw", "string", "uvarint", "svarint"})

#: Unstable sort-key callables (mirrors R1).
_UNSTABLE_KEY_FUNCS = ("id", "hash")


def is_sink_scope_path(path: str) -> bool:
    """Whether every function in ``path`` is in sink scope."""
    normalized = path.replace("\\", "/")
    return any(
        normalized.endswith(suffix)
        for suffix in DETERMINISM_CRITICAL_MODULES
    )


def is_sink_scope_name(name: str) -> bool:
    """Whether a function name alone places it in sink scope."""
    short = name.rsplit(".", 1)[-1]
    if short in _SINK_NAMES:
        return True
    return any(short.startswith(prefix) for prefix in _SINK_NAME_PREFIXES)


# ---------------------------------------------------------------------------
# the taint lattice value
# ---------------------------------------------------------------------------


class Taint:
    """Sources ∪ parameters ∪ callee-returns ∪ attributes, symbolically."""

    __slots__ = ("srcs", "params", "calls", "attrs")

    def __init__(self, srcs=(), params=(), calls=(), attrs=()):
        self.srcs: Set[str] = set(srcs)
        self.params: Set[int] = set(params)
        #: Each entry: {"ref": str, "line": int, "a": {index: taint-dict}}.
        self.calls: List[dict] = list(calls)
        self.attrs: Set[str] = set(attrs)

    @classmethod
    def empty(cls) -> "Taint":
        return cls()

    def is_empty(self) -> bool:
        return not (self.srcs or self.params or self.calls or self.attrs)

    def union(self, other: "Taint") -> "Taint":
        if other is None or other.is_empty():
            return self
        if self.is_empty():
            return other
        return Taint(
            self.srcs | other.srcs,
            self.params | other.params,
            self.calls + other.calls,
            self.attrs | other.attrs,
        )

    def to_dict(self) -> Optional[dict]:
        """Sparse serializable form (None when empty)."""
        if self.is_empty():
            return None
        payload: dict = {}
        if self.srcs:
            payload["s"] = sorted(self.srcs)
        if self.params:
            payload["p"] = sorted(self.params)
        if self.calls:
            payload["c"] = self.calls
        if self.attrs:
            payload["t"] = sorted(self.attrs)
        return payload

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> "Taint":
        if not payload:
            return cls()
        return cls(
            payload.get("s", ()),
            payload.get("p", ()),
            payload.get("c", ()),
            payload.get("t", ()),
        )


def sanitize_taint(taint: Taint) -> Taint:
    """The value of ``sorted(E)``: known order sources dropped; the
    symbolic remainder is wrapped in a ``{"z": ...}`` marker so the
    resolver strips order kinds the symbols may contribute."""
    payload = taint.to_dict()
    if payload is None:
        return Taint.empty()
    kept_sources = [
        kind for kind in payload.get("s", ()) if kind not in ORDER_KINDS
    ]
    symbolic = Taint(
        params=payload.get("p", ()),
        calls=payload.get("c", ()),
        attrs=payload.get("t", ()),
    )
    out = Taint(srcs=kept_sources)
    symbolic_payload = symbolic.to_dict()
    if symbolic_payload is not None:
        # A sanitized-symbol marker rides along as a pseudo call entry
        # the resolver understands.
        out.calls.append({"z": symbolic_payload})
    return out


# ---------------------------------------------------------------------------
# per-function extraction
# ---------------------------------------------------------------------------


class _FunctionExtractor:
    """One function's abstract interpretation."""

    def __init__(
        self,
        qualname: str,
        node: ast.AST,
        *,
        module: str,
        imports: Dict[str, str],
        module_globals: Set[str],
        global_taints: Dict[str, dict],
        exempt_globals: Set[str],
        enclosing_class: Optional[str],
        sink_scope: bool,
    ):
        self.qualname = qualname
        self.node = node
        self.module = module
        self.imports = imports
        self.module_globals = module_globals
        self.global_taints = global_taints
        self.exempt_globals = exempt_globals
        self.enclosing_class = enclosing_class
        self.sink_scope = sink_scope or is_sink_scope_name(qualname)
        self.params: List[str] = [
            arg.arg
            for arg in (
                list(node.args.posonlyargs) + list(node.args.args)
            )
        ]
        self._param_index = {name: i for i, name in enumerate(self.params)}
        self._env: Dict[str, Taint] = {}
        self._locals: Set[str] = set(self.params)
        self._declared_globals: Set[str] = set()
        self.returns = Taint.empty()
        self.sinks: List[dict] = []
        self.calls: List[dict] = []
        self.fanouts: List[dict] = []
        self.mutated_params: Set[int] = set()
        self.mutated_globals: Set[str] = set()

    # -- driving --------------------------------------------------------------

    def run(self) -> dict:
        body = list(self.node.body)
        self.prepare(body)
        # Two env passes stabilize simple forward/backward flows; the
        # third pass records sinks/calls/returns with the final env.
        for _ in range(2):
            self._interpret(body, record=False)
        self._interpret(body, record=True)
        facts: dict = {"line": self.node.lineno, "params": self.params}
        returns = self.returns.to_dict()
        if returns:
            facts["returns"] = returns
        if self.sinks:
            facts["sinks"] = self.sinks
        if self.calls:
            facts["calls"] = self.calls
        if self.fanouts:
            facts["fanouts"] = self.fanouts
        if self.mutated_params or self.mutated_globals:
            facts["mutations"] = {
                "params": sorted(self.mutated_params),
                "globals": sorted(self.mutated_globals),
            }
        if self.sink_scope:
            facts["sink_scope"] = True
        return facts

    def prepare(self, body: Sequence[ast.stmt]) -> None:
        """Pre-scan for locally bound names and ``global`` declarations."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._locals.add(node.name)
                elif isinstance(node, ast.Global):
                    self._declared_globals.update(node.names)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        self._bind_target(target)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    self._bind_target(node.target)
                elif isinstance(node, ast.For):
                    self._bind_target(node.target)
                elif isinstance(node, ast.withitem):
                    if node.optional_vars is not None:
                        self._bind_target(node.optional_vars)
                elif isinstance(node, ast.ExceptHandler):
                    if node.name:
                        self._locals.add(node.name)
                elif isinstance(node, ast.comprehension):
                    self._bind_target(node.target)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        self._locals.add(
                            (alias.asname or alias.name).split(".")[0]
                        )
        self._locals -= self._declared_globals

    def _bind_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._locals.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value)

    # -- statement interpretation ---------------------------------------------

    def _interpret(self, body: Sequence[ast.stmt], *, record: bool) -> None:
        for stmt in body:
            self._statement(stmt, record)

    def _statement(self, stmt: ast.stmt, record: bool) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are not summarized
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, record)
            for target in stmt.targets:
                self._assign(target, value, record)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(
                    stmt.target, self._eval(stmt.value, record), record
                )
            return
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, record)
            old = self._lookup_target(stmt.target)
            self._assign(stmt.target, value.union(old), record)
            if record and not isinstance(stmt.target, ast.Name):
                self._note_mutation_target(stmt.target)
            elif record and isinstance(stmt.target, ast.Name):
                if stmt.target.id in self._declared_globals:
                    self._record_mutation(
                        {"k": "global", "n": stmt.target.id}
                    )
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, record)
                if record:
                    self.returns = self.returns.union(value)
                    if is_sink_scope_name(self.qualname):
                        # Returning from to_bytes/dumps_* IS the write.
                        self._note_sink(
                            "write", "return value", stmt, value
                        )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, record)
            if record:
                self._note_sink("iteration", "for loop", stmt.iter, iterable)
            # Loop variables carry *elements*, whose identity is
            # order-independent — stay optimistic about them.
            self._interpret(stmt.body, record=record)
            self._interpret(stmt.orelse, record=record)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test, record)
            self._interpret(stmt.body, record=record)
            self._interpret(stmt.orelse, record=record)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, record)
            self._interpret(stmt.body, record=record)
            return
        if isinstance(stmt, ast.Try):
            self._interpret(stmt.body, record=record)
            for handler in stmt.handlers:
                self._interpret(handler.body, record=record)
            self._interpret(stmt.orelse, record=record)
            self._interpret(stmt.finalbody, record=record)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, record)
            return
        if isinstance(stmt, ast.Delete):
            if record:
                for target in stmt.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        self._note_mutation_target(target)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, record)
            return
        # Pass/Break/Continue/Global/Nonlocal/Import: nothing to do.

    def _assign(self, target: ast.expr, value: Taint, record: bool) -> None:
        if isinstance(target, ast.Name):
            self._env[target.id] = value
            if record and target.id in self._declared_globals:
                self._record_mutation({"k": "global", "n": target.id})
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, record)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, record)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            if record:
                self._note_mutation_target(target)

    def _lookup_target(self, target: ast.expr) -> Taint:
        if isinstance(target, ast.Name):
            return self._lookup(target.id)
        return Taint.empty()

    # -- expression evaluation ------------------------------------------------

    def _lookup(self, name: str) -> Taint:
        if name in self._env:
            return self._env[name]
        if name in self._param_index:
            return Taint(params={self._param_index[name]})
        if name not in self._locals:
            global_taint = self.global_taints.get(name)
            if global_taint:
                return Taint.from_dict(global_taint)
        return Taint.empty()

    def _eval(self, node: ast.expr, record: bool) -> Taint:
        if isinstance(node, ast.Constant):
            return Taint.empty()
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Set):
            for element in node.elts:
                self._eval(element, record)
            return Taint(srcs={"set-order"})
        if isinstance(node, ast.SetComp):
            self._eval_comprehension(node, record)
            return Taint(srcs={"set-order"})
        if isinstance(node, ast.Call):
            return self._eval_call(node, record)
        if isinstance(node, ast.Attribute):
            self._eval(node.value, record)
            return self._attr_read(node)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, record)
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node, record)
            return Taint.empty()
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, record).union(
                self._eval(node.right, record)
            )
        if isinstance(node, ast.BoolOp):
            out = Taint.empty()
            for value in node.values:
                out = out.union(self._eval(value, record))
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, record)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, record)
            return self._eval(node.body, record).union(
                self._eval(node.orelse, record)
            )
        if isinstance(node, ast.Compare):
            self._eval(node.left, record)
            for comparator in node.comparators:
                self._eval(comparator, record)
            return Taint.empty()
        if isinstance(node, ast.Subscript):
            self._eval(node.slice, record)
            return self._eval(node.value, record)
        if isinstance(node, (ast.List, ast.Tuple)):
            out = Taint.empty()
            for element in node.elts:
                out = out.union(self._eval(element, record))
            return out
        if isinstance(node, ast.Dict):
            out = Taint.empty()
            for key in node.keys:
                if key is not None:
                    out = out.union(self._eval(key, record))
            for value in node.values:
                out = out.union(self._eval(value, record))
            return out
        if isinstance(node, ast.Starred):
            return self._eval(node.value, record)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self._eval(value, record)
            return Taint.empty()
        if isinstance(node, ast.FormattedValue):
            self._eval(node.value, record)
            return Taint.empty()
        if isinstance(node, ast.Await):
            return self._eval(node.value, record)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, record)
            self._assign(node.target, value, record)
            return value
        if isinstance(node, ast.Lambda):
            return Taint.empty()
        return Taint.empty()

    def _eval_comprehension(self, node, record: bool) -> Taint:
        # A comprehension's output order is its first generator's
        # iteration order, so order taint propagates from that iter.
        out = Taint.empty()
        for index, gen in enumerate(node.generators):
            iterable = self._eval(gen.iter, record)
            if index == 0:
                out = iterable
            if record:
                self._note_sink(
                    "iteration", "comprehension", gen.iter, iterable
                )
            for condition in gen.ifs:
                self._eval(condition, record)
        if isinstance(node, ast.DictComp):
            self._eval(node.key, record)
            self._eval(node.value, record)
        else:
            self._eval(node.elt, record)
        return out

    def _attr_read(self, node: ast.Attribute) -> Taint:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.enclosing_class is not None
        ):
            return Taint(
                attrs={f"{self.module}::{self.enclosing_class}.{node.attr}"}
            )
        return Taint(attrs={f"?.{node.attr}"})

    # -- calls ----------------------------------------------------------------

    def _dotted_name(self, func: ast.expr) -> Optional[str]:
        """``a.b.c`` normalized through the import table."""
        ref = encode_call_ref(func)
        if ref is None:
            return None
        kind, _, target = ref.partition(":")
        if kind == "n":
            return self.imports.get(target, target)
        if kind == "d":
            head, _, rest = target.partition(".")
            resolved = self.imports.get(head, head)
            return f"{resolved}.{rest}"
        return None

    def _eval_call(self, node: ast.Call, record: bool) -> Taint:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        self._maybe_note_fanout(node, func, record)

        # sorted(E, key=...) — the sanitizer (and the unstable re-taint).
        if name == "sorted" and isinstance(func, ast.Name) and node.args:
            inner = self._eval(node.args[0], record)
            for keyword in node.keywords:
                self._eval(keyword.value, record)
            sanitized = sanitize_taint(inner)
            for keyword in node.keywords:
                if keyword.arg == "key" and self._unstable_key(keyword.value):
                    sanitized = sanitized.union(Taint(srcs={"unstable-sort"}))
            return sanitized

        # Intrinsic sources, resolved through the import table.
        dotted = self._dotted_name(func)
        source_kind = SOURCE_CALLS.get(dotted) if dotted else None
        if source_kind is None and name in _COMPLETION_NAMES:
            source_kind = "completion-order"
        if source_kind is not None:
            for arg in node.args:
                self._eval(arg, record)
            return Taint(srcs={source_kind})

        if isinstance(func, ast.Name) and name in ("set", "frozenset"):
            for arg in node.args:
                self._eval(arg, record)
            return Taint(srcs={"set-order"})

        if isinstance(func, ast.Name) and name in _PURE_BUILTINS:
            for arg in node.args:
                self._eval(arg, record)
            for keyword in node.keywords:
                self._eval(keyword.value, record)
            return Taint.empty()

        if isinstance(func, ast.Name) and name in _PASSTHROUGH_CALLS:
            out = Taint.empty()
            first = None
            for index, arg in enumerate(node.args):
                taint = self._eval(arg, record)
                if index == 0:
                    first = (arg, taint)
                out = out.union(taint)
            for keyword in node.keywords:
                self._eval(keyword.value, record)
            if (
                record
                and name in ("list", "tuple", "enumerate")
                and first is not None
            ):
                self._note_sink("iteration", f"{name}()", first[0], first[1])
            return out

        receiver = None
        if isinstance(func, ast.Attribute):
            receiver = self._eval(func.value, record)
            if name == "join" and node.args:
                joined = self._eval(node.args[0], record)
                if record:
                    self._note_sink(
                        "iteration", "str.join", node.args[0], joined
                    )
                return joined
            if name in _PASSTHROUGH_METHODS:
                out = receiver
                for arg in node.args:
                    out = out.union(self._eval(arg, record))
                return out
            if record:
                self._note_method_mutation(func)

        # A generic call: evaluate arguments once, record the event,
        # note sinks, and return a symbolic callee-return taint.
        arg_taints = [self._eval(arg, record) for arg in node.args]
        for keyword in node.keywords:
            self._eval(keyword.value, record)
        sparse_args = {
            str(index): taint.to_dict()
            for index, taint in enumerate(arg_taints)
            if not taint.is_empty()
        }

        if record and isinstance(func, ast.Attribute):
            if name in _WRITER_METHODS:
                for index, taint in enumerate(arg_taints):
                    self._note_sink(
                        "write", f".{name}()", node.args[index], taint
                    )

        ref = encode_call_ref(func)
        if ref is None:
            return Taint.empty()

        if record:
            event: dict = {"ref": ref, "line": node.lineno}
            if sparse_args:
                event["a"] = dict(sparse_args)
            roots = {}
            for index, arg in enumerate(node.args):
                root = self._root_of(arg)
                if root is not None:
                    roots[str(index)] = root
            if roots:
                event["r"] = roots
            self.calls.append(event)
            if name and is_sink_scope_name(name):
                # write_*/dumps_* helpers consume their value args.
                for index, taint in enumerate(arg_taints):
                    self._note_sink(
                        "write", f"{name}()", node.args[index], taint
                    )

        call_taint: dict = {"ref": ref, "line": node.lineno}
        if sparse_args:
            call_taint["a"] = sparse_args
        return Taint(calls=[call_taint])

    @staticmethod
    def _unstable_key(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id in _UNSTABLE_KEY_FUNCS:
            return True
        if isinstance(key, ast.Lambda):
            for sub in ast.walk(key.body):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in _UNSTABLE_KEY_FUNCS
                ):
                    return True
        return False

    # -- R9 bookkeeping -------------------------------------------------------

    def _root_of(self, node: ast.expr) -> Optional[dict]:
        """The driver-side object a call argument is rooted in."""
        current = node
        while isinstance(current, (ast.Attribute, ast.Subscript, ast.Starred)):
            current = current.value
        if isinstance(current, ast.Name):
            name = current.id
            if name == "self":
                return {"k": "param", "i": 0}
            if name in self._param_index:
                return {"k": "param", "i": self._param_index[name]}
            if name in self._declared_globals:
                return {"k": "global", "n": name}
            if name not in self._locals and (
                name in self.module_globals or name in self.imports
            ):
                return {"k": "global", "n": name}
        return None

    def _is_counters(self, node: ast.expr) -> bool:
        current = node
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            if (
                isinstance(current, ast.Attribute)
                and current.attr == "counters"
            ):
                return True
            current = current.value
        return isinstance(current, ast.Name) and current.id == "counters"

    def _note_mutation_target(self, target: ast.expr) -> None:
        """A subscript/attribute store mutates the object it is rooted
        in (``self`` counts: a bound method handed to an executor must
        not write instance state)."""
        base = target
        if isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if self._is_counters(base):
            return
        self._record_mutation(self._root_of(base))

    def _note_method_mutation(self, func: ast.Attribute) -> None:
        if func.attr not in MUTATING_METHODS:
            return
        if self._is_counters(func.value):
            return
        self._record_mutation(self._root_of(func.value))

    def _record_mutation(self, root: Optional[dict]) -> None:
        if root is None:
            return
        if root["k"] == "param":
            self.mutated_params.add(root["i"])
        elif root["k"] == "global":
            # Thread-local / context-var storage is per-worker by
            # construction — mutating it is not shared state.
            if root["n"] not in self.exempt_globals:
                self.mutated_globals.add(root["n"])

    def _maybe_note_fanout(
        self, node: ast.Call, func: ast.expr, record: bool
    ) -> None:
        if not record:
            return
        if not (
            isinstance(func, ast.Attribute) and func.attr in FANOUT_METHODS
        ):
            return
        tasks: List[dict] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            task = self._task_candidate(arg)
            if task is not None:
                tasks.append(task)
        if tasks:
            self.fanouts.append(
                {"method": func.attr, "line": node.lineno, "tasks": tasks}
            )

    def _task_candidate(self, arg: ast.expr) -> Optional[dict]:
        if isinstance(arg, (ast.Name, ast.Attribute)):
            ref = encode_call_ref(arg)
            if ref is None:
                return None
            if isinstance(arg, ast.Name) and (
                arg.id in self._locals and arg.id not in self._param_index
            ):
                return None  # a local binding; R2's territory
            return {"ref": ref}
        if isinstance(arg, ast.Call):
            func_name = None
            if isinstance(arg.func, ast.Name):
                func_name = arg.func.id
            elif isinstance(arg.func, ast.Attribute):
                func_name = arg.func.attr
            if func_name == "partial" and arg.args:
                ref = encode_call_ref(arg.args[0])
                if ref is None:
                    return None
                bound = []
                for bound_arg in arg.args[1:]:
                    root = self._root_of(bound_arg)
                    if root is not None:
                        bound.append(root)
                    elif isinstance(bound_arg, ast.Constant):
                        bound.append({"k": "literal"})
                    else:
                        bound.append({"k": "other"})
                return {"ref": ref, "bound": bound}
        return None

    # -- sinks ----------------------------------------------------------------

    def _note_sink(
        self, kind: str, detail: str, node: ast.expr, taint: Taint
    ) -> None:
        if not self.sink_scope or taint.is_empty():
            return
        self.sinks.append(
            {
                "kind": kind,
                "detail": detail,
                "line": getattr(node, "lineno", self.node.lineno),
                "col": getattr(node, "col_offset", 0),
                "taint": taint.to_dict(),
            }
        )


# ---------------------------------------------------------------------------
# per-file extraction
# ---------------------------------------------------------------------------


def _set_valued(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


#: Constructors whose instances are per-thread/per-context storage, so
#: module globals bound to them are exempt from the R9 model.
_WORKER_LOCAL_FACTORIES = frozenset({"local", "ContextVar"})


def _worker_local_valued(node: Optional[ast.expr]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr
        if isinstance(func, ast.Attribute)
        else None
    )
    return name in _WORKER_LOCAL_FACTORIES


def extract_taint_facts(path: str, tree: ast.Module, symbols: dict) -> dict:
    """All function summaries + attribute writes for one file.

    ``symbols`` is the :func:`~repro.analysis.callgraph
    .extract_module_facts` dict for the same file (imports and module
    globals feed the local analysis).
    """
    module = symbols["module"]
    imports = symbols.get("imports", {})
    module_globals = set(symbols.get("globals", ()))
    file_sink_scope = is_sink_scope_path(path)

    # Module-level bindings of tainted values (``_IDS = set()``): reads
    # of these names inside functions resolve to the binding's taint.
    global_taints: Dict[str, dict] = {}
    exempt_globals: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            set_taint = _set_valued(value)
            worker_local = _worker_local_valued(value)
            if not set_taint and not worker_local:
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if set_taint:
                        global_taints[target.id] = {"s": ["set-order"]}
                    else:
                        exempt_globals.add(target.id)

    functions: Dict[str, dict] = {}
    attr_writes: Dict[str, dict] = {}

    def make_extractor(node, qualname, enclosing_class) -> _FunctionExtractor:
        return _FunctionExtractor(
            qualname,
            node,
            module=module,
            imports=imports,
            module_globals=module_globals,
            global_taints=global_taints,
            exempt_globals=exempt_globals,
            enclosing_class=enclosing_class,
            sink_scope=file_sink_scope,
        )

    def note_attr_write(key: str, taint: Taint) -> None:
        merged = Taint.from_dict(attr_writes.get(key)).union(taint).to_dict()
        if merged:
            attr_writes[key] = merged

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = make_extractor(stmt, stmt.name, None).run()
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    extractor = make_extractor(item, qualname, stmt.name)
                    functions[qualname] = extractor.run()
                    # Instance-attribute writes (``self.x = <tainted>``)
                    # merged across every method of the class.
                    for method_stmt in ast.walk(item):
                        if not isinstance(
                            method_stmt, (ast.Assign, ast.AnnAssign)
                        ):
                            continue
                        value = getattr(method_stmt, "value", None)
                        if value is None:
                            continue
                        targets = (
                            method_stmt.targets
                            if isinstance(method_stmt, ast.Assign)
                            else [method_stmt.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                taint = extractor._eval(value, False)
                                if not taint.is_empty():
                                    note_attr_write(
                                        f"{module}::{stmt.name}"
                                        f".{target.attr}",
                                        taint,
                                    )
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    # Class-level attribute defaults (``x = set()``).
                    if not _set_valued(getattr(item, "value", None)):
                        continue
                    targets = (
                        item.targets
                        if isinstance(item, ast.Assign)
                        else [item.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            note_attr_write(
                                f"{module}::{stmt.name}.{target.id}",
                                Taint(srcs={"set-order"}),
                            )

    out: dict = {"functions": functions}
    if attr_writes:
        out["attr_writes"] = attr_writes
    return out
