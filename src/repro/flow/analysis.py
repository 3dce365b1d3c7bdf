"""The interprocedural taint engine behind ``python -m repro flow``.

One-pass whole-program analysis over the parsed file set:

- **Summary fixpoint.**  Every project function is abstractly
  interpreted with its parameters seeded as symbolic ``(@param, i)``
  taints, producing a :class:`Summary`: the taint of its return value,
  the taint its body *writes into* its parameters (attribute stores —
  how a dataclass field acquires taint), and the parameters that reach
  a sink inside it or transitively below it.  Summaries are recomputed
  until stable, so a wall-clock read three calls away from a
  ``sim_span`` still connects.  Each sweep re-evaluates only the
  functions that read a summary which changed since their last
  evaluation (DESIGN.md §17).
- **Emission.**  Wherever a *concrete* label (not a parameter
  placeholder) meets a sink — a direct sink call, or an argument
  position whose callee summary says it reaches one — the evaluation
  emits a :class:`~repro.lint.findings.Finding` at that call site,
  carrying the origin of the taint and the function chain it
  travelled through.  Each function keeps its last evaluation's.

The abstract domains, source tables and sink tables live in
:mod:`repro.flow.model`; symbol/call resolution in
:mod:`repro.flow.symbols`.  Soundness caveats (aliasing, attribute
granularity, dynamic dispatch) are documented in DESIGN.md §17.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..lint.context import FileContext, walk
from ..lint.findings import Finding, unique_sites
from . import model
from .model import EMPTY, Taint, join, kinds_of, label, param_ref, value_only
from .symbols import FunctionInfo, ProjectIndex, dotted

__all__ = ["FLOW_CODES", "SinkHit", "Summary", "FlowAnalyzer", "analyze_contexts"]

FLOW_CODES = {
    "FLOW001": "wall-clock value flows into a sim-domain timestamp",
    "FLOW002": "process-dependent value flows into a site/seed/cache identity",
    "FLOW003": "unpicklable-by-policy object flows into a pool submission",
}

_MAX_ROUNDS = 12
_MAX_VIA = 4


#: (param_index, rule, forbidden_kinds, describe, where, via_chain)
SinkHit = tuple


@dataclass(frozen=True)
class Summary:
    """What a call to one project function does, taint-wise."""

    ret: Taint = EMPTY
    #: param index -> taint the call adds to that argument object
    param_out: tuple = ()
    #: parameters that reach a sink in (or below) the function
    sinks: frozenset = frozenset()


def _is_set_like(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        return name in ("set", "frozenset")
    return False


class _Scope:
    """Mutable per-function state: taints and type binds by name."""

    def __init__(self) -> None:
        self.taints: dict[str, Taint] = {}
        self.binds: dict[str, str] = {}

    def copy(self) -> "_Scope":
        s = _Scope()
        s.taints = dict(self.taints)
        s.binds = dict(self.binds)
        return s

    def merge(self, *others: "_Scope") -> None:
        for other in others:
            for name, t in other.taints.items():
                self.taints[name] = join(self.taints.get(name, EMPTY), t)
            for name, b in other.binds.items():
                self.binds.setdefault(name, b)


class FlowAnalyzer:
    """Whole-program three-lattice taint analysis."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts = {ctx.relpath: ctx for ctx in contexts}
        self.index = ProjectIndex.build(
            (ctx.relpath, ctx.tree, ctx.nodes) for ctx in contexts
        )
        self.summaries: dict[str, Summary] = {}

    # -- public -------------------------------------------------------
    def run(self) -> list[Finding]:
        return self._solve()[0]

    # -- fixpoint -----------------------------------------------------
    def _solve(self) -> tuple[list[Finding], int]:
        """Gauss–Seidel sweeps over the functions in sorted order until
        no summary changes; returns the findings and the sweeps run.

        An evaluation is a pure function of the index and the summaries
        it reads, so a function none of whose reads changed since its
        last evaluation would reproduce its summary and findings: it is
        skipped.  Every sweep therefore ends with the summaries a full
        sweep would produce, and the ``_MAX_ROUNDS`` cap bites at the
        same sweep; a function still dirty then is evaluated once more,
        for its findings alone.
        """
        order = sorted(self.index.functions)
        reads: dict[str, set[str]] = {}
        readers: dict[str, set[str]] = {}
        emitted: dict[str, list[Finding]] = {}
        dirty = set(order)
        sweeps = 0
        while dirty and sweeps < _MAX_ROUNDS:
            sweeps += 1
            for fqn in order:
                if fqn not in dirty:
                    continue
                dirty.discard(fqn)
                emitted[fqn] = []
                new, now_reads = self._evaluate(
                    self.index.functions[fqn], emitted[fqn]
                )
                for callee in reads.get(fqn, ()):
                    readers[callee].discard(fqn)
                for callee in now_reads:
                    readers.setdefault(callee, set()).add(fqn)
                reads[fqn] = now_reads
                # a reader of a summary not yet stored read the empty one
                changed = self.summaries.get(fqn, Summary()) != new
                self.summaries[fqn] = new
                if changed:
                    dirty.update(readers.get(fqn, ()))
        for fqn in sorted(dirty):  # the cap bit: findings only
            emitted[fqn] = []
            self._evaluate(self.index.functions[fqn], emitted[fqn])
        findings = [f for fqn in order for f in emitted[fqn]]
        # loop bodies are interpreted twice (loop-carried taints), so
        # keep the last finding per site: its taint set is the widest
        return sorted(unique_sites(findings)), sweeps

    # -- per-function interpretation ----------------------------------
    def _evaluate(
        self, fn: FunctionInfo, emit: list[Finding]
    ) -> tuple[Summary, set[str]]:
        """The function's summary and the fqns whose summaries it read;
        its findings are appended to ``emit``."""
        ev = _Evaluator(self, fn, emit)
        return ev.run(), ev.reads


class _Evaluator:
    """Abstract interpreter for one function body."""

    def __init__(
        self,
        analyzer: FlowAnalyzer,
        fn: FunctionInfo,
        emit: list[Finding],
    ):
        self.analyzer = analyzer
        self.index = analyzer.index
        self.fn = fn
        self.mod = self.index.modules[fn.module]
        self.emit = emit
        self.scope = _Scope()
        self.ret: Taint = EMPTY
        self.param_out: dict[int, Taint] = {}
        self.sinks: set = set()
        self.param_index = {name: i for i, name in enumerate(fn.params)}
        #: callee fqns whose summaries this evaluation consulted
        self.reads: set[str] = set()

    # .. setup ........................................................
    def run(self) -> Summary:
        for name, i in self.param_index.items():
            self.scope.taints[name] = frozenset({param_ref(i)})
        if self.fn.owner_class and self.fn.params[:1] in (["self"], ["cls"]):
            self.scope.binds[self.fn.params[0]] = self.fn.owner_class
        self._bind_annotations()
        self._exec_body(self.fn.node.body)
        return Summary(
            ret=self.ret,
            param_out=tuple(sorted(self.param_out.items())),
            sinks=frozenset(self.sinks),
        )

    def _bind_annotations(self) -> None:
        for arg, name in self.fn.annotations:
            resolved = self.index.resolve_name(self.mod, name)
            if resolved and self.index.class_for(resolved) is not None:
                self.scope.binds[arg] = self.index.class_for(resolved).fqn

    # .. statements ...................................................
    def _exec_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            t = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, t, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            t = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                cur = self.scope.taints.get(stmt.target.id, EMPTY)
                self.scope.taints[stmt.target.id] = join(cur, t)
            else:
                self._assign(stmt.target, t, stmt.value)
        elif isinstance(stmt, (ast.Expr, ast.Await)):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret = join(self.ret, self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = self.scope
            a = before.copy()
            b = before.copy()
            self.scope = a
            self._exec_body(stmt.body)
            self.scope = b
            self._exec_body(stmt.orelse)
            before.merge(a, b)
            self.scope = before
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            t = self._eval_iter(stmt.iter)
            for _ in range(2):  # propagate loop-carried taints once
                self._assign(stmt.target, t, None)
                self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                t = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, t, item.context_expr)
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scope.taints[stmt.name] = self._closure_taint(stmt)
            self._exec_nested(stmt)
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.scope.taints.pop(target.id, None)
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self.eval(stmt.subject)
            before = self.scope
            branches = []
            for case in stmt.cases:
                self.scope = before.copy()
                self._exec_body(case.body)
                branches.append(self.scope)
            before.merge(*branches)
            self.scope = before
        # Import/Global/Nonlocal/Pass/Break/Continue: no dataflow

    def _assign(
        self,
        target: ast.expr,
        taint: Taint,
        value: Optional[ast.expr],
    ) -> None:
        if isinstance(target, ast.Name):
            self.scope.taints[target.id] = taint
            self.scope.binds.pop(target.id, None)
            if value is not None:
                bind = self._ctor_bind(value)
                if bind is not None:
                    self.scope.binds[target.id] = bind
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if (
                value is not None
                and isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(elts)
            ):
                for t_el, v_el in zip(elts, value.elts):
                    self._assign(t_el, self.eval(v_el), v_el)
            else:
                for t_el in elts:
                    inner = t_el.value if isinstance(t_el, ast.Starred) else t_el
                    self._assign(inner, taint, None)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                cur = self.scope.taints.get(base.id, EMPTY)
                for el in cur:
                    if el[0] == model.PARAM:
                        self.param_out[el[1]] = join(
                            self.param_out.get(el[1], EMPTY), taint
                        )
                self.scope.taints[base.id] = join(cur, taint)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                cur = self.scope.taints.get(target.value.id, EMPTY)
                self.scope.taints[target.value.id] = join(cur, taint)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, None)

    def _ctor_bind(self, value: ast.expr) -> Optional[str]:
        """Class/executor fqn when ``value`` is a recognizable ctor call."""
        if not isinstance(value, ast.Call):
            return None
        name = dotted(value.func)
        if name is None:
            return None
        resolved = self._resolve(name) or name
        if self.index.class_for(resolved) is not None:
            return self.index.class_for(resolved).fqn
        base = resolved.rsplit(".", 1)[-1]
        if resolved in model.PROCESS_EXECUTOR_FQNS or base == "ProcessPoolExecutor":
            return "concurrent.futures.ProcessPoolExecutor"
        if resolved in model.THREAD_EXECUTOR_FQNS or base == "ThreadPoolExecutor":
            return "concurrent.futures.ThreadPoolExecutor"
        if base in ("Random", "default_rng", "RandomState", "Generator"):
            return resolved if "." in resolved else f"random.{base}"
        return None

    # .. nested closures ..............................................
    def _closure_taint(
        self, node: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Taint:
        """A nested callable: unpicklable, plus whatever it captures."""
        own: set[str] = set()
        body = node.body if isinstance(node.body, list) else [node.body]
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            own.add(a.arg)
        if args.vararg:
            own.add(args.vararg.arg)
        if args.kwarg:
            own.add(args.kwarg.arg)
        captured: list[Taint] = []
        for sub in body:
            for n in walk(sub):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    if n.id in own:
                        continue
                    t = self.scope.taints.get(n.id)
                    if t:
                        captured.append(t)
        kind = "lambda"
        origin = self._at(
            "lambda" if isinstance(node, ast.Lambda) else f"def {node.name}",
            node,
        )
        # captured taints ride with the closure object — param
        # placeholders included, so "captures my caller's tracer"
        # survives into this function's summary
        cap = join(*captured) if captured else EMPTY
        return join(frozenset({label(kind, origin)}), cap)

    def _exec_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Interpret a nested function body in the enclosing scope.

        Its parameters are unknown (empty taint); captured names keep
        their current taints, so a sink inside the closure still sees
        the enclosing function's sources (DES process generators are
        written exactly this way).
        """
        outer = self.scope
        self.scope = outer.copy()
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            self.scope.taints[a.arg] = EMPTY
        if args.vararg:
            self.scope.taints[args.vararg.arg] = EMPTY
        if args.kwarg:
            self.scope.taints[args.kwarg.arg] = EMPTY
        self._exec_body(node.body)
        self.scope = outer

    # .. expressions ..................................................
    def eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            return self.scope.taints.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            base_t = self.eval(node.value)
            extra = EMPTY
            base_name = dotted(node.value)
            bind = self._bind_of(base_name) if base_name else None
            if bind is not None:
                cinfo = self.index.class_for(bind)
                if cinfo is not None and node.attr in cinfo.attr_binds:
                    kind = model.ctor_escape_kind(cinfo.attr_binds[node.attr])
                    if kind is not None:
                        extra = frozenset(
                            {label(kind, self._at(f".{node.attr}", node))}
                        )
            # attribute loads are scalar-like: escape kinds stay with
            # the whole object (DESIGN.md §17 caveat)
            return join(value_only(base_t), extra)
        if isinstance(node, ast.Subscript):
            return join(self.eval(node.value), self.eval(node.slice))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return join(*(self.eval(e) for e in node.elts)) if node.elts else EMPTY
        if isinstance(node, ast.Dict):
            parts = [self.eval(v) for v in node.values if v is not None]
            parts += [self.eval(k) for k in node.keys if k is not None]
            return join(*parts) if parts else EMPTY
        if isinstance(node, ast.BinOp):
            return join(self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.BoolOp):
            return join(*(self.eval(v) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            t = self.eval(node.operand)
            return value_only(t) if isinstance(node.op, ast.Not) else t
        if isinstance(node, ast.Compare):
            # a comparison yields a bool: value taints survive (a
            # wall-derived predicate is still wall-derived) but the
            # compared *objects* do not ride along
            return value_only(
                join(
                    self.eval(node.left),
                    *(self.eval(c) for c in node.comparators),
                )
            )
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.JoinedStr):
            return join(*(self.eval(v) for v in node.values)) if node.values else EMPTY
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            self.eval(node.body)
            return self._closure_taint(node)
        if isinstance(node, (ast.Await, ast.Starred, ast.Yield, ast.YieldFrom)):
            inner = getattr(node, "value", None)
            if inner is None:
                return EMPTY
            t = self.eval(inner)
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.ret = join(self.ret, t)
            return t
        if isinstance(node, ast.NamedExpr):
            t = self.eval(node.value)
            self._assign(node.target, t, node.value)
            return t
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comp(node)
        if isinstance(node, ast.Slice):
            parts = [
                self.eval(p)
                for p in (node.lower, node.upper, node.step)
                if p is not None
            ]
            return join(*parts) if parts else EMPTY
        return EMPTY

    def _eval_iter(self, node: ast.expr) -> Taint:
        """The taint of the items of ``node``; a set's order is unstable."""
        t = self.eval(node)
        if not _is_set_like(node):
            return t
        where = self._at("set iteration order", node)
        return join(t, frozenset({label(model.UNSTABLE, where)}))

    def _eval_comp(self, node: ast.expr) -> Taint:
        outer = self.scope
        self.scope = outer.copy()
        parts: list[Taint] = []
        for gen in node.generators:  # type: ignore[attr-defined]
            t = self._eval_iter(gen.iter)
            self._assign(gen.target, t, None)
            parts.append(t)
            for cond in gen.ifs:
                self.eval(cond)
        if isinstance(node, ast.DictComp):
            parts.append(self.eval(node.key))
            parts.append(self.eval(node.value))
        else:
            parts.append(self.eval(node.elt))  # type: ignore[attr-defined]
        self.scope = outer
        return join(*parts) if parts else EMPTY

    # .. calls ........................................................
    def _resolve(self, name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        head = name.partition(".")[0]
        if head in self.scope.taints and head not in self.param_index:
            # a plain local variable shadows module-level names
            if head not in self.mod.functions and head not in self.mod.classes:
                return None
        return self.index.resolve_name(self.mod, name)

    def _bind_of(self, name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        bind = self.scope.binds.get(name)
        if bind is not None:
            return bind
        head, _, attr = name.partition(".")
        if attr and "." not in attr:
            base_bind = self.scope.binds.get(head)
            if base_bind is not None:
                cinfo = self.index.class_for(base_bind)
                if cinfo is not None:
                    return cinfo.attr_binds.get(attr)
        return None

    def _eval_call(self, call: ast.Call) -> Taint:
        # evaluate every argument exactly once
        arg_nodes: list[ast.expr] = [
            a.value if isinstance(a, ast.Starred) else a for a in call.args
        ]
        has_star = any(isinstance(a, ast.Starred) for a in call.args)
        arg_taints = [self.eval(a) for a in arg_nodes]
        kw_nodes: dict[Optional[str], ast.expr] = {}
        kw_taints: dict[Optional[str], Taint] = {}
        for kw in call.keywords:
            kw_nodes[kw.arg] = kw.value
            kw_taints[kw.arg] = self.eval(kw.value)
        taint_of = {id(n): t for n, t in zip(arg_nodes, arg_taints)}
        taint_of.update(
            {id(n): kw_taints[k] for k, n in kw_nodes.items()}
        )

        callee_name = dotted(call.func)
        callee_fqn = self._resolve(callee_name)
        receiver = (
            dotted(call.func.value)
            if isinstance(call.func, ast.Attribute)
            else None
        )
        receiver_bind = self._bind_of(receiver)

        # 1. external sink checks
        for arg_node, spec in model.match_sinks(
            call, callee_fqn, receiver, receiver_bind
        ):
            t = taint_of.get(id(arg_node))
            if t is None:
                t = self.eval(arg_node)
            self._check_sink(call, arg_node, t, spec.rule, spec.forbidden, spec.describe, where=None, via=())

        # 2. project callee?
        fn_info = self.index.function_for(callee_fqn)
        cinfo = (
            self.index.class_for(callee_fqn) if fn_info is None else None
        )
        bound_receiver_taint = EMPTY
        if (
            fn_info is None
            and cinfo is None
            and isinstance(call.func, ast.Attribute)
        ):
            if receiver_bind is not None:
                fn_info = self.index.method_on(
                    receiver_bind, call.func.attr
                )
                if fn_info is not None:
                    bound_receiver_taint = self.eval(call.func.value)

        result = EMPTY
        if fn_info is not None:
            bound = fn_info.owner_class is not None and (
                bound_receiver_taint is not EMPTY
                or (receiver is not None and receiver.split(".")[0] in ("self", "cls"))
                or not (callee_fqn or "").endswith(
                    f"{fn_info.owner_class.rsplit('.', 1)[-1]}.{fn_info.node.name}"
                )
            )
            if (
                fn_info.owner_class is not None
                and receiver is not None
                and bound_receiver_taint is EMPTY
            ):
                bound_receiver_taint = self.eval(call.func.value)
            result = self._apply_summary(
                call,
                fn_info,
                arg_nodes,
                arg_taints,
                kw_nodes,
                kw_taints,
                has_star,
                bound=bound,
                receiver_taint=bound_receiver_taint,
                receiver_node=(
                    call.func.value
                    if isinstance(call.func, ast.Attribute)
                    else None
                ),
            )
        elif cinfo is not None:
            result = self._construct(
                call, cinfo, arg_nodes, arg_taints, kw_nodes, kw_taints, has_star
            )

        # 3. external sources / escape ctors (also enrich project
        #    factories that return live objects via module globals)
        src = model.source_kind(callee_fqn)
        if src is not None:
            result = join(
                result,
                frozenset({label(src, self._at(f"{callee_name}()", call))}),
            )
        esc = model.ctor_escape_kind(callee_fqn or callee_name)
        if esc is not None:
            result = join(
                result,
                frozenset({label(esc, self._at(f"{callee_name}()", call))}),
            )

        if fn_info is not None or cinfo is not None or src or esc:
            return result

        # 4. unknown call: default propagation
        all_args = join(
            *(arg_taints + list(kw_taints.values()) + [self.eval(call.func)])
        ) if (arg_taints or kw_taints) else self.eval(call.func)
        base = (callee_fqn or callee_name or "").rsplit(".", 1)[-1]
        if (
            callee_fqn in model.PROPAGATE_ALL_BUILTINS
            or base in ("partial",)
            or (callee_name or "") in model.PROPAGATE_ALL_BUILTINS
        ):
            return all_args
        return value_only(all_args)

    def _construct(
        self,
        call: ast.Call,
        cinfo,
        arg_nodes,
        arg_taints,
        kw_nodes,
        kw_taints,
        has_star: bool,
    ) -> Taint:
        init = self.index.method_on(cinfo.fqn, "__init__")
        if init is not None:
            obj = self._apply_summary(
                call,
                init,
                arg_nodes,
                arg_taints,
                kw_nodes,
                kw_taints,
                has_star,
                bound=True,
                receiver_taint=EMPTY,
                receiver_node=None,
                constructed=True,
            )
        else:
            parts = arg_taints + list(kw_taints.values())
            obj = join(*parts) if parts else EMPTY
        return obj

    def _apply_summary(
        self,
        call: ast.Call,
        fn_info: FunctionInfo,
        arg_nodes,
        arg_taints,
        kw_nodes,
        kw_taints,
        has_star: bool,
        bound: bool,
        receiver_taint: Taint,
        receiver_node: Optional[ast.expr],
        constructed: bool = False,
    ) -> Taint:
        self.reads.add(fn_info.fqn)
        summary = self.analyzer.summaries.get(fn_info.fqn, Summary())
        offset = 1 if (bound or constructed) else 0
        params = fn_info.params

        param_taint: dict[int, Taint] = {}
        param_node: dict[int, Optional[ast.expr]] = {}
        if offset == 1 and params:
            param_taint[0] = receiver_taint
            param_node[0] = receiver_node
        if has_star:
            blob = join(*(arg_taints + list(kw_taints.values()))) if (
                arg_taints or kw_taints
            ) else EMPTY
            for i in range(offset, len(params)):
                param_taint[i] = blob
                param_node[i] = None
        else:
            for j, t in enumerate(arg_taints):
                i = j + offset
                if i < len(params):
                    param_taint[i] = t
                    param_node[i] = arg_nodes[j]
            name_to_idx = {p: i for i, p in enumerate(params)}
            for k, t in kw_taints.items():
                if k is not None and k in name_to_idx:
                    param_taint[name_to_idx[k]] = t
                    param_node[name_to_idx[k]] = kw_nodes[k]

        def substitute(taint: Taint) -> Taint:
            out: list[Taint] = []
            concrete = frozenset(el for el in taint if el[0] != model.PARAM)
            out.append(concrete)
            for el in taint:
                if el[0] == model.PARAM:
                    out.append(param_taint.get(el[1], EMPTY))
            return join(*out)

        # sinks reached through the callee
        for hit in sorted(summary.sinks, key=repr):
            pidx, rule, forbidden, describe, where, via = hit
            t = param_taint.get(pidx, EMPTY)
            node = param_node.get(pidx) or call
            new_via = (fn_info.fqn,) + tuple(via)
            self._check_sink(
                call, node, t, rule, forbidden, describe, where=where, via=new_via
            )

        # taint written back into argument objects
        for pidx, t in summary.param_out:
            resolved = substitute(t)
            if not resolved:
                continue
            node = param_node.get(pidx)
            if node is None and pidx == 0:
                node = receiver_node
            if isinstance(node, ast.Name):
                cur = self.scope.taints.get(node.id, EMPTY)
                for el in cur:
                    if el[0] == model.PARAM:
                        self.param_out[el[1]] = join(
                            self.param_out.get(el[1], EMPTY), resolved
                        )
                self.scope.taints[node.id] = join(cur, resolved)

        ret = substitute(summary.ret)
        if constructed:
            ret = join(ret, substitute(dict(summary.param_out).get(0, EMPTY)))
        return ret

    # .. sink bookkeeping ............................................
    def _check_sink(
        self,
        call: ast.Call,
        arg_node: ast.expr,
        taint: Taint,
        rule: str,
        forbidden: frozenset,
        describe: str,
        where: Optional[str],
        via: tuple,
    ) -> None:
        hit_kinds = kinds_of(taint) & forbidden
        if hit_kinds:
            self._emit(call, arg_node, taint, hit_kinds, rule, describe, where, via)
        if len(via) <= _MAX_VIA:
            for el in taint:
                if el[0] == model.PARAM:
                    self.sinks.add(
                        (
                            el[1],
                            rule,
                            forbidden,
                            describe,
                            where
                            or f"{self.fn.relpath}:{getattr(call, 'lineno', 0)}",
                            via,
                        )
                    )

    def _emit(
        self,
        call: ast.Call,
        arg_node: ast.expr,
        taint: Taint,
        hit_kinds: frozenset,
        rule: str,
        describe: str,
        where: Optional[str],
        via: tuple,
    ) -> None:
        ctx = self.analyzer.contexts.get(self.fn.relpath)
        node = arg_node if getattr(arg_node, "lineno", None) else call
        origins = model.origins_for(taint, hit_kinds)[:3]
        if rule == "FLOW003":
            kinds_text = ", ".join(
                f"{k} ({model.ESCAPE_WHY[k]})" for k in sorted(hit_kinds)
            )
            what = f"object tainted as {kinds_text}"
        elif rule == "FLOW001":
            what = "wall-clock-derived value"
        else:
            what = "process-dependent value"
        msg = f"{what} reaches {describe}"
        if where is not None:
            msg += f" at {where}"
        if via:
            msg += " via " + " -> ".join(via)
        if origins:
            msg += "; tainted by " + "; ".join(origins)
        line = getattr(node, "lineno", getattr(call, "lineno", 1))
        col = getattr(node, "col_offset", 0)
        snippet = ctx.snippet(line) if ctx is not None else ""
        self.emit.append(
            Finding(
                path=self.fn.relpath,
                line=line,
                col=col,
                rule=rule,
                message=msg,
                snippet=snippet,
            )
        )

    # .. misc .........................................................
    def _at(self, what: str, node: ast.AST) -> str:
        return f"{what} at {self.fn.relpath}:{getattr(node, 'lineno', 0)}"


def analyze_contexts(contexts: list[FileContext]) -> list[Finding]:
    """Run the whole-program analysis over parsed lint contexts."""
    return FlowAnalyzer(list(contexts)).run()
