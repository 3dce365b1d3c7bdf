"""POOL — what may cross the ``MatrixEngine`` process-pool boundary.

Work submitted to a :class:`~concurrent.futures.ProcessPoolExecutor`
is pickled into the worker.  Three capture classes break that contract
in ways that surface far from the submit site:

* ``POOL001`` — a ``lambda`` (unpicklable: the submit raises only once
  a worker actually receives it, and under the supervised engine that
  presents as a spurious "worker crash" retry storm);
* ``POOL002`` — an open file handle (pickles as a dead descriptor, or
  not at all; workers must open their own files by path);
* ``POOL003`` — a live RNG object (``random.Random``,
  ``numpy.random.Generator``): its *state* is copied at pickle time,
  so every worker replays the same stream and the coordinator's copy
  never advances — silently correlated "randomness".  Ship the seed,
  construct the RNG worker-side;
* ``POOL004`` — a columnar batch-plan object (``CellPlan``,
  ``LaneCols``, or a ``plan_cell`` result).
  The batch kernel (:mod:`repro.batch`) is in-process *by design*: its
  lane columns are views into one shared stacked matrix, so pickling a
  plan silently ships every worker a private copy of the whole stack —
  the memory and serialization cost that the columnar layout exists to
  avoid.  Ship ``(label, kind, workload, seed)`` and re-plan (or run
  the scalar path) worker-side instead.

The checker recognises executors assigned from
``ProcessPoolExecutor(...)`` (including ``with ... as pool:``),
receivers whose name contains ``pool``/``executor``, and
``engine.map(...)`` (the :meth:`MatrixEngine.map` fan-out).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..context import FileContext
from ..findings import Finding, unique_sites
from ..registry import FileChecker, dotted_name, register

__all__ = ["PoolChecker"]

_POOL_RECEIVER = re.compile(r"pool|executor", re.IGNORECASE)
_SUBMIT_METHODS = frozenset({"submit", "map"})

_EXECUTOR_CTORS = frozenset(
    {
        "ProcessPoolExecutor",
        "futures.ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)
_RNG_CTORS = frozenset(
    {
        "random.Random",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.RandomState",
        "numpy.random.RandomState",
    }
)
_PLAN_CTORS = frozenset(
    {
        "plan_cell",
        "CellPlan",
        "LaneCols",
        "batch.plan_cell",
        "repro.batch.plan_cell",
        "repro.batch.plan.plan_cell",
    }
)


def _ctor_kind(node: ast.expr) -> str | None:
    """Classify the value of an assignment: executor / file / rng."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in _EXECUTOR_CTORS:
        return "executor"
    if name == "open" or name.endswith(".open"):
        return "file"
    if name in _RNG_CTORS:
        return "rng"
    if name in _PLAN_CTORS or name.split(".")[-1] in _PLAN_CTORS:
        return "plan"
    return None


class _Scope:
    """Name -> kind bindings visible while walking one function body."""

    def __init__(self) -> None:
        self.kinds: dict[str, str] = {}

    def bind_target(self, target: ast.expr, kind: str | None) -> None:
        if isinstance(target, ast.Name):
            if kind is None:
                self.kinds.pop(target.id, None)  # rebinding clears the mark
            else:
                self.kinds[target.id] = kind


@register
class PoolChecker(FileChecker):
    codes = {
        "POOL001": "lambda submitted across the process-pool boundary",
        "POOL002": "open file handle submitted across the process-pool boundary",
        "POOL003": "live RNG state submitted across the process-pool boundary",
        "POOL004": "columnar batch plan submitted across the process-pool boundary",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in _SUBMIT_METHODS
            for n in ctx.nodes
        ):
            return  # no submit site anywhere: no function can report
        # a nested function is checked on its own and again inside its
        # enclosing one (whose bindings it may capture); report each
        # site once
        yield from unique_sites(
            finding
            for fn in ctx.nodes
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for finding in self._check_function(ctx, fn)
        )

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        scope = _Scope()
        calls: list[ast.Call] = []
        # one walk: every binding in the function counts at every
        # submit site, so calls are checked once the walk is done
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                kind = _ctor_kind(node.value)
                for t in node.targets:
                    scope.bind_target(t, kind)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        scope.bind_target(
                            item.optional_vars, _ctor_kind(item.context_expr)
                        )
            elif isinstance(node, ast.Call):
                calls.append(node)
        for call in calls:
            if self._is_pool_call(call, scope):
                yield from self._check_payload(ctx, call, scope)

    @staticmethod
    def _is_pool_call(call: ast.Call, scope: _Scope) -> bool:
        if not isinstance(call.func, ast.Attribute):
            return False
        if call.func.attr not in _SUBMIT_METHODS:
            return False
        receiver = dotted_name(call.func.value)
        if receiver is None:
            return False
        if scope.kinds.get(receiver) == "executor":
            return True
        if _POOL_RECEIVER.search(receiver):
            return True
        # MatrixEngine.map fan-out: `engine.map(fn, items)`
        return call.func.attr == "map" and receiver.split(".")[-1] == "engine"

    def _check_payload(
        self, ctx: FileContext, call: ast.Call, scope: _Scope
    ) -> Iterator[Finding]:
        payload: list[ast.expr] = list(call.args)
        payload.extend(kw.value for kw in call.keywords)
        for arg in payload:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    yield ctx.finding(
                        "POOL001",
                        sub,
                        "lambdas are unpicklable; pass a module-level "
                        "function (use functools.partial for bound args)",
                    )
                elif isinstance(sub, ast.Name):
                    kind = scope.kinds.get(sub.id)
                    if kind == "file":
                        yield ctx.finding(
                            "POOL002",
                            sub,
                            f"`{sub.id}` is an open file handle; pass the "
                            "path and reopen inside the worker",
                        )
                    elif kind == "rng":
                        yield ctx.finding(
                            "POOL003",
                            sub,
                            f"`{sub.id}` carries live RNG state; pickling "
                            "clones the stream into every worker — pass the "
                            "seed and construct the RNG worker-side",
                        )
                    elif kind == "plan":
                        yield ctx.finding(
                            "POOL004",
                            sub,
                            f"`{sub.id}` is a columnar batch plan whose lane "
                            "columns are views into the shared stacked "
                            "matrix; pickling it copies the whole stack into "
                            "the worker — ship (label, kind, workload, seed) "
                            "and re-plan worker-side",
                        )
                elif isinstance(sub, ast.Call):
                    sub_kind = _ctor_kind(sub)
                    if sub_kind == "file":
                        yield ctx.finding(
                            "POOL002",
                            sub,
                            "opening a file in the submit call ships the "
                            "handle across the pool boundary; pass the path "
                            "and reopen inside the worker",
                        )
                    elif sub_kind == "plan":
                        yield ctx.finding(
                            "POOL004",
                            sub,
                            "planning inside the submit call ships the "
                            "stacked lane columns across the pool boundary; "
                            "ship (label, kind, workload, seed) and re-plan "
                            "worker-side",
                        )
