"""UNIT — the unit-suffix convention on names.

The timing stack carries integer nanoseconds end to end and sizes in
bytes/MB; the convention (DESIGN.md §5) is that a name's trailing
``_``-token declares its unit: ``cmd_ns``, ``flap_ns``, ``panel_bytes``,
``bandwidth_mb``, ``timeout_s``.  The checker treats those suffixes as
a lightweight type system:

* ``UNIT001`` — ``+``/``-``/``%`` (or augmented assignment) between
  names with *different* unit suffixes: ``x_ns + y_us`` is a silent
  1000x error.  ``*`` and ``/`` are conversions and stay legal;
* ``UNIT002`` — ordering/equality comparison between different units;
* ``UNIT003`` — a function named ``*_ns`` (or any unit suffix)
  returning a name carrying a *different* suffix;
* ``UNIT004`` — a function named ``*_ns`` returning a bare unsuffixed
  name: the reader cannot audit the unit at the return site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import FileContext
from ..findings import Finding
from ..registry import FileChecker, register

__all__ = ["UnitChecker", "unit_of"]

#: suffix -> dimension family
UNIT_FAMILIES: dict[str, str] = {
    "ns": "time",
    "us": "time",
    "ms": "time",
    "s": "time",
    "bytes": "size",
    "kb": "size",
    "kib": "size",
    "mb": "size",
    "mib": "size",
    "gb": "size",
    "gib": "size",
}

_MIXABLE_OPS = (ast.Add, ast.Sub, ast.Mod)
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def unit_of(name: str) -> Optional[str]:
    """The declared unit suffix of a name, if any (``cmd_ns`` -> ``ns``)."""
    if "_" not in name:
        return None
    token = name.rsplit("_", 1)[-1].lower()
    return token if token in UNIT_FAMILIES else None


def _expr_unit(node: ast.expr) -> Optional[str]:
    """Unit of an expression, resolved through same-unit arithmetic."""
    if isinstance(node, ast.Name):
        return unit_of(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of(node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _MIXABLE_OPS):
        lu, ru = _expr_unit(node.left), _expr_unit(node.right)
        return lu if lu is not None and lu == ru else None
    if isinstance(node, ast.UnaryOp):
        return _expr_unit(node.operand)
    return None


def _own_nodes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions,
    whose ``return`` statements declare their own unit."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _mix_message(lu: str, ru: str, what: str) -> str:
    lf, rf = UNIT_FAMILIES[lu], UNIT_FAMILIES[ru]
    if lf == rf:
        return (
            f"{what} mixes `_{lu}` and `_{ru}` values; convert one side "
            f"explicitly before combining"
        )
    return (
        f"{what} mixes a {lf} value (`_{lu}`) with a {rf} value (`_{ru}`); "
        f"this arithmetic is dimensionally meaningless"
    )


@register
class UnitChecker(FileChecker):
    codes = {
        "UNIT001": "arithmetic mixes names with different unit suffixes",
        "UNIT002": "comparison mixes names with different unit suffixes",
        "UNIT003": "unit-suffixed function returns a differently-suffixed name",
        "UNIT004": "unit-suffixed function returns an unsuffixed bare name",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, _MIXABLE_OPS):
                lu, ru = _expr_unit(node.left), _expr_unit(node.right)
                if lu is not None and ru is not None and lu != ru:
                    yield ctx.finding(
                        "UNIT001", node, _mix_message(lu, ru, "expression")
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                lu = _expr_unit(node.target)
                ru = _expr_unit(node.value)
                if lu is not None and ru is not None and lu != ru:
                    yield ctx.finding(
                        "UNIT001",
                        node,
                        _mix_message(lu, ru, "augmented assignment"),
                    )
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_returns(ctx, node)

    def _check_compare(
        self, ctx: FileContext, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, _COMPARE_OPS):
                continue
            lu, ru = _expr_unit(left), _expr_unit(right)
            if lu is not None and ru is not None and lu != ru:
                yield ctx.finding(
                    "UNIT002", node, _mix_message(lu, ru, "comparison")
                )

    def _check_returns(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        fn_unit = unit_of(fn.name)
        if fn_unit is None:
            return
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            ru = _expr_unit(value)
            if ru is not None and ru != fn_unit:
                yield ctx.finding(
                    "UNIT003",
                    node,
                    f"`{fn.name}` declares `_{fn_unit}` but returns a "
                    f"`_{ru}` value",
                )
            elif ru is None and isinstance(value, (ast.Name, ast.Attribute)):
                bare = value.id if isinstance(value, ast.Name) else value.attr
                yield ctx.finding(
                    "UNIT004",
                    node,
                    f"`{fn.name}` declares `_{fn_unit}` but returns "
                    f"unsuffixed `{bare}`; rename the local so the unit is "
                    "auditable at the return site",
                )
