"""WEAR — erase-ledger integrity outside the device layers.

The FTL's per-block erase ledger (``ftl.erases``) and its generation
counter (``ftl.erase_gen``) are the ground truth for every lifetime
number the repo reports: wear-report memoization keys on ``erase_gen``,
aged sweeps retire blocks by ledger contents, and WAF accounting
assumes the ledger only advances through the erase paths in
:mod:`repro.ssd.ftl` and :mod:`repro.lifetime`.  A stray
``ftl.erases[u, b] += 1`` anywhere else silently desynchronises the
ledger from the generation counter — the memoized wear core then serves
stale spread/Gini numbers with no error anywhere:

* ``WEAR001`` — assignment or in-place mutation of an attribute named
  ``erases`` / ``erase_gen`` (including subscript stores) in a file
  outside ``ssd/`` or ``lifetime/``; go through the FTL's erase paths
  (``_collect``/``_static_swap``) or
  ``install_preexisting_wear()`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from ..context import FileContext
from ..findings import Finding
from ..registry import FileChecker, register

__all__ = ["WearChecker"]

#: attribute names that make up the FTL erase ledger
_LEDGER_ATTRS = frozenset({"erases", "erase_gen"})

#: directory names (anywhere on the file's path) allowed to mutate it
_EXEMPT_DIRS = frozenset({"ssd", "lifetime"})


def _ledger_attr(node: ast.expr) -> Optional[str]:
    """The ledger attribute a store target touches, if any.

    Peels subscripts so both ``x.erases = ...`` and
    ``x.erases[u, b] += 1`` resolve to ``erases``; a bare name
    (``erases = ...``) is somebody's local and is not flagged.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _LEDGER_ATTRS:
        return node.attr
    return None


@register
class WearChecker(FileChecker):
    codes = {
        "WEAR001": "FTL erase ledger mutated outside ssd/ or lifetime/",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parts = Path(ctx.relpath).parts[:-1]  # directories only
        if any(p in _EXEMPT_DIRS for p in parts):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                targets = [node.target]
            else:
                continue
            for target in targets:
                # tuple unpacking: (a.erases, b) = ... still counts
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for elt in elts:
                    attr = _ledger_attr(elt)
                    if attr is not None:
                        yield ctx.finding(
                            "WEAR001",
                            node,
                            f"direct mutation of the FTL erase ledger "
                            f"(`.{attr}`) outside ssd/ or lifetime/ "
                            "desynchronises wear accounting from its "
                            "generation counter; use the FTL erase paths "
                            "or `install_preexisting_wear()`",
                        )
