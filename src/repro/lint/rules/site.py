"""SITE — stability of fault-plan decision sites.

Every :class:`~repro.faults.plan.FaultPlan` decision hashes
``(seed, *site)``; the determinism guarantee ("same seed ⇒ identical
faults, regardless of worker count") holds **only if the site spells
identically in every process**.  An f-string that interpolates
``id(obj)``, ``repr(obj)`` or ``hex(id(obj))`` bakes a per-process heap
address into the site, silently turning deterministic chaos into
unreproducible chaos — the exact failure mode the chaos tests exist to
prevent, caught here before a test ever runs.

Checked call shapes: ``plan.uniform(*site)``, ``plan.occurs(rate,
*site)`` (first argument is the rate, not a site component), and any
call with a ``site=`` keyword (the typed ``FaultError``s and
``FaultEvent`` carry sites too).

The same contract governs the **packet-level** identities of
:mod:`repro.netfault`: ``oracle.lost(link, transfer_seq, pkt_seq,
attempt)`` hashes its arguments the way a fault plan hashes a site, and
a tracer ``site_key=`` keyword derives the sim-span id that must match
across worker counts.  An unstable value in either breaks the
byte-stable retransmission-schedule guarantee.

* ``SITE001`` — a site component contains ``id()``, ``hex()``,
  ``repr()``, ``hash()`` or ``object()``: process-dependent values;
* ``SITE002`` — a site component is an f-string interpolating a
  computed expression (anything but a plain name/attribute/constant):
  compute the value into a named variable first so its stability can
  be reviewed, or pass the raw fields as separate site components;
* ``SITE003`` — a packet-oracle query (``.lost(...)``) or span
  ``site_key=`` carries a process-dependent value or computed
  f-string: packet identities must be stable, or loss draws and span
  ids diverge across workers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext, walk
from ..findings import Finding
from ..registry import FileChecker, dotted_name, register

__all__ = ["SiteChecker"]

_QUERY_METHODS = frozenset({"uniform", "occurs"})
#: packet-oracle queries: every positional argument is a site component
_PACKET_QUERY_METHODS = frozenset({"lost"})
_UNSTABLE_CALLS = frozenset({"id", "hex", "repr", "hash", "object"})


def _site_args(call: ast.Call) -> Iterator[tuple[ast.expr, str]]:
    """Yield (component, family) pairs; family is "plan" or "packet"."""
    if isinstance(call.func, ast.Attribute):
        if call.func.attr in _QUERY_METHODS:
            args = call.args[1:] if call.func.attr == "occurs" else call.args
            for a in args:
                yield (a.value if isinstance(a, ast.Starred) else a), "plan"
        elif call.func.attr in _PACKET_QUERY_METHODS:
            for a in call.args:
                yield (a.value if isinstance(a, ast.Starred) else a), "packet"
    for kw in call.keywords:
        if kw.arg == "site":
            yield kw.value, "plan"
        elif kw.arg == "site_key":
            yield kw.value, "packet"


@register
class SiteChecker(FileChecker):
    codes = {
        "SITE001": "fault-plan site contains a process-dependent value",
        "SITE002": "fault-plan site interpolates a computed f-string",
        "SITE003": "packet/span site identity contains an unstable value",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            for arg, family in _site_args(node):
                yield from self._check_component(ctx, arg, family)

    def _check_component(
        self, ctx: FileContext, arg: ast.expr, family: str
    ) -> Iterator[Finding]:
        for sub in walk(arg):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name in _UNSTABLE_CALLS or (
                    name is not None and name.endswith(".__repr__")
                ):
                    if family == "packet":
                        yield ctx.finding(
                            "SITE003",
                            sub,
                            f"`{name}(...)` in a packet-oracle query or span "
                            "site_key is process-dependent; packet identities "
                            "must be stable or loss draws and span ids "
                            "diverge across worker counts",
                        )
                    else:
                        yield ctx.finding(
                            "SITE001",
                            sub,
                            f"`{name}(...)` in a fault-plan site is process-"
                            "dependent (heap addresses / hash salting); sites "
                            "must hash identically in every worker — use stable "
                            "ids (labels, sequence numbers) instead",
                        )
            elif isinstance(sub, ast.FormattedValue):
                if not isinstance(
                    sub.value, (ast.Name, ast.Attribute, ast.Constant)
                ):
                    if family == "packet":
                        yield ctx.finding(
                            "SITE003",
                            sub,
                            "f-string in a packet-oracle query or span "
                            "site_key interpolates a computed expression; "
                            "bind it to a named variable so its cross-"
                            "process stability is reviewable",
                        )
                    else:
                        yield ctx.finding(
                            "SITE002",
                            sub,
                            "f-string site component interpolates a computed "
                            "expression; bind it to a named variable (or pass "
                            "the raw fields as separate site components) so "
                            "its cross-process stability is reviewable",
                        )
