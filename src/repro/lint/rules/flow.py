"""FLOW — interprocedural taint findings inside ``repro lint``.

Thin project-checker adapter around :mod:`repro.flow`: the analyzer
sees every scanned file at once (it is a whole-program analysis), and
its findings ride the same noqa/baseline/fingerprint machinery as any
per-file rule.  The heavy lifting — symbol table, call graph, three
taint lattices — lives in :mod:`repro.flow.analysis`.

* ``FLOW001`` — a wall-clock-derived value (``time.perf_counter`` &
  friends, any number of assignments/calls away) reaches a sim-domain
  timestamp: ``sim_span`` start/end, ``Simulator.timeout``/
  ``_schedule``;
* ``FLOW002`` — a process-dependent value (``id()``, ``hash()``,
  ``os.getpid``, global-RNG draws, set iteration order, wall clocks)
  reaches a site/seed/cache identity: a ``hashlib`` digest, a
  ``FaultPlan.uniform``/``occurs`` site, a ``PacketOracle.lost`` query
  or a ``site=``/``site_key=`` keyword;
* ``FLOW003`` — an unpicklable-by-policy object (lambda/closure, open
  handle, live RNG/tracer/FTL/simulator, columnar batch plan) reaches
  a process-pool submission, even via helper returns or captures —
  the only pool-escape check.
"""

from __future__ import annotations

from typing import Iterator

from ...flow.analysis import FLOW_CODES, analyze_contexts
from ..context import FileContext, LintConfig
from ..findings import Finding
from ..registry import ProjectChecker, register

__all__ = ["FlowChecker"]


@register
class FlowChecker(ProjectChecker):
    codes = dict(FLOW_CODES)

    def check_project(
        self, ctxs: list[FileContext], config: LintConfig
    ) -> Iterator[Finding]:
        if ctxs:
            yield from analyze_contexts(ctxs)
