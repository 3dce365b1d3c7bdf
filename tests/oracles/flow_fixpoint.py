"""The FLOW summary fixpoint as plain round-robin sweeps.

Every sweep re-evaluates every function in sorted order, until a sweep
changes no summary or ``_MAX_ROUNDS`` sweeps have run.  The production
:meth:`repro.flow.analysis.FlowAnalyzer._solve` skips the evaluations
whose inputs did not change; its summaries and findings must equal
these exactly.
"""

from __future__ import annotations

from repro.flow.analysis import _MAX_ROUNDS, FlowAnalyzer, Summary
from repro.lint.context import FileContext
from repro.lint.findings import Finding

__all__ = ["round_robin", "analyze"]


def round_robin(analyzer: FlowAnalyzer) -> int:
    """Solve ``analyzer.summaries`` in place; returns the sweeps run."""
    order = sorted(analyzer.index.functions)
    sweeps = 0
    for _ in range(_MAX_ROUNDS):
        sweeps += 1
        changed = False
        for fqn in order:
            new, _ = analyzer._evaluate(analyzer.index.functions[fqn], emit=None)
            if analyzer.summaries.get(fqn) != new:
                analyzer.summaries[fqn] = new
                changed = True
        if not changed:
            break
    return sweeps


def analyze(
    contexts: list[FileContext],
) -> tuple[dict[str, Summary], list[Finding], int]:
    """Summaries, findings and sweep count of the round-robin solve."""
    analyzer = FlowAnalyzer(list(contexts))
    sweeps = round_robin(analyzer)
    return analyzer.summaries, analyzer._findings(), sweeps
