"""The FLOW analysis as two plain phases.

1. **Round-robin solve.**  Every sweep re-evaluates every function in
   sorted order, until a sweep changes no summary or ``_MAX_ROUNDS``
   sweeps have run.
2. **Emission.**  Every function is interpreted once more, on the
   final summaries, and its findings are collected.

The production :meth:`repro.flow.analysis.FlowAnalyzer._solve` skips the
evaluations whose inputs did not change and keeps each function's
findings from its last evaluation; its summaries and findings must equal
these exactly.
"""

from __future__ import annotations

from repro.flow.analysis import _MAX_ROUNDS, FlowAnalyzer, Summary
from repro.lint.context import FileContext
from repro.lint.findings import Finding, unique_sites

__all__ = ["round_robin", "findings", "analyze"]


def round_robin(analyzer: FlowAnalyzer) -> int:
    """Solve ``analyzer.summaries`` in place; returns the sweeps run."""
    order = sorted(analyzer.index.functions)
    sweeps = 0
    for _ in range(_MAX_ROUNDS):
        sweeps += 1
        changed = False
        for fqn in order:
            new, _ = analyzer._evaluate(analyzer.index.functions[fqn], [])
            if analyzer.summaries.get(fqn) != new:
                analyzer.summaries[fqn] = new
                changed = True
        if not changed:
            break
    return sweeps


def findings(analyzer: FlowAnalyzer) -> list[Finding]:
    """Interpret every function once more on the solved summaries."""
    out: list[Finding] = []
    for fqn in sorted(analyzer.index.functions):
        analyzer._evaluate(analyzer.index.functions[fqn], out)
    # loop bodies are interpreted twice (loop-carried taints), so keep
    # the last finding per site: its taint set is the widest
    return sorted(unique_sites(out))


def analyze(
    contexts: list[FileContext],
) -> tuple[dict[str, Summary], list[Finding], int]:
    """Summaries, findings and sweep count of the two-phase analysis."""
    analyzer = FlowAnalyzer(list(contexts))
    sweeps = round_robin(analyzer)
    return analyzer.summaries, findings(analyzer), sweeps
