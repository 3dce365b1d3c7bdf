"""The worklist summary fixpoint against the round-robin oracle.

:meth:`FlowAnalyzer._solve` re-evaluates a function only when a summary
it read has changed; :mod:`tests.oracles.flow_fixpoint` re-evaluates
every function every sweep.  Summaries and findings must be identical,
including where the ``_MAX_ROUNDS`` cap cuts the solve short.
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.flow.analysis import _MAX_ROUNDS, FlowAnalyzer
from repro.lint.context import FileContext, LintConfig
from repro.lint.runner import _parse, _read, iter_python_files
from tests.oracles import flow_fixpoint as oracle

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(repro.__file__).resolve().parent


def contexts(path: Path) -> list[FileContext]:
    built = (
        _parse(p, *_read(p), LintConfig()) for p in iter_python_files([path])
    )
    return [c for c in built if isinstance(c, FileContext)]


@lru_cache(maxsize=None)
def live_contexts() -> tuple[FileContext, ...]:
    return tuple(contexts(SRC))


@lru_cache(maxsize=None)
def live_oracle():
    return oracle.analyze(list(live_contexts()))


def solve(ctxs):
    analyzer = FlowAnalyzer(list(ctxs))
    sweeps = analyzer._solve()
    return analyzer.summaries, analyzer._findings(), sweeps


def assert_matches(ctxs, want=None) -> None:
    summaries, findings, _ = solve(ctxs)
    want_summaries, want_findings, _ = want or oracle.analyze(list(ctxs))
    assert summaries == want_summaries
    assert findings == want_findings


@pytest.mark.parametrize(
    "tree", sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())
)
def test_fixture_trees_match_oracle(tree):
    assert_matches(contexts(FIXTURES / tree))


def test_live_tree_matches_oracle():
    assert_matches(live_contexts(), live_oracle())


@settings(max_examples=4, deadline=None)
@given(st.data())
def test_random_file_subsets_match_oracle(data):
    ctxs = live_contexts()
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(ctxs), max_size=len(ctxs))
    )
    assert_matches([c for c, k in zip(ctxs, keep) if k])


def test_sweep_cap_bites_identically():
    """Wall-clock taint climbs the chain one function per sweep; both
    solves stop at the cap with its top still clean."""
    ctxs = contexts(FIXTURES / "chain")
    summaries, findings, sweeps = solve(ctxs)
    want_summaries, want_findings, want_sweeps = oracle.analyze(ctxs)
    assert sweeps == want_sweeps == _MAX_ROUNDS
    assert summaries == want_summaries
    assert findings == want_findings == []
    tainted = sorted(
        fqn.rsplit(".", 1)[-1] for fqn, s in summaries.items() if s.ret
    )
    assert tainted == [f"step_{i:02d}" for i in range(15 - _MAX_ROUNDS, 15)]


def test_evaluation_counts(monkeypatch):
    """Each function is evaluated at least once while solving and
    exactly once while emitting; solving skips most of the evaluations
    the round-robin oracle makes."""
    _, _, oracle_sweeps = live_oracle()
    calls: list[tuple[str, bool]] = []
    real = FlowAnalyzer._evaluate

    def spy(self, fn, emit):
        calls.append((fn.fqn, emit is None))
        return real(self, fn, emit)

    monkeypatch.setattr(FlowAnalyzer, "_evaluate", spy)
    analyzer = FlowAnalyzer(list(live_contexts()))
    analyzer.run()
    functions = sorted(analyzer.index.functions)
    solving = [fqn for fqn, phase1 in calls if phase1]
    emitting = [fqn for fqn, phase1 in calls if not phase1]
    assert sorted(set(solving)) == functions
    assert sorted(emitting) == functions
    assert len(solving) < len(functions) * oracle_sweeps
