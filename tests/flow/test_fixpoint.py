"""The one-pass worklist fixpoint against the two-phase oracle.

:meth:`FlowAnalyzer._solve` re-evaluates a function only when a summary
it read has changed, and keeps the findings of each function's last
evaluation; :mod:`tests.oracles.flow_fixpoint` re-evaluates every
function every sweep, then interprets each once more to emit.
Summaries and findings must be identical, including where the
``_MAX_ROUNDS`` cap cuts the solve short.
"""

import tarfile
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
#: the lint benchmark's pinned source tree
CORPUS = (
    Path(__file__).resolve().parents[2]
    / "perfbench" / "corpus" / "lint-corpus-969383c.tar.xz"
)


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
    findings, sweeps = analyzer._solve()
    return analyzer.summaries, findings, sweeps


def spy_evaluations(monkeypatch) -> list[str]:
    """The fqn of every evaluation, in call order."""
    calls: list[str] = []
    real = FlowAnalyzer._evaluate

    def spy(self, fn, emit):
        calls.append(fn.fqn)
        return real(self, fn, emit)

    monkeypatch.setattr(FlowAnalyzer, "_evaluate", spy)
    return calls


def ascending_runs(calls: list[str]) -> list[list[str]]:
    """``calls`` cut wherever the fqn does not increase: a sweep
    evaluates in sorted order, so no run spans two sweeps."""
    runs: list[list[str]] = []
    for fqn in calls:
        if runs and runs[-1][-1] < fqn:
            runs[-1].append(fqn)
        else:
            runs.append([fqn])
    return runs


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


def test_sweep_cap_reemits_dirty_functions(monkeypatch):
    """``seal`` reads the summary that changed in the last sweep the cap
    allows: production evaluates it once more after the solve, emitting
    the oracle's finding and discarding the summary."""
    ctxs = contexts(FIXTURES / "capsink")
    want_summaries, want_findings, want_sweeps = oracle.analyze(ctxs)
    calls = spy_evaluations(monkeypatch)
    summaries, findings, sweeps = solve(ctxs)
    assert sweeps == want_sweeps == _MAX_ROUNDS
    assert summaries == want_summaries
    assert findings == want_findings
    assert [(f.rule, f.line) for f in findings] == [("FLOW002", 16)]
    # the last sweep evaluates step_01 alone; seal, dirty after it, is
    # the only function evaluated after the cap
    runs = [
        [fqn.rsplit(".", 1)[-1] for fqn in run] for run in ascending_runs(calls)
    ]
    assert len(runs) == _MAX_ROUNDS + 1
    assert runs[-2:] == [["step_01"], ["seal"]]


def test_evaluation_counts(monkeypatch):
    """One pass: every function is evaluated at least once, all in the
    solve's sweeps (the live tree converges before the cap, so no
    function is evaluated after it), and the solve skips most of the
    evaluations the round-robin oracle makes."""
    _, _, oracle_sweeps = live_oracle()
    assert oracle_sweeps < _MAX_ROUNDS
    calls = spy_evaluations(monkeypatch)
    analyzer = FlowAnalyzer(list(live_contexts()))
    analyzer.run()
    functions = sorted(analyzer.index.functions)
    runs = ascending_runs(calls)
    # the first sweep evaluates everything; an emission pass would be
    # one more full sweep after the last
    assert runs[0] == functions
    assert all(len(run) < len(functions) for run in runs[1:])
    assert len(runs) <= oracle_sweeps
    assert len(calls) < len(functions) * oracle_sweeps


def test_pinned_corpus_evaluation_count(tmp_path, monkeypatch):
    """The pinned corpus solves in exactly 1,182 evaluations with the
    oracle's summaries and findings.  Its first sweep stores 908
    summaries, 130 of which are the empty default: storing one of those
    changes nothing a reader saw, so it dirties no reader (comparing
    against a missing summary instead took 1,206)."""
    with tarfile.open(CORPUS) as tar:
        tar.extractall(tmp_path, filter="data")
    ctxs = contexts(tmp_path / "src" / "repro")
    want = oracle.analyze(ctxs)
    calls = spy_evaluations(monkeypatch)
    summaries, findings, _ = solve(ctxs)
    assert len(calls) == 1182
    assert summaries == want[0]
    assert findings == want[1]
