"""Incremental-analysis cache: reuse, invalidation, self-salting."""

import ast
from pathlib import Path

from repro.lint import LintConfig, lint_paths
from repro.lint.cache import AnalysisCache

FIXTURES = Path(__file__).parent / "fixtures"

_VIOLATION = (
    "import time\n"
    "\n"
    "\n"
    "def helper():\n"
    "    return time.perf_counter_ns()\n"
    "\n"
    "\n"
    "def record(tr):\n"
    "    tr.sim_span('a', 'b', helper(), helper() + 1)\n"
)


def _tree(tmp_path: Path) -> Path:
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "mod.py").write_text(_VIOLATION)
    (proj / "other.py").write_text("def ok():\n    return 1\n")
    return proj


def test_warm_run_reuses_everything_and_matches_cold(tmp_path):
    proj = _tree(tmp_path)
    cold_cache = AnalysisCache(tmp_path / "cache")
    cold = lint_paths([proj], LintConfig(), cache=cold_cache)
    assert cold_cache.misses and not cold_cache.hits
    assert (tmp_path / "cache" / "analysis.json").exists()

    warm_cache = AnalysisCache(tmp_path / "cache")
    warm = lint_paths([proj], LintConfig(), cache=warm_cache)
    assert warm_cache.hits and not warm_cache.misses
    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings
    ]
    assert any(f.rule == "FLOW001" for f in warm.findings)


def test_editing_one_file_invalidates_it_and_the_project_pass(tmp_path):
    proj = _tree(tmp_path)
    lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))

    (proj / "other.py").write_text("def ok():\n    return 2\n")
    cache = AnalysisCache(tmp_path / "c")
    lint_paths([proj], LintConfig(), cache=cache)
    # unchanged mod.py hits; edited other.py misses; the whole-program
    # pass is keyed on the tree hash, so it re-runs too
    assert cache.hits == 1
    assert cache.misses == 2


def test_fixing_the_violation_updates_cached_findings(tmp_path):
    proj = _tree(tmp_path)
    lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))

    (proj / "mod.py").write_text(
        "def record(tr, t0):\n    tr.sim_span('a', 'b', t0, t0 + 1)\n"
    )
    result = lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    assert result.findings == []

    # and a fresh warm run still reports the fixed state
    again = lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    assert again.findings == []


def test_tool_salt_change_discards_the_cache(tmp_path, monkeypatch):
    proj = _tree(tmp_path)
    lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))

    monkeypatch.setattr(
        "repro.lint.cache._tool_salt", lambda: "different-salt"
    )
    cache = AnalysisCache(tmp_path / "c")
    assert cache.get_file("anything", "whatever") is None
    lint_paths([proj], LintConfig(), cache=cache)
    assert cache.hits == 0  # everything re-analyzed


def test_cached_findings_are_raw_so_baseline_edits_apply(tmp_path):
    """The cache stores pre-noqa/pre-baseline findings; suppression is
    applied per run, so adding a noqa without touching other files
    still suppresses on a warm cache."""
    proj = _tree(tmp_path)
    lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))

    (proj / "mod.py").write_text(
        _VIOLATION.replace(
            "tr.sim_span('a', 'b', helper(), helper() + 1)",
            "tr.sim_span('a', 'b', helper(), helper() + 1)"
            "  # repro: noqa[FLOW001]",
        )
    )
    result = lint_paths(
        [proj], LintConfig(), cache=AnalysisCache(tmp_path / "c")
    )
    assert result.findings == []
    assert result.suppressed >= 1


def test_warm_run_over_an_unchanged_tree_parses_nothing(tmp_path, monkeypatch):
    proj = _tree(tmp_path)
    (proj / "broken.py").write_text("def broken(:\n")
    cold = lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    assert [f.rule for f in cold.findings].count("PARSE") == 1

    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    warm = lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    # the unparseable file is never cached, so it alone is parsed again
    assert len(calls) == 1
    assert warm.to_dict() == cold.to_dict()

    # an unparseable file never enters the tree digest either, so the
    # tree without it is still fully warm
    (proj / "broken.py").unlink()
    calls.clear()
    warm = lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    assert calls == []
    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings if f.rule != "PARSE"
    ]

    # one edit: that file misses, and the project pass parses the rest
    (proj / "other.py").write_text("def ok():\n    return 2\n")
    lint_paths([proj], LintConfig(), cache=AnalysisCache(tmp_path / "c"))
    assert len(calls) == 2


def test_a_narrow_select_still_caches_the_whole_project_pass(tmp_path):
    """A run that deselects FLOW must not cache an empty whole-program
    pass that a later FLOW run on the same tree would then reuse."""
    proj = _tree(tmp_path)
    det_only = LintConfig(select=frozenset({"DET"}))
    lint_paths([proj], det_only, cache=AnalysisCache(tmp_path / "c"))

    flow_only = LintConfig(select=frozenset({"FLOW"}))
    cache = AnalysisCache(tmp_path / "c")
    warm = lint_paths([proj], flow_only, cache=cache)
    assert cache.hits and not cache.misses
    assert [f.rule for f in warm.findings] == ["FLOW001", "FLOW001"]
