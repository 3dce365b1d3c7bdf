"""FLOW rule fixtures: every rule must fire *interprocedurally*.

Each violating case keeps its source and its sink in different
functions (mostly different files), shapes the per-file DET/SITE
rules provably miss — the point of the whole-program pass.
"""

from pathlib import Path

from repro.lint import LintConfig, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
PROJ = FIXTURES / "proj"
CLEAN = FIXTURES / "projclean"


def run_flow(path: Path):
    result = lint_paths([path], LintConfig(select=frozenset({"FLOW"})))
    return result.findings


def test_flow001_wall_reaches_sim_span_across_files():
    hits = [f for f in run_flow(PROJ) if f.rule == "FLOW001"]
    # both timestamp args of the one sim_span call
    assert len(hits) == 2
    assert all(f.path.endswith("proj/spans.py") for f in hits)
    # provenance names the source file, two calls away
    assert all("timing.py" in f.message for f in hits)


def test_flow002_unstable_reaches_identities_across_files():
    hits = [f for f in run_flow(PROJ) if f.rule == "FLOW002"]
    assert len(hits) == 3
    assert all(f.path.endswith("proj/cachekey.py") for f in hits)
    messages = " | ".join(f.message for f in hits)
    assert "hash-digest identity" in messages
    assert "fault-plan decision site" in messages
    assert "id() at" in messages and "os.getpid() at" in messages


def test_flow002_transitive_sink_names_the_callee_chain():
    """The hashlib sink sits inside digest_for; the finding is at the
    caller and the message names the summary chain."""
    hits = [
        f
        for f in run_flow(PROJ)
        if f.rule == "FLOW002" and "hash-digest" in f.message
    ]
    assert len(hits) == 1
    assert "via" in hits[0].message and "digest_for" in hits[0].message


def test_flow003_escapes_reach_pool_submissions():
    hits = [f for f in run_flow(PROJ) if f.rule == "FLOW003"]
    assert len(hits) == 3
    messages = [f.message for f in hits]
    # helper-returned open() handle into pool.submit
    assert any("open file handles" in m and "open()" in m for m in messages)
    # nested closure through the project Engine.map summary
    assert any("unpicklable" in m and "def bump" in m for m in messages)
    # __init__-bound field (self.sink_file) escaping in another method
    assert any(".sink_file" in m for m in messages)


def test_flow003_closure_case_crosses_into_engine_summary():
    hits = [
        f
        for f in run_flow(PROJ)
        if f.rule == "FLOW003" and "def bump" in f.message
    ]
    assert len(hits) == 1
    # sink location is inside Engine.map, reported via the summary chain
    assert "Engine.map" in hits[0].message
    assert "engine.py" in hits[0].message


def test_clean_mirror_is_clean():
    assert run_flow(CLEAN) == []


def test_per_file_rules_miss_all_of_it():
    """The same tree under every per-file family: zero findings.

    This is the existence proof that the FLOW findings require
    whole-program analysis — each fixture splits source from sink
    across function/file boundaries that per-file AST rules cannot
    cross.
    """
    config = LintConfig(
        select=frozenset({"DET", "UNIT", "SITE", "WEAR", "SCHEMA"})
    )
    result = lint_paths([PROJ], config)
    assert result.findings == []


def test_flow_findings_carry_fingerprints_for_baselining():
    findings = run_flow(PROJ)
    fps = {f.fingerprint() for f in findings}
    # fingerprints hash (rule, path, snippet) so they survive line
    # shifts; the two FLOW001 hits on the one sim_span line share one
    assert len(findings) == 8 and len(fps) == 7
