"""Why each per-file rule that overlaps a FLOW rule survives: for each
overlapping pair, fixture lines that only the per-file rule reports.

A per-file rule whose every planted violation FLOW also reports is
redundant and is retired into FLOW (as POOL001-004 were into FLOW003).
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths

LINT_FIXTURES = Path(__file__).parents[1] / "lint" / "fixtures"


def lines_by_family(path: Path, families: set[str]) -> dict[str, set[int]]:
    config = LintConfig(select=frozenset(families))
    found: dict[str, set[int]] = {family: set() for family in families}
    for f in lint_paths([path], config).findings:
        found[f.rule.rstrip("0123456789")].add(f.line)
    return found


@pytest.mark.parametrize(
    "fixture, per_file, flow_rule, only_per_file",
    [
        # repr() in a site, and computed f-strings in sites and packet
        # keys: FLOW002 tracks provenance, not how a site is spelled
        ("site_violations.py", "SITE", "FLOW002", {9, 13, 27}),
        # a wall-clock read with no sim-domain timestamp downstream:
        # FLOW001 only fires where the value reaches one
        ("sim/det_violations.py", "DET", "FLOW001", {12}),
    ],
)
def test_per_file_rule_reports_lines_flow_misses(
    fixture, per_file, flow_rule, only_per_file
):
    found = lines_by_family(LINT_FIXTURES / fixture, {per_file, "FLOW"})
    assert only_per_file <= found[per_file]
    assert not only_per_file & found["FLOW"]

