"""FLOW003 is the one pool-escape check: the planted escapes of the
retired per-file POOL rules, each reported exactly once."""

import re
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths

POOL = Path(__file__).parent / "fixtures" / "pool"
FLOW003 = LintConfig(select=frozenset({"FLOW003"}))


def flow003_lines(path: Path) -> list[int]:
    return [f.line for f in lint_paths([path], FLOW003).findings]


def marked_lines(path: Path) -> list[int]:
    """Lines whose trailing comment says ``# FLOW003``."""
    return [
        n
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"  # FLOW003\b", line)
    ]


def test_pool_violations_report_flow003_once_per_line():
    # the lines POOL001-004 reported: lambda, RNG, two handles, two plans
    assert flow003_lines(POOL / "pool_violations.py") == [15, 16, 17, 18, 29, 30]


# pool_rebound.py rebinds the submitted name afterwards, which hid the
# escape from the per-file rule
@pytest.mark.parametrize(
    "fixture", ["pool_violations.py", "pool_shapes.py", "pool_rebound.py"]
)
def test_every_marked_line_reports_once(fixture):
    path = POOL / fixture
    assert flow003_lines(path) == marked_lines(path)


def test_pool_clean_file_is_clean():
    assert lint_paths([POOL / "pool_clean.py"]).findings == []


def test_nested_def_reports_the_site_once(tmp_path):
    """The escape inside a nested function is reported, and silenced by
    its ``noqa[FLOW003]``, exactly once."""
    fixture = POOL / "pool_nested.py"
    stripped = tmp_path / fixture.name
    stripped.write_text(re.sub(r"  # repro: noqa\[\w+\]", "", fixture.read_text()))
    assert [f.rule for f in lint_paths([stripped], FLOW003).findings] == [
        "FLOW003"
    ]

    silenced = lint_paths([fixture], FLOW003)
    assert silenced.findings == []
    assert silenced.suppressed == 1
