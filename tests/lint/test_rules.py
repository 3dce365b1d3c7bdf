"""Golden fixture tests: one clean + one violating file per rule family."""

import re
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def rules_in(path: Path, select: str | None = None) -> list[str]:
    config = LintConfig(
        select=frozenset(select.split(",")) if select else None
    )
    result = lint_paths([path], config)
    return [f.rule for f in result.findings]


# -- DET ----------------------------------------------------------------
def test_det_violations_all_fire():
    rules = rules_in(FIXTURES / "sim" / "det_violations.py", "DET")
    assert rules.count("DET001") == 1
    assert rules.count("DET002") == 1
    assert rules.count("DET003") == 2  # global RNG + unseeded ctor
    assert rules.count("DET004") == 1
    assert rules.count("DET005") == 1


def test_det_clean_file_is_clean():
    assert rules_in(FIXTURES / "sim" / "det_clean.py") == []


def test_det_only_gated_dirs(tmp_path):
    """The same nondeterminism outside sim/ssd/... is not DET's business."""
    src = (FIXTURES / "sim" / "det_violations.py").read_text()
    ungated = tmp_path / "tools" / "report.py"
    ungated.parent.mkdir(parents=True)
    ungated.write_text(src)
    assert rules_in(ungated, "DET") == []
    gated = tmp_path / "ssd" / "model.py"
    gated.parent.mkdir(parents=True)
    gated.write_text(src)
    assert "DET001" in rules_in(gated, "DET")


# -- UNIT ---------------------------------------------------------------
def test_unit_violations_all_fire():
    rules = rules_in(FIXTURES / "unit_violations.py")
    assert rules.count("UNIT001") == 3
    assert rules.count("UNIT002") == 1
    assert rules.count("UNIT003") == 1
    assert rules.count("UNIT004") == 1


def test_unit_clean_file_is_clean():
    assert rules_in(FIXTURES / "unit_clean.py") == []


def test_unit_messages_distinguish_families():
    result = lint_paths([FIXTURES / "unit_violations.py"])
    by_line = {f.line: f.message for f in result.findings}
    mixed_family = [m for m in by_line.values() if "dimensionally" in m]
    assert mixed_family, "cross-family arithmetic should say it is meaningless"


# -- SITE ---------------------------------------------------------------
def test_site_violations_all_fire():
    rules = rules_in(FIXTURES / "site_violations.py")
    assert rules.count("SITE001") >= 3  # id(), repr(), hash() via site=
    assert "SITE002" in rules
    assert rules.count("SITE003") == 2  # packet oracle id() + site_key f-string


def test_site_clean_file_is_clean():
    assert rules_in(FIXTURES / "site_clean.py") == []


# -- DET001: the tracer's wall domain ----------------------------------
def test_obs_violations_all_fire():
    """``wall_span``/``wall_event`` calls and imports are wall-clock
    reads: one DET001 on each of the import, the span and the event."""
    result = lint_paths(
        [FIXTURES / "sim" / "obs_violations.py"], LintConfig()
    )
    assert [(f.rule, f.line) for f in result.findings] == [
        ("DET001", 3),
        ("DET001", 7),
        ("DET001", 9),
    ]


def test_obs_clean_file_is_clean():
    assert rules_in(FIXTURES / "sim" / "obs_clean.py") == []


def test_obs_only_gated_dirs(tmp_path):
    """Wall spans are the whole point outside sim/ssd/...: not DET's business."""
    src = (FIXTURES / "sim" / "obs_violations.py").read_text()
    ungated = tmp_path / "experiments" / "runner.py"
    ungated.parent.mkdir(parents=True)
    ungated.write_text(src)
    assert rules_in(ungated) == []


# -- select filter ------------------------------------------------------
@pytest.mark.parametrize(
    "select,expected",
    [("UNIT003", {"UNIT003"}), ("UNIT", {"UNIT001", "UNIT002", "UNIT003", "UNIT004"})],
)
def test_select_filters_by_code_and_family(select, expected):
    rules = set(rules_in(FIXTURES / "unit_violations.py", select))
    assert rules == expected


# -- WEAR ---------------------------------------------------------------
def test_wear_violations_all_fire():
    rules = rules_in(FIXTURES / "wear_violations.py", "WEAR")
    assert rules.count("WEAR001") == 7


def test_wear_clean_file_is_clean():
    assert rules_in(FIXTURES / "wear_clean.py", "WEAR") == []


def test_wear_exempts_device_layers(tmp_path):
    """The same mutations under ssd/ or lifetime/ are the erase paths."""
    src = (FIXTURES / "wear_violations.py").read_text()
    for exempt in ("ssd", "lifetime"):
        gated = tmp_path / exempt / "ftl.py"
        gated.parent.mkdir(parents=True)
        gated.write_text(src)
        assert rules_in(gated, "WEAR") == []
    elsewhere = tmp_path / "experiments" / "hack.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text(src)
    assert "WEAR001" in rules_in(elsewhere, "WEAR")


# -- nested scopes: one finding per site --------------------------------
def _without_noqa(tmp_path: Path, fixture: str) -> Path:
    """A copy of ``fixture`` (same directory shape) with its noqa
    comments stripped."""
    target = tmp_path / fixture
    target.parent.mkdir(parents=True, exist_ok=True)
    src = (FIXTURES / fixture).read_text()
    target.write_text(re.sub(r"  # repro: noqa\[\w+\]", "", src))
    return target


@pytest.mark.parametrize("fixture, rule", [("sim/det_nested.py", "DET005")])
def test_nested_def_reports_each_site_once(tmp_path, fixture, rule):
    """A nested function is scanned on its own and inside its enclosing
    one; the site must still be reported, and silenced, exactly once."""
    config = LintConfig(select=frozenset({rule}))
    findings = lint_paths([_without_noqa(tmp_path, fixture)], config).findings
    assert [f.rule for f in findings] == [rule]

    silenced = lint_paths([FIXTURES / fixture], config)
    assert silenced.findings == []
    assert silenced.suppressed == 1


def test_nested_det005_names_the_innermost_function(tmp_path):
    target = _without_noqa(tmp_path, "sim/det_nested.py")
    (finding,) = lint_paths(
        [target], LintConfig(select=frozenset({"DET005"}))
    ).findings
    assert "inside `key_of`" in finding.message
