"""Golden-schema test for ``--format sarif`` on both CLIs."""

import json
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.baseline import Baseline
from repro.lint.cli import run_cli
from repro.lint.registry import all_rule_codes
from repro.lint.sarif import FINGERPRINT_KEY, to_sarif

FIXTURES = Path(__file__).parent / "fixtures"
FLOW_FIXTURES = Path(__file__).parent.parent / "flow" / "fixtures" / "proj"


def test_sarif_log_matches_the_2_1_0_shape():
    result = lint_paths([FIXTURES / "site_violations.py"], LintConfig())
    assert result.findings
    log = to_sarif(result, all_rule_codes())

    assert log["$schema"] == "https://json.schemastore.org/sarif-2.1.0.json"
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert all(r["shortDescription"]["text"] for r in driver["rules"])

    assert len(run["results"]) == len(result.findings)
    for res, finding in zip(run["results"], result.findings):
        assert res["ruleId"] == finding.rule
        assert res["level"] == "error"
        assert res["message"]["text"] == finding.message
        (loc,) = res["locations"]
        phys = loc["physicalLocation"]
        assert phys["artifactLocation"]["uri"] == finding.path
        region = phys["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.col + 1
        assert res["partialFingerprints"][FINGERPRINT_KEY] == (
            finding.fingerprint()
        )


def test_sarif_emits_baselined_findings_as_suppressed():
    result = lint_paths([FIXTURES / "site_violations.py"], LintConfig())
    finding = result.findings[0]
    baseline = Baseline.from_findings([finding], "golden test")
    result2 = lint_paths(
        [FIXTURES / "site_violations.py"], LintConfig(), baseline
    )
    log = to_sarif(result2, all_rule_codes())
    suppressed = [
        r for r in log["runs"][0]["results"] if r.get("suppressions")
    ]
    assert suppressed
    for r in suppressed:
        assert r["suppressions"][0]["kind"] == "external"


def test_sarif_is_valid_json_through_both_clis(capsys):
    rc = run_cli(
        ["--format", "sarif", "--no-baseline", str(FLOW_FIXTURES)],
    )
    lint_log = json.loads(capsys.readouterr().out)
    assert rc == 1  # the fixture tree violates on purpose
    assert {r["ruleId"] for r in lint_log["runs"][0]["results"]} == {
        "FLOW001",
        "FLOW002",
        "FLOW003",
    }

    from repro.flow.cli import main as flow_main

    rc = flow_main(["--format", "sarif", "--no-baseline", str(FLOW_FIXTURES)])
    flow_log = json.loads(capsys.readouterr().out)
    assert rc == 1
    driver = flow_log["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-flow"
    assert [r["id"] for r in driver["rules"]] == [
        "FLOW001",
        "FLOW002",
        "FLOW003",
    ]


def test_flow_cli_rejects_out_of_family_select():
    from repro.flow.cli import main as flow_main

    with pytest.raises(SystemExit) as exc:
        flow_main(["--select", "DET001"])
    assert exc.value.code == 2
