"""CLI behaviour: exit codes, JSON output schema, repo cleanliness."""

import json
from pathlib import Path

import pytest

import repro
from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def test_repo_lints_clean_against_committed_baseline():
    """Acceptance: `python -m repro lint` runs clean on the repo."""
    baseline = REPO_ROOT / "lint-baseline.json"
    args = ["--baseline", str(baseline)] if baseline.exists() else ["--no-baseline"]
    assert main(args) == 0


def test_seeded_fixture_violation_exits_nonzero(capsys):
    """Acceptance: a seeded violation makes the CLI exit non-zero."""
    rc = main([str(FIXTURES / "sim" / "det_violations.py"), "--no-baseline"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "det_violations.py" in out


def test_clean_fixture_exits_zero():
    rc = main([str(FIXTURES / "unit_clean.py"), "--no-baseline"])
    assert rc == 0


def test_json_output_schema(capsys):
    rc = main(
        [
            str(FIXTURES / "unit_violations.py"),
            "--no-baseline",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_scanned"] == 1
    assert payload["summary"]["ok"] is False
    assert payload["summary"]["findings"] == len(payload["findings"])
    finding = payload["findings"][0]
    assert set(finding) == {
        "rule",
        "path",
        "line",
        "col",
        "message",
        "snippet",
        "fingerprint",
    }
    assert finding["path"].endswith("unit_violations.py")
    assert isinstance(finding["line"], int) and finding["line"] >= 1
    assert len(finding["fingerprint"]) == 16


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DET001", "UNIT001", "SITE001", "FLOW003", "SCHEMA002"):
        assert code in out
    # retired families: FLOW003 owns pool escapes, DET001 wall spans
    assert "POOL" not in out and "OBS" not in out


def test_select_flag(capsys):
    rc = main(
        [
            str(FIXTURES / "unit_violations.py"),
            "--no-baseline",
            "--select",
            "UNIT003",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"UNIT003"}


@pytest.mark.parametrize("token", ["UNIT03", "POOL001", "OBS"])
@pytest.mark.parametrize("front", ["lint", "flow"])
def test_unknown_select_token_is_a_usage_error(token, front, capsys):
    """A typo or a retired code selects nothing; it must not pass as a
    clean run."""
    from repro.flow.cli import main as flow_main

    run = main if front == "lint" else flow_main
    with pytest.raises(SystemExit) as exc:
        run([str(FIXTURES / "unit_clean.py"), "--select", f"FLOW,{token}"])
    assert exc.value.code == 2
    assert f"unknown rule code or family: {token}" in capsys.readouterr().err


def test_description_lists_the_registered_families(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "(rules: DET, FLOW, SCHEMA, SITE, UNIT, WEAR)" in out


def test_write_baseline_requires_justification(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                str(FIXTURES / "unit_violations.py"),
                "--baseline",
                str(tmp_path / "b.json"),
                "--write-baseline",
            ]
        )
    assert exc.value.code == 2


def test_write_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    target = str(FIXTURES / "unit_violations.py")
    rc = main(
        [
            target,
            "--baseline",
            str(baseline),
            "--write-baseline",
            "--justification",
            "fixture is intentionally wrong",
        ]
    )
    assert rc == 0
    payload = json.loads(baseline.read_text())
    assert payload["entries"]
    assert all(
        e["justification"] == "fixture is intentionally wrong"
        for e in payload["entries"]
    )
    capsys.readouterr()
    rc = main([target, "--baseline", str(baseline)])
    assert rc == 0  # everything grandfathered now


def test_unjustified_baseline_entry_fails(tmp_path):
    baseline = tmp_path / "b.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "UNIT003",
                        "path": "x.py",
                        "fingerprint": "feedfacecafebeef",
                        "justification": "",
                    }
                ],
            }
        )
    )
    rc = main(
        [str(FIXTURES / "unit_clean.py"), "--baseline", str(baseline)]
    )
    assert rc == 1


def test_missing_path_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["definitely/not/a/path.py"])
    assert exc.value.code == 2


def test_parse_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    rc = main([str(bad), "--no-baseline"])
    assert rc == 1
    assert "PARSE" in capsys.readouterr().out
