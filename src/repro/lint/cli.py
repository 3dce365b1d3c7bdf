"""``python -m repro lint`` — the determinism & invariant analyzer CLI.

Exit codes: ``0`` clean (baselined findings and stale entries warn but
do not fail), ``1`` at least one new finding **or** a baseline entry
without a justification, ``2`` usage error.

:func:`run_cli` is the shared engine: ``python -m repro flow`` is the
same CLI restricted to the FLOW family (see :mod:`repro.flow.cli`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .baseline import Baseline
from .cache import DEFAULT_CACHE_DIR, AnalysisCache
from .context import LintConfig
from .fingerprint import default_fingerprint_path, write_fingerprints
from .registry import all_rule_codes
from .runner import LintResult, lint_paths
from .sarif import to_sarif

__all__ = ["main", "run_cli"]

_DEFAULT_BASELINE = "lint-baseline.json"


def _package_root() -> Path:
    """The installed ``repro`` package directory (default lint target)."""
    return Path(__file__).resolve().parents[1]


def _family(code: str) -> str:
    return code.rstrip("0123456789")


def _build_parser(
    prog: str, description: str, families: Optional[Sequence[str]]
) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes or families, e.g. DET,UNIT003",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="reuse cached findings for files whose content is unchanged "
        f"(cache under ./{DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help="cache directory for --changed-only "
        f"(default ./{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default ./{_DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather current findings into the baseline file and exit",
    )
    parser.add_argument(
        "--justification",
        default=None,
        help="justification recorded on entries added by --write-baseline "
        "(required with --write-baseline)",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings suppressed by the baseline",
    )
    if families is None:
        parser.add_argument(
            "--update-schema-fingerprint",
            action="store_true",
            help="regenerate the committed cache-key fingerprint snapshot "
            "(do this after an intentional SCHEMA_VERSION bump)",
        )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule code and exit",
    )
    return parser


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    default = Path.cwd() / _DEFAULT_BASELINE
    return default if default.exists() or args.write_baseline else None


def _print_text(result: LintResult, show_baselined: bool) -> None:
    for f in result.findings:
        print(f.render())
    if show_baselined:
        for f in result.baselined:
            print(f"{f.render()} [baselined]")
    for entry in result.stale_entries:
        print(
            f"warning: stale baseline entry {entry.rule} {entry.path} "
            f"{entry.fingerprint} no longer matches anything; prune it "
            "with --write-baseline",
            file=sys.stderr,
        )
    for entry in result.unjustified_entries:
        print(
            f"error: baseline entry {entry.rule} {entry.path} "
            f"{entry.fingerprint} has no justification; every "
            "grandfathered finding must say why",
            file=sys.stderr,
        )
    n, b = len(result.findings), len(result.baselined)
    print(
        f"{result.files_scanned} files scanned: {n} finding(s), "
        f"{b} baselined, {result.suppressed} noqa-suppressed",
        file=sys.stderr,
    )


def run_cli(
    argv: Optional[Sequence[str]] = None,
    *,
    prog: str = "python -m repro lint",
    description: Optional[str] = None,
    families: Optional[Sequence[str]] = None,
) -> int:
    """Shared CLI for ``repro lint`` and its family-restricted fronts.

    ``families`` restricts the run to those rule families: they become
    the default ``--select``, user selections outside them are usage
    errors, and fingerprint maintenance flags are hidden.  A
    ``--select`` token that is neither a registered code nor a
    registered family is a usage error too.
    """
    rule_codes = all_rule_codes()
    known_families = sorted({_family(code) for code in rule_codes})
    known = set(rule_codes) | set(known_families)
    if description is None:
        description = (
            "AST-based determinism & invariant analyzer for the repro "
            f"codebase (rules: {', '.join(known_families)})."
        )
    parser = _build_parser(prog, description, families)
    args = parser.parse_args(list(argv) if argv is not None else None)

    if families is not None:
        rule_codes = {
            code: desc
            for code, desc in rule_codes.items()
            if _family(code) in families
        }

    if args.list_rules:
        for code, description_ in rule_codes.items():
            print(f"{code}  {description_}")
        return 0

    paths = [Path(p) for p in args.paths] or [_package_root()]
    for p in paths:
        if not p.exists():
            parser.error(f"no such file or directory: {p}")

    if families is None and args.update_schema_fingerprint:
        root = _package_root()
        out = default_fingerprint_path()
        state = write_fingerprints(root, out)
        print(
            f"wrote {len(state.fingerprints)} fingerprint(s) "
            f"(schema_version={state.schema_version}) to {out}"
        )
        if state.missing:
            print(
                "warning: watched definitions not found: "
                + ", ".join(state.missing),
                file=sys.stderr,
            )
            return 1
        return 0

    select = None
    if args.select:
        select = frozenset(
            s.strip().upper() for s in args.select.split(",") if s.strip()
        )
        unknown = sorted(select - known)
        if unknown:
            parser.error(
                f"unknown rule code or family: {', '.join(unknown)} "
                "(see --list-rules)"
            )
        if families is not None:
            outside = sorted(
                s for s in select if _family(s) not in families
            )
            if outside:
                parser.error(
                    f"{', '.join(outside)} outside the "
                    f"{'/'.join(families)} family; use `repro lint` for "
                    "the full rule set"
                )
    elif families is not None:
        select = frozenset(families)
    config = LintConfig(select=select)

    baseline_path = _resolve_baseline_path(args)
    baseline = Baseline.load(baseline_path)

    cache = AnalysisCache(args.cache_dir) if args.changed_only else None

    if args.write_baseline:
        if baseline_path is None:
            parser.error("--write-baseline requires --baseline PATH")
        if not (args.justification or "").strip():
            parser.error(
                "--write-baseline requires --justification explaining why "
                "these findings are grandfathered rather than fixed"
            )
        result = lint_paths(paths, config, Baseline(), cache=cache)
        merged = Baseline.from_findings(result.findings, args.justification)
        merged.save(baseline_path)
        print(
            f"baseline {baseline_path} now grandfathers "
            f"{len(merged.entries)} finding(s)"
        )
        return 0

    result = lint_paths(paths, config, baseline, cache=cache)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        tool = "repro-lint" if families is None else (
            "repro-" + "-".join(f.lower() for f in families)
        )
        sarif = to_sarif(result, rule_codes, tool_name=tool)
        print(json.dumps(sarif, indent=2, sort_keys=True))
    else:
        _print_text(result, args.show_baselined)
    if result.findings or result.unjustified_entries:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_cli(argv)
