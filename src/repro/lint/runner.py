"""File discovery, checker dispatch, noqa and baseline filtering."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .baseline import Baseline, BaselineEntry
from .cache import AnalysisCache
from .context import FileContext, LintConfig
from .findings import Finding
from .noqa import is_suppressed, noqa_lines
from .registry import file_checkers, project_checkers

__all__ = ["LintResult", "lint_paths", "iter_python_files"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)  # actionable
    baselined: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)
    unjustified_entries: list[BaselineEntry] = field(default_factory=list)
    suppressed: int = 0  # count silenced by `# repro: noqa`
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline_entries": [e.to_dict() for e in self.stale_entries],
            "unjustified_baseline_entries": [
                e.to_dict() for e in self.unjustified_entries
            ],
            "summary": {
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": self.suppressed,
                "stale_baseline_entries": len(self.stale_entries),
                "unjustified_baseline_entries": len(self.unjustified_entries),
                "ok": self.ok,
            },
        }


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, stably ordered."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
                and not any(part.endswith(".egg-info") for part in p.parts)
            )
        else:
            candidates = [path]
        for c in candidates:
            r = c.resolve()
            if r not in seen:
                seen.add(r)
                yield c


def _display_path(path: Path) -> str:
    """Posix path relative to the CWD when possible (baseline identity)."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _read(path: Path) -> tuple[str, str] | Finding:
    """``(relpath, source)``, or a PARSE finding for an unreadable file."""
    relpath = _display_path(path)
    try:
        return relpath, path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(relpath, 1, 0, "PARSE", f"unreadable file: {exc}")


def _parse(
    path: Path, relpath: str, source: str, config: LintConfig
) -> FileContext | Finding:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Finding(
            relpath,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            "PARSE",
            f"syntax error: {exc.msg}",
        )
    return FileContext(
        path=path, relpath=relpath, source=source, tree=tree, config=config
    )


def _any_selected(cls: type, config: LintConfig) -> bool:
    codes = getattr(cls, "codes", {})
    return config.select is None or any(config.selects(c) for c in codes)


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig | None = None,
    baseline: Baseline | None = None,
    cache: Optional[AnalysisCache] = None,
) -> LintResult:
    """Lint ``paths`` and fold in noqa suppressions and the baseline.

    ``cache`` (the ``--changed-only`` path) reuses raw findings for
    files whose content hash is unchanged, and the whole-program pass
    for an unchanged tree; a file is parsed only when one of them
    misses, and one that fails to parse is never cached.  With a cache
    active every checker runs (or is reused) so cached entries are
    always complete, and ``select`` filtering stays post-hoc.  Without
    a cache, checkers none of whose codes are selected are skipped
    outright.
    """
    config = config or LintConfig()
    baseline = baseline or Baseline()
    result = LintResult()

    raw: list[Finding] = []  # PARSE findings are never suppressible
    sources: list[tuple[Path, str, str]] = []
    for path in iter_python_files(paths):
        result.files_scanned += 1
        read = _read(path)
        if isinstance(read, Finding):
            raw.append(read)
        else:
            sources.append((path, *read))

    if cache is None:
        file_cls = [c for c in file_checkers() if _any_selected(c, config)]
        project_cls = [
            c for c in project_checkers() if _any_selected(c, config)
        ]
    else:
        file_cls = list(file_checkers())
        project_cls = list(project_checkers())
    checkers = [cls() for cls in file_cls]

    contexts: dict[str, FileContext] = {}  # relpath -> parsed, on demand
    digests: dict[str, str] = {}
    noqa_by_path: dict[str, dict[int, frozenset[str] | None]] = {}
    for path, relpath, source in sources:
        noqa_by_path[relpath] = noqa_lines(source)
        if cache is not None:
            digests[relpath] = AnalysisCache.file_hash(source)
            cached = cache.get_file(relpath, digests[relpath])
            if cached is not None:
                raw.extend(cached)
                continue
        built = _parse(path, relpath, source, config)
        if isinstance(built, Finding):
            raw.append(built)
            digests.pop(relpath, None)  # never cached, not in the tree
            continue
        contexts[relpath] = built
        fresh = [f for checker in checkers for f in checker.check(built)]
        if cache is not None:
            cache.put_file(relpath, digests[relpath], fresh)
        raw.extend(fresh)

    tree_digest = AnalysisCache.tree_hash(digests)
    project_findings = cache.get_project(tree_digest) if cache is not None else None
    if project_findings is None:
        # the project pass needs the files the per-file cache served,
        # each of which parsed when it was cached (same content, same
        # salt, which hashes the interpreter version too)
        for path, relpath, source in sources:
            if relpath in digests and relpath not in contexts:
                built = _parse(path, relpath, source, config)
                assert isinstance(built, FileContext), built
                contexts[relpath] = built
        ctxs = [contexts[r] for _, r, _ in sources if r in contexts]
        project_findings = [
            f for cls in project_cls for f in cls().check_project(ctxs, config)
        ]
        if cache is not None:
            cache.put_project(tree_digest, project_findings)
    raw.extend(project_findings)
    if cache is not None:
        cache.save()

    kept: list[Finding] = []
    for f in raw:
        if not config.selects(f.rule) and f.rule != "PARSE":
            continue
        noqa = noqa_by_path.get(f.path, {})
        if f.rule != "PARSE" and is_suppressed(f, noqa):
            result.suppressed += 1
            continue
        kept.append(f)

    new, grandfathered, stale = baseline.partition(kept)
    result.findings = sorted(new)
    result.baselined = sorted(grandfathered)
    result.stale_entries = stale
    result.unjustified_entries = baseline.unjustified()
    return result
