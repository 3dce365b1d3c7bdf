"""Incremental analysis cache for ``repro lint`` / ``repro flow``.

``--changed-only`` re-analyzes only what changed: per-file checker
findings are keyed on each file's content hash, and the whole-program
FLOW pass — which cannot be partially reused, since any file can change
any function summary — is keyed on the digest of *all* file hashes, so
an unchanged tree skips it entirely (the common CI case: the lint step
populates the cache and the SARIF export step reuses it).

Invalidation is content-addressed and self-salting: the salt hashes
the sources of :mod:`repro.lint` and :mod:`repro.flow` themselves and
the interpreter version, so editing any rule or the engine, or
switching Python, discards every entry.  A file is parsed only on a
miss, so a warm run over an unchanged tree parses nothing.  Raw
(pre-noqa, pre-baseline) findings are cached, so suppression or
baseline edits never require re-analysis.  The cache directory
defaults to ``.repro-lint-cache/`` and is gitignored.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from .findings import Finding

__all__ = ["AnalysisCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = Path(".repro-lint-cache")

_CACHE_VERSION = 1
_FIELDS = ("path", "line", "col", "rule", "message", "snippet")


def _tool_salt() -> str:
    """Hash of the analyzer's own sources and the interpreter version
    (which decides what parses): new rules, new cache."""
    h = hashlib.sha256(sys.version.encode())
    here = Path(__file__).resolve().parent
    flow = here.parent / "flow"
    for pkg in (here, flow):
        if not pkg.is_dir():
            continue
        for p in sorted(pkg.rglob("*.py")):
            h.update(p.name.encode())
            try:
                h.update(p.read_bytes())
            except OSError:  # pragma: no cover - racing an editor
                pass
    return h.hexdigest()[:16]


def _encode(findings: list[Finding]) -> list[dict]:
    return [
        {field: getattr(f, field) for field in _FIELDS} for f in findings
    ]


def _decode(rows: list[dict]) -> list[Finding]:
    return [Finding(**{field: row[field] for field in _FIELDS}) for row in rows]


class AnalysisCache:
    """Content-hash keyed store of raw per-file and project findings."""

    def __init__(self, directory: Path = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)
        self.path = self.directory / "analysis.json"
        self.salt = _tool_salt()
        self._files: dict[str, dict] = {}
        self._project: dict = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (
            data.get("version") != _CACHE_VERSION
            or data.get("salt") != self.salt
        ):
            return  # analyzer changed: start cold
        files = data.get("files")
        project = data.get("project")
        if isinstance(files, dict):
            self._files = files
        if isinstance(project, dict):
            self._project = project

    # -- per-file checker findings ------------------------------------
    @staticmethod
    def file_hash(source: str) -> str:
        return hashlib.sha256(source.encode()).hexdigest()[:24]

    def get_file(self, relpath: str, digest: str) -> Optional[list[Finding]]:
        entry = self._files.get(relpath)
        if entry is None or entry.get("hash") != digest:
            self.misses += 1
            return None
        self.hits += 1
        return _decode(entry["findings"])

    def put_file(
        self, relpath: str, digest: str, findings: list[Finding]
    ) -> None:
        self._files[relpath] = {"hash": digest, "findings": _encode(findings)}
        self._dirty = True

    # -- whole-program (project checker) findings ---------------------
    @staticmethod
    def tree_hash(digests: dict[str, str]) -> str:
        h = hashlib.sha256()
        for relpath in sorted(digests):
            h.update(relpath.encode())
            h.update(digests[relpath].encode())
        return h.hexdigest()[:24]

    def get_project(self, tree_digest: str) -> Optional[list[Finding]]:
        if self._project.get("hash") != tree_digest:
            self.misses += 1
            return None
        self.hits += 1
        return _decode(self._project["findings"])

    def put_project(
        self, tree_digest: str, findings: list[Finding]
    ) -> None:
        self._project = {"hash": tree_digest, "findings": _encode(findings)}
        self._dirty = True

    # -- persistence --------------------------------------------------
    def save(self) -> None:
        if not self._dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": _CACHE_VERSION,
            "salt": self.salt,
            "files": self._files,
            "project": self._project,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(self.path)
        self._dirty = False
