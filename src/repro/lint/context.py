"""Per-run configuration and per-file checker context."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .fingerprint import WatchedFile

__all__ = ["LintConfig", "FileContext", "DET_GATED_DIRS", "walk"]

#: directories (anywhere on a file's path) where nondeterminism is a bug:
#: everything here feeds simulated numbers, cache keys or fault decisions
DET_GATED_DIRS = frozenset(
    {"sim", "ssd", "nvm", "fs", "cluster", "faults", "lifetime"}
)


def walk(node: ast.AST) -> list[ast.AST]:
    """``list(ast.walk(node))``, from a list that grows behind its own
    iteration instead of a deque of child generators."""
    nodes = [node]
    append = nodes.append
    for n in nodes:
        for name in n._fields:
            value = getattr(n, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        append(item)
            elif isinstance(value, ast.AST):
                append(value)
    return nodes


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run.

    ``select`` filters to the given rule codes or families (``DET``
    matches ``DET001``...).  The ``schema_*`` fields let tests point the
    SCHEMA checker at a fixture tree; by default the checker finds the
    real package in the scanned files and the committed fingerprint
    file that ships inside :mod:`repro.lint`.
    """

    select: Optional[frozenset[str]] = None
    det_dirs: frozenset[str] = DET_GATED_DIRS
    schema_fingerprint_path: Optional[Path] = None
    schema_root: Optional[Path] = None
    schema_watch: Optional[tuple["WatchedFile", ...]] = None

    def selects(self, rule: str) -> bool:
        if self.select is None:
            return True
        family = rule.rstrip("0123456789")
        return rule in self.select or family in self.select


@dataclass
class FileContext:
    """Everything a per-file checker needs about one source file."""

    path: Path  # absolute filesystem path
    relpath: str  # posix display path (baseline identity)
    source: str
    tree: ast.Module
    config: LintConfig
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    # -- helpers --------------------------------------------------------
    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in breadth-first (:func:`walk`) order,
        walked once and shared by every rule that scans the whole file."""
        return walk(self.tree)

    @property
    def det_gated(self) -> bool:
        """Is this file inside a determinism-gated directory?"""
        parts = Path(self.relpath).parts[:-1]  # directories only
        return any(p in self.config.det_dirs for p in parts)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.relpath,
            line=line,
            col=col,
            rule=rule,
            message=message,
            snippet=self.snippet(line),
        )
