"""The :class:`Finding` record every checker emits.

A finding is one rule violation at one source location.  Its
:meth:`fingerprint` deliberately excludes the line number: baselines
match on ``(rule, path, snippet-hash)`` so an unrelated edit that
shifts a grandfathered finding up or down the file does not expire its
baseline entry, while any edit to the offending line itself does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

__all__ = ["Finding", "unique_sites"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # display path (posix, repo-relative when possible)
    line: int  # 1-based
    col: int  # 0-based, as ast reports it
    rule: str  # e.g. "DET001"
    message: str
    snippet: str = ""  # the stripped source line the finding sits on

    @property
    def prefix(self) -> str:
        """Rule family, e.g. ``DET`` for ``DET001``."""
        return self.rule.rstrip("0123456789")

    def fingerprint(self) -> str:
        """Line-number-independent identity used by baseline matching."""
        blob = "\x1f".join((self.rule, self.path, self.snippet))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def unique_sites(findings: Iterable[Finding]) -> list[Finding]:
    """One finding per ``(rule, path, line, col)``, the last seen winning.

    Checkers that scan a nested scope both on its own and as part of
    its enclosing scope reach the same site twice; the later visit is
    the innermost (:func:`~repro.lint.context.walk` is breadth-first),
    whose message names the tightest context.
    """
    return list({(f.rule, f.path, f.line, f.col): f for f in findings}.values())
