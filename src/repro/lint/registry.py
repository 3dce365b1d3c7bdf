"""Checker base classes and the rule registry.

A *file checker* sees one parsed file at a time; a *project checker*
sees every scanned file at once (the SCHEMA fingerprint diff is
inherently cross-file).  Registration is by decorator so adding a rule
module under :mod:`repro.lint.rules` is the whole integration surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import FileContext, LintConfig
from .findings import Finding

__all__ = [
    "FileChecker",
    "ProjectChecker",
    "register",
    "file_checkers",
    "project_checkers",
    "all_rule_codes",
    "dotted_name",
]

_FILE_CHECKERS: list[type["FileChecker"]] = []
_PROJECT_CHECKERS: list[type["ProjectChecker"]] = []


class FileChecker:
    """One rule family evaluated file by file over the AST."""

    #: rule code -> one-line description (shown by ``--list-rules``)
    codes: dict[str, str] = {}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectChecker:
    """One rule family evaluated once over the whole scanned file set."""

    codes: dict[str, str] = {}

    def check_project(
        self, ctxs: list[FileContext], config: LintConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


def register(cls: type) -> type:
    if issubclass(cls, FileChecker):
        _FILE_CHECKERS.append(cls)
    elif issubclass(cls, ProjectChecker):
        _PROJECT_CHECKERS.append(cls)
    else:  # pragma: no cover - registration misuse
        raise TypeError(f"{cls!r} is neither a FileChecker nor a ProjectChecker")
    return cls


def _load_rules() -> None:
    from . import rules  # noqa: F401  (import side effect: registration)


def file_checkers() -> list[type[FileChecker]]:
    _load_rules()
    return list(_FILE_CHECKERS)


def project_checkers() -> list[type[ProjectChecker]]:
    _load_rules()
    return list(_PROJECT_CHECKERS)


def all_rule_codes() -> dict[str, str]:
    """Every registered rule code with its description, sorted."""
    codes: dict[str, str] = {}
    for cls in file_checkers():
        codes.update(cls.codes)
    for pcls in project_checkers():
        codes.update(pcls.codes)
    return dict(sorted(codes.items()))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None
