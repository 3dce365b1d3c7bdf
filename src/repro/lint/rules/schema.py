"""SCHEMA — cache-key definitions may not drift past ``SCHEMA_VERSION``.

Project-level rule: diff the live field fingerprints of every
cache-key-relevant definition (see
:data:`repro.lint.fingerprint.DEFAULT_WATCH`) against the committed
snapshot ``schema_fingerprint.json``.

* ``SCHEMA001`` — snapshot missing/unreadable, or a watched definition
  disappeared: regenerate with
  ``python -m repro lint --update-schema-fingerprint``;
* ``SCHEMA002`` — a watched definition changed while ``SCHEMA_VERSION``
  did **not**: stale cache entries would be served for new semantics.
  Bump ``SCHEMA_VERSION`` in ``experiments/cache.py``, then regenerate
  the snapshot;
* ``SCHEMA003`` — ``SCHEMA_VERSION`` was bumped but the snapshot was
  not regenerated: the fingerprint file must always describe the
  current tree, or the next drift hides inside the stale diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional

from ..context import FileContext, LintConfig
from ..findings import Finding
from ..fingerprint import (
    DEFAULT_WATCH,
    compute_fingerprints,
    default_fingerprint_path,
)
from ..registry import ProjectChecker, register

__all__ = ["SchemaChecker"]

_ANCHOR = "experiments/cache.py"
_REGEN = "run `python -m repro lint --update-schema-fingerprint`"


@register
class SchemaChecker(ProjectChecker):
    codes = {
        "SCHEMA001": "schema fingerprint snapshot missing or incomplete",
        "SCHEMA002": "cache-key definition changed without a SCHEMA_VERSION bump",
        "SCHEMA003": "SCHEMA_VERSION bumped but fingerprint snapshot is stale",
    }

    def check_project(
        self, ctxs: list[FileContext], config: LintConfig
    ) -> Iterator[Finding]:
        root = config.schema_root or self._infer_root(ctxs)
        if root is None:
            return  # scan does not cover the cache module: nothing to diff
        watch = config.schema_watch or DEFAULT_WATCH
        fp_path = config.schema_fingerprint_path or default_fingerprint_path()
        current = compute_fingerprints(root, watch)
        display = {c.path.resolve(): c for c in ctxs}

        def finding(rule: str, key: str, message: str) -> Finding:
            relpath, line = current.locations.get(key, (_ANCHOR, 1))
            ctx = display.get((root / relpath).resolve())
            path = ctx.relpath if ctx is not None else relpath
            snippet = ctx.snippet(line) if ctx is not None else key
            return Finding(
                path=path,
                line=line,
                col=0,
                rule=rule,
                message=message,
                snippet=snippet,
            )

        recorded = self._load_snapshot(fp_path)
        if recorded is None:
            yield finding(
                "SCHEMA001",
                f"{_ANCHOR}::SCHEMA_VERSION",
                f"fingerprint snapshot {fp_path.name} is missing or "
                f"unreadable; {_REGEN}",
            )
            return
        for missing in current.missing:
            yield finding(
                "SCHEMA001",
                missing,
                f"watched cache-key definition `{missing}` was not found; "
                f"update the watch list or {_REGEN}",
            )
        version_bumped = (
            current.schema_version != recorded.get("schema_version")
        )
        recorded_fps_raw = recorded.get("fingerprints")
        recorded_fps: dict[str, str] = (
            {str(k): str(v) for k, v in recorded_fps_raw.items()}
            if isinstance(recorded_fps_raw, dict)
            else {}
        )
        changed = sorted(
            key
            for key in set(current.fingerprints) | set(recorded_fps)
            if current.fingerprints.get(key) != recorded_fps.get(key)
        )
        if version_bumped:
            if changed or current.schema_version is None:
                yield finding(
                    "SCHEMA003",
                    f"{_ANCHOR}::SCHEMA_VERSION",
                    f"SCHEMA_VERSION is now {current.schema_version!r} "
                    f"(snapshot recorded {recorded.get('schema_version')!r}) "
                    f"but {len(changed)} fingerprint(s) were not "
                    f"regenerated; {_REGEN}",
                )
            else:
                yield finding(
                    "SCHEMA003",
                    f"{_ANCHOR}::SCHEMA_VERSION",
                    f"SCHEMA_VERSION is now {current.schema_version!r} but "
                    f"the snapshot still records "
                    f"{recorded.get('schema_version')!r}; {_REGEN}",
                )
            return
        for key in changed:
            name = key.split("::", 1)[-1]
            yield finding(
                "SCHEMA002",
                key,
                f"cache-key-relevant definition `{name}` changed but "
                "SCHEMA_VERSION did not: cached results keyed under the old "
                "field set would be served for the new semantics. Bump "
                f"SCHEMA_VERSION in {_ANCHOR}, then {_REGEN}",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _infer_root(ctxs: list[FileContext]) -> Optional[Path]:
        """The repro package root, found via the cache module in the scan."""
        for ctx in ctxs:
            p = ctx.path.resolve()
            if p.as_posix().endswith("repro/" + _ANCHOR):
                return p.parent.parent
        return None

    @staticmethod
    def _load_snapshot(path: Path) -> Optional[dict[str, object]]:
        try:
            payload: object = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None
