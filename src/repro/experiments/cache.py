"""Deterministic result cache for experiment cells.

Every quantity a cell reports is a pure function of its
:class:`~repro.experiments.runner.Cell` — label, NVM kind, workload,
seed and overlays; the replay pipeline is seeded and deterministic —
so results can be cached and shared across figures, sweeps and
sessions.  Two entry types exist:

* **cell** — the result of one :func:`~repro.experiments.runner.run_cell`
  call: a :class:`~repro.experiments.runner.ConfigResult`, or a
  :class:`~repro.lifetime.sweep.LifetimeCellResult` for an aged cell.
  The persisted fields derive from the result dataclass, minus the
  per-computation diagnostics (``metrics``, ``faults``), which are
  never cached;
* **peak** — the unconstrained-interface media peak (MB/s) behind the
  "bandwidth remaining" figures; caching it separately deduplicates the
  second replay across callers (Figure 7b and Figure 8b share every
  overlapping baseline) and lets a ``with_remaining=False`` cell be
  upgraded to a ``with_remaining=True`` one without replaying.

Keys are :meth:`Cell.key`: a SHA-256 of the cell's canonical JSON
``(schema version, entry type, label, kind, workload fields, seed
[, with_remaining, overlays])``.  Bump :data:`SCHEMA_VERSION` whenever
the simulation's numbers can change (scheduler, FS models, FTL, timing
constants): every old entry then misses and is recomputed.
``root=None`` gives a process-local in-memory cache; with a directory,
entries are JSON files written atomically so concurrent processes can
share them.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from pathlib import Path
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import Cell, CellResult

logger = logging.getLogger(__name__)

__all__ = ["SCHEMA_VERSION", "ResultCache"]

#: bump when simulated numbers can change; invalidates every entry.
#: v2: cell entries grew the ``backend`` provenance field (columnar
#: batch kernel) — the numbers are golden-tested bit-identical, but v1
#: entries lack the field and must miss rather than half-load.
#: v3: job specs grew the ``trace_id`` correlation field (repro.obs);
#: it is excluded from coalescing/cache keys, but the watched JobSpec
#: schema changed, so the version moves with it
#: v4: repro.lifetime — a new ``lifetime`` entry type, and job specs
#: grew the age/wear-policy fields (LifetimeJob); age-0 numbers are
#: golden-tested bit-identical, but the watched schema changed
#: v5: repro.netfault — Workload grew the ``stream`` selector, job
#: specs the ``arrival_offset_s`` replay field (excluded from keys,
#: like ``trace_id``) and the NetfaultJob type; eigensolver numbers are
#: golden-tested bit-identical, but the watched schemas changed
SCHEMA_VERSION = 5

#: ConfigResult fields persisted in a cell entry — what
#: :func:`_persisted` derives from the dataclass; spelled out because it
#: is the service's wire schema too (watched by the SCHEMA lint rule)
_CELL_FIELDS = (
    "label",
    "kind",
    "bandwidth_mb",
    "aggregate_mb",
    "remaining_mb",
    "channel_utilization",
    "package_utilization",
    "breakdown",
    "parallelism",
    "backend",
)

#: per-computation diagnostics a cell entry never carries
_UNCACHED = frozenset({"metrics", "faults"})


@lru_cache(maxsize=None)
def _persisted(result_type: type) -> tuple[str, ...]:
    """The fields of ``result_type`` a cell entry stores."""
    return tuple(
        f.name for f in dataclasses.fields(result_type) if f.name not in _UNCACHED
    )


class ResultCache:
    """Two-level (memory, optional disk) cache of cell results."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            if self.root.exists() and not self.root.is_dir():
                raise NotADirectoryError(
                    f"cache root exists and is not a directory: {self.root}"
                )
            self.root.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.puts = 0
        self.corrupt_entries = 0

    # -- raw entry storage ---------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path, why: str) -> None:
        """A disk entry exists but is unusable: treat as a miss.

        The entry is logged, counted (``corrupt_entries`` in
        :meth:`stats`) and deleted so the recompute's put overwrites it
        — a torn write or disk corruption must never poison the run.
        """
        self.corrupt_entries += 1
        logger.warning(
            "treating corrupt cache entry %s as a miss (%s); recomputing",
            path.name,
            why,
        )
        try:
            path.unlink()
        except OSError:
            pass

    def _load(self, key: str, required: tuple = ()) -> Optional[dict]:
        """Fetch one entry; unreadable/truncated disk entries are misses.

        ``required`` names fields the payload must carry — a JSON file
        that parses but lost fields to truncation is as corrupt as one
        that does not parse.
        """
        payload = self._mem.get(key)
        if payload is not None:
            self._last_source = "memory"
            return payload
        if self.root is None:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, f"unreadable: {exc}")
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, "not valid JSON")
            return None
        if not isinstance(payload, dict) or any(
            name not in payload for name in required
        ):
            self._quarantine(path, "missing required fields (truncated?)")
            return None
        self._mem[key] = payload
        self._last_source = "disk"
        return payload

    def _count_hit(self) -> None:
        self.hits += 1
        if getattr(self, "_last_source", "memory") == "disk":
            self.disk_hits += 1
        else:
            self.memory_hits += 1

    def _store(self, key: str, payload: dict) -> None:
        self._mem[key] = payload
        self.puts += 1
        if self.root is not None:
            path = self._path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(path)  # atomic: concurrent readers see old or new

    # -- cells ----------------------------------------------------------
    def get_cell(self, cell: "Cell") -> Optional["CellResult"]:
        """Return the cached result of ``cell``, or ``None`` on miss.

        A ``with_remaining=True`` entry satisfies a ``False`` request
        (the remainder is simply re-zeroed, matching a fresh run), and a
        ``False`` entry plus a cached peak satisfies a ``True`` request.
        """
        from .runner import ConfigResult

        result_type: type = ConfigResult
        if cell.age is not None:  # aged cells only: no lifetime import otherwise
            from ..lifetime.sweep import LifetimeCellResult

            result_type = LifetimeCellResult
        names = _persisted(result_type)
        payload = self._load(cell.key(), required=names)
        remaining_override = None
        if payload is None and result_type is ConfigResult:
            other = self._load(
                dataclasses.replace(
                    cell, with_remaining=not cell.with_remaining
                ).key(),
                required=names,
            )
            if other is not None and not cell.with_remaining:
                payload = other
                remaining_override = 0.0
            elif other is not None and cell.with_remaining:
                peak = self.get_peak(cell, _count=False)
                if peak is not None:
                    payload = other
                    remaining_override = max(0.0, peak - other["aggregate_mb"])
        if payload is None:
            self.misses += 1
            return None
        self._count_hit()
        fields = {name: payload[name] for name in names}
        if remaining_override is not None:
            fields["remaining_mb"] = remaining_override
        return result_type(**fields)

    def put_cell(self, cell: "Cell", result: "CellResult") -> None:
        payload = {name: getattr(result, name) for name in _persisted(type(result))}
        self._store(cell.key(), payload)

    # -- peaks ----------------------------------------------------------
    def get_peak(self, cell: "Cell", _count: bool = True) -> Optional[float]:
        payload = self._load(cell.key("peak"), required=("peak_mb",))
        if payload is None:
            if _count:
                self.misses += 1
            return None
        if _count:
            self._count_hit()
        return float(payload["peak_mb"])

    def put_peak(self, cell: "Cell", peak_mb: float) -> None:
        self._store(cell.key("peak"), {"peak_mb": float(peak_mb)})

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Counters since construction plus current entry counts.

        ``hits`` splits into ``memory_hits``/``disk_hits`` (an entry read
        from disk is promoted to memory, so later hits on it are memory
        hits); ``hit_ratio`` is hits over all counted lookups.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_entries": self.corrupt_entries,
            "hit_ratio": self.hits / lookups if lookups else 0.0,
            "memory_entries": len(self._mem),
            "disk_entries": (
                len(list(self.root.glob("*.json"))) if self.root is not None else 0
            ),
            "persistent": self.root is not None,
        }

    # -- maintenance ----------------------------------------------------
    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        n = len(self._mem)
        self._mem.clear()
        if self.root is not None:
            files = list(self.root.glob("*.json"))
            n = max(n, len(files))
            for f in files:
                try:
                    f.unlink()
                except OSError:
                    pass
        return n

    def __len__(self) -> int:
        if self.root is not None:
            return len(list(self.root.glob("*.json")))
        return len(self._mem)
