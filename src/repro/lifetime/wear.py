"""Wear-leveling policies layered on the page-mapped FTL.

The base :class:`~repro.ssd.ftl.DeviceFTL` already keeps the per-block
erase ledger and cycles free blocks FIFO; this module adds the two
classic policy families on top of it (Chang & Du's taxonomy, also the
shape of every SSD datasheet's wear-leveling claim):

* **dynamic** — steer each new allocation at the *coldest* free block
  (minimum erase count) instead of FIFO order.  Cheap, effective while
  data is rewritten often, but blocks pinned under never-rewritten cold
  data fall out of rotation;
* **static** — additionally migrate cold *data* off low-wear blocks
  when the unit's wear spread exceeds a threshold, releasing those
  blocks into the hot pool.  The migrations are real media traffic:
  they count into ``wl_moved_pages`` and therefore into the device's
  write-amplification factor — leveling is never free.

``policy="none"`` is byte-for-byte the base FTL: every hook defers to
the superclass, which the age-0 golden tests pin against today's
Table-2 numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..ssd.ftl import DeviceFTL, FTLError
from ..ssd.geometry import Geometry

__all__ = ["WEAR_POLICIES", "WearPolicy", "WearFTL"]

#: recognised policy kinds, in documentation order
WEAR_POLICIES = ("none", "dynamic", "static")


@dataclass(frozen=True)
class WearPolicy:
    """Frozen description of one wear-leveling regime.

    ``static_threshold`` is the per-unit wear spread (max - min erase
    count over live blocks) beyond which a static swap triggers;
    ``static_interval`` throttles swap checks to every N-th erase so
    the scan cost stays amortized.  Participates in result-cache keys
    via :meth:`signature`.
    """

    kind: str = "none"
    static_threshold: int = 8
    static_interval: int = 4

    def __post_init__(self) -> None:
        if self.kind not in WEAR_POLICIES:
            raise ValueError(
                f"unknown wear policy {self.kind!r}; expected one of "
                f"{WEAR_POLICIES}"
            )
        if self.static_threshold < 1:
            raise ValueError("static_threshold must be >= 1")
        if self.static_interval < 1:
            raise ValueError("static_interval must be >= 1")

    def signature(self) -> dict:
        """JSON-safe identity for cache keys and wire payloads."""
        return dataclasses.asdict(self)


class WearFTL(DeviceFTL):
    """A :class:`DeviceFTL` with a pluggable wear-leveling policy.

    With ``policy.kind == "none"`` every override is a pure pass-through
    and behaviour is bit-identical to the base FTL.
    """

    def __init__(
        self,
        geometry: Geometry,
        logical_bytes: int,
        overprovision: float = 0.125,
        gc_low_water: int = 2,
        policy: WearPolicy = WearPolicy(),
    ):
        super().__init__(
            geometry,
            logical_bytes,
            overprovision=overprovision,
            gc_low_water=gc_low_water,
        )
        self.policy = policy

    @classmethod
    def adopt(cls, ftl: DeviceFTL, policy: WearPolicy) -> "WearFTL":
        """A fresh wear-leveling FTL with ``ftl``'s exact parameters.

        Used to swap a just-built device's stock FTL before preload;
        the device must not have translated anything yet.
        """
        if ftl.stats["host_writes_pages"] or ftl.stats["gc_runs"]:
            raise FTLError("cannot adopt an FTL that has already run")
        return cls(
            ftl.geom,
            ftl.n_logical_pages * ftl.page_bytes,
            overprovision=ftl.overprovision,
            gc_low_water=ftl.gc_low_water,
            policy=policy,
        )

    # -- dynamic: cold-block allocation preference ----------------------
    def _take_free_block(self, u: int) -> int:
        if self.policy.kind != "dynamic":
            return super()._take_free_block(u)
        free = self.free_blocks[u]
        pool = np.fromiter(free, dtype=np.int64, count=len(free))
        wear = self.erases[u, pool]
        # least-worn block, the lowest id among equals
        b = int(pool[wear == wear.min()].min())
        free.remove(b)
        return b

    # -- static: periodic hot/cold swap ---------------------------------
    def _collect(self, u: int) -> np.ndarray:
        rows = super()._collect(u)
        if (
            len(rows)
            and self.policy.kind == "static"
            and self.erase_gen % self.policy.static_interval == 0
        ):
            swap = self._static_swap(u)
            if len(swap):
                rows = np.concatenate([rows, swap])
        return rows

    def _static_swap(self, u: int) -> np.ndarray:
        """Migrate cold data off the unit's least-worn full block.

        The freed low-wear block re-enters the free pool where hot
        writes will land on it, while the cold data re-settles on
        whatever (more-worn) block allocation picks — the classic
        static-leveling exchange.  Costs one erase plus one relocation
        per valid page, all charged to ``wl_moved_pages``.
        """
        candidates = self._full_blocks(u) & (self.valid[u] > 0)
        if not candidates.any() or not self.free_blocks[u]:
            return np.empty((0, 5), dtype=np.int64)
        erases = self.erases[u]
        # least-worn candidate, the lowest id among equals
        cold = int(np.where(candidates, erases, np.iinfo(np.int64).max).argmin())
        spread = int(erases[~self.retired[u]].max() - erases[cold])
        if spread < self.policy.static_threshold:
            return np.empty((0, 5), dtype=np.int64)
        return self._relocate(u, cold, "wl_moved_pages")
