"""Dict-based page-mapped FTL: the per-page reference for the array FTL.

:class:`DictFTL` and :class:`DictWearFTL` translate one page at a time,
keep the reverse map in a ``dict`` and relocate GC victims page by
page — the straightforward form of :class:`repro.ssd.ftl.DeviceFTL` and
:class:`repro.lifetime.WearFTL`, which do the same work on flat arrays,
a block at a time.  Transactions are plain ``(op, flat, nbytes, group,
page_in_block)`` tuples.  The state-machine test drives both side by
side and compares every command's rows and the whole mapping state.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.lifetime.wear import WearPolicy
from repro.ssd.ftl import FTLError
from repro.ssd.geometry import Geometry
from repro.ssd.request import DeviceCommand, OpCode

__all__ = ["DictFTL", "DictWearFTL", "group_planes"]


def group_planes(txns: list[tuple], U: int, P: int, gid: int) -> tuple[list[tuple], int]:
    """Multi-plane groups of one command's rows, ids counted from ``gid``.

    Two adjacent rows pair when they target sibling planes of the same
    die at the same block/page slot with the same op, the first on a
    plane-aligned unit.  Returns the rows and the next free group id.
    """
    out: list[tuple] = []
    i = 0
    n = len(txns)
    while i < n:
        t = txns[i]
        j = i + 1
        members = [t]
        while j < n and len(members) < P:
            t2 = txns[j]
            if (
                t2[0] == t[0]
                and t2[1] == txns[j - 1][1] + 1
                and (t2[1] % U) // P == (t[1] % U) // P
                and t2[1] // U == t[1] // U
                and (t[1] % U) % P == 0
            ):
                members.append(t2)
                j += 1
            else:
                break
        if len(members) > 1:
            out.extend((m[0], m[1], m[2], gid, m[4]) for m in members)
            gid += 1
        else:
            out.append(t)
        i = j if len(members) > 1 else i + 1
    return out, gid


class DictFTL:
    """Page-at-a-time FTL with a dict reverse map."""

    def __init__(
        self,
        geometry: Geometry,
        logical_bytes: int,
        overprovision: float = 0.125,
        gc_low_water: int = 2,
    ):
        self.geom = geometry
        self.page_bytes = geometry.page_bytes
        self.n_logical_pages = -(-logical_bytes // self.page_bytes)
        self.gc_low_water = gc_low_water
        self._alloc_unit = 0
        self._group_counter = 0
        self.erase_gen = 0
        self.stats = {
            "gc_runs": 0,
            "gc_moved_pages": 0,
            "wl_moved_pages": 0,
            "host_writes_pages": 0,
            "rmw_reads": 0,
        }
        U = geometry.plane_units
        B = geometry.blocks_per_plane
        self.map = np.full(self.n_logical_pages, -1, dtype=np.int64)
        self.reverse: dict[int, int] = {}
        self.valid = np.zeros((U, B), dtype=np.int32)
        self.frontier = np.zeros((U, B), dtype=np.int32)
        self.erases = np.zeros((U, B), dtype=np.int64)
        self.free_blocks = [deque(range(B)) for _ in range(U)]
        self.active_block = np.full(U, -1, dtype=np.int32)
        self.retired = np.zeros((U, B), dtype=bool)

    def preload(self, nbytes: int) -> None:
        npages = -(-nbytes // self.page_bytes)
        if npages > self.n_logical_pages:
            raise FTLError("preload exceeds logical space")
        U = self.geom.plane_units
        ppb = self.geom.pages_per_block
        self.map[:npages] = np.arange(npages, dtype=np.int64)
        full_slots, rem = divmod(npages, U)
        for u in range(U):
            fb, pp = divmod(full_slots + (1 if u < rem else 0), ppb)
            last = fb if pp else fb - 1
            if last >= 0 and self.retired[u, : last + 1].any():
                raise FTLError("preload extends into retired blocks")
            for b in range(fb):
                self.frontier[u, b] = ppb
                self.valid[u, b] = ppb
                if b in self.free_blocks[u]:
                    self.free_blocks[u].remove(b)
            if pp:
                self.frontier[u, fb] = pp
                self.valid[u, fb] = pp
                if fb in self.free_blocks[u]:
                    self.free_blocks[u].remove(fb)
                self.active_block[u] = fb
        for lpage in range(npages):
            self.reverse[lpage] = lpage

    # -- translation ----------------------------------------------------
    def translate(self, cmd: DeviceCommand) -> list[tuple]:
        if cmd.op == "read":
            return self._translate_read(cmd.lba, cmd.nbytes)
        if cmd.op == "write":
            return self._translate_write(cmd.lba, cmd.nbytes)
        if cmd.op == "trim":
            self._trim(cmd.lba, cmd.nbytes)
            return []
        raise FTLError(f"unsupported command op {cmd.op!r}")

    def _pages_of(self, lba: int, nbytes: int):
        pb = self.page_bytes
        end = lba + nbytes
        page = lba // pb
        while page * pb < end:
            yield page, min(end, (page + 1) * pb) - max(lba, page * pb)
            page += 1

    def _pib(self, flat: int) -> int:
        return (flat // self.geom.plane_units) % self.geom.pages_per_block

    def _translate_read(self, lba: int, nbytes: int) -> list[tuple]:
        txns = []
        for lpage, nb in self._pages_of(lba, nbytes):
            if lpage >= self.n_logical_pages:
                raise FTLError(f"read beyond logical space (page {lpage})")
            flat = int(self.map[lpage])
            if flat < 0:
                flat = self._adopt(lpage, lpage)
            txns.append((OpCode.READ, flat, nb, -1, self._pib(flat)))
        return self._group_planes(txns)

    def _translate_write(self, lba: int, nbytes: int) -> list[tuple]:
        txns = []
        pb = self.page_bytes
        for lpage, nb in self._pages_of(lba, nbytes):
            if lpage >= self.n_logical_pages:
                raise FTLError(f"write beyond logical space (page {lpage})")
            txns.extend(self._gc_if_needed())
            old = int(self.map[lpage])
            if nb < pb and old >= 0:
                self.stats["rmw_reads"] += 1
                txns.append((OpCode.READ, old, pb - nb, -1, self._pib(old)))
            flat = self._allocate()
            if old >= 0:
                self._invalidate(old)
            self.map[lpage] = flat
            self.reverse[flat] = lpage
            self.stats["host_writes_pages"] += 1
            txns.append((OpCode.WRITE, flat, pb, -1, self._pib(flat)))
        return self._group_planes(txns)

    def _trim(self, lba: int, nbytes: int) -> None:
        for lpage, _nb in self._pages_of(lba, nbytes):
            if lpage < self.n_logical_pages:
                old = int(self.map[lpage])
                if old >= 0:
                    self._invalidate(old)
                    self.map[lpage] = -1

    def _adopt(self, lpage: int, flat: int) -> int:
        U = self.geom.plane_units
        u = flat % U
        b, p = divmod(flat // U, self.geom.pages_per_block)
        if flat in self.reverse or self.retired[u, b]:
            flat = self._allocate()
            self.map[lpage] = flat
            self.reverse[flat] = lpage
            return flat
        self.map[lpage] = flat
        self.reverse[flat] = lpage
        if self.frontier[u, b] <= p:
            self.frontier[u, b] = p + 1
        self.valid[u, b] += 1
        if b in self.free_blocks[u]:
            self.free_blocks[u].remove(b)
        return flat

    def _group_planes(self, txns: list[tuple]) -> list[tuple]:
        out, self._group_counter = group_planes(
            txns, self.geom.plane_units, self.geom.planes_per_die, self._group_counter
        )
        return out

    # -- allocation and GC ----------------------------------------------
    def _take_free_block(self, u: int) -> int:
        return self.free_blocks[u].popleft()

    def _allocate(self) -> int:
        U = self.geom.plane_units
        ppb = self.geom.pages_per_block
        for _ in range(U + 1):
            u = self._alloc_unit
            self._alloc_unit = (self._alloc_unit + 1) % U
            b = int(self.active_block[u])
            if b >= 0 and self.frontier[u, b] < ppb:
                p = int(self.frontier[u, b])
                self.frontier[u, b] = p + 1
                self.valid[u, b] += 1
                return (b * ppb + p) * U + u
            if self.free_blocks[u]:
                b = self._take_free_block(u)
                self.active_block[u] = b
                self.frontier[u, b] = 1
                self.valid[u, b] += 1
                return (b * ppb) * U + u
        raise FTLError("device out of free space (GC cannot keep up)")

    def _allocate_in_unit(self, u: int) -> int:
        U = self.geom.plane_units
        ppb = self.geom.pages_per_block
        b = int(self.active_block[u])
        if b >= 0 and self.frontier[u, b] < ppb:
            p = int(self.frontier[u, b])
            self.frontier[u, b] = p + 1
            self.valid[u, b] += 1
            return (b * ppb + p) * U + u
        if self.free_blocks[u]:
            b = self._take_free_block(u)
            self.active_block[u] = b
            self.frontier[u, b] = 1
            self.valid[u, b] += 1
            return (b * ppb) * U + u
        raise FTLError(
            f"unit {u} out of free space during relocation "
            "(device past sustainable wear)"
        )

    def _invalidate(self, flat: int) -> None:
        U = self.geom.plane_units
        b = (flat // U) // self.geom.pages_per_block
        self.valid[flat % U, b] -= 1
        if self.valid[flat % U, b] < 0:
            raise FTLError("valid-count underflow")
        self.reverse.pop(flat, None)

    def _gc_if_needed(self) -> list[tuple]:
        u = self._alloc_unit
        if len(self.free_blocks[u]) >= self.gc_low_water:
            return []
        b = int(self.active_block[u])
        if b >= 0 and self.frontier[u, b] < self.geom.pages_per_block:
            return []
        return self._collect(u)

    def _relocate(self, u: int, victim: int, counter: str) -> list[tuple]:
        """Move the victim's live pages one by one, then erase it."""
        U = self.geom.plane_units
        ppb = self.geom.pages_per_block
        txns = []
        for p in range(ppb):
            flat = (victim * ppb + p) * U + u
            lpage = self.reverse.get(flat)
            if lpage is None:
                continue
            txns.append((OpCode.READ, flat, self.page_bytes, -1, p))
            self._invalidate(flat)
            new_flat = self._allocate_in_unit(u)
            self.map[lpage] = new_flat
            self.reverse[new_flat] = lpage
            self.stats[counter] += 1
            txns.append((OpCode.WRITE, new_flat, self.page_bytes, -1, self._pib(new_flat)))
        self.frontier[u, victim] = 0
        self.valid[u, victim] = 0
        self.erases[u, victim] += 1
        self.erase_gen += 1
        self.free_blocks[u].append(victim)
        txns.append((OpCode.ERASE, (victim * ppb) * U + u, 0, -1, 0))
        return txns

    def _collect(self, u: int) -> list[tuple]:
        ppb = self.geom.pages_per_block
        candidates = [
            b
            for b in range(self.geom.blocks_per_plane)
            if self.frontier[u, b] == ppb
            and b != self.active_block[u]
            and not self.retired[u, b]
        ]
        if not candidates:
            return []
        victim = min(candidates, key=lambda b: self.valid[u, b])
        self.stats["gc_runs"] += 1
        return self._relocate(u, victim, "gc_moved_pages")

    # -- pre-existing wear ------------------------------------------------
    def install_preexisting_wear(self, wear: np.ndarray, retire_at: int) -> None:
        wear = np.asarray(wear, dtype=np.int64)
        self.erases[:, :] = np.sort(wear, axis=1)
        B = self.geom.blocks_per_plane
        for u in range(self.geom.plane_units):
            for b in range(B - int(np.count_nonzero(wear[u] >= retire_at)), B):
                self.retired[u, b] = True
                self.free_blocks[u].remove(b)
        self.erase_gen += 1


class DictWearFTL(DictFTL):
    """:class:`DictFTL` with the dynamic and static leveling policies."""

    def __init__(self, *args, policy: WearPolicy = WearPolicy(), **kwargs):
        super().__init__(*args, **kwargs)
        self.policy = policy

    def _take_free_block(self, u: int) -> int:
        if self.policy.kind != "dynamic":
            return super()._take_free_block(u)
        free = self.free_blocks[u]
        b = min(free, key=lambda blk: (int(self.erases[u, blk]), blk))
        free.remove(b)
        return b

    def _collect(self, u: int) -> list[tuple]:
        txns = super()._collect(u)
        if (
            txns
            and self.policy.kind == "static"
            and self.erase_gen % self.policy.static_interval == 0
        ):
            txns.extend(self._static_swap(u))
        return txns

    def _static_swap(self, u: int) -> list[tuple]:
        ppb = self.geom.pages_per_block
        B = self.geom.blocks_per_plane
        cold_candidates = [
            b
            for b in range(B)
            if self.frontier[u, b] == ppb
            and b != self.active_block[u]
            and not self.retired[u, b]
            and self.valid[u, b] > 0
        ]
        if not cold_candidates or not self.free_blocks[u]:
            return []
        cold = min(cold_candidates, key=lambda b: (int(self.erases[u, b]), b))
        live = [b for b in range(B) if not self.retired[u, b]]
        spread = int(self.erases[u, live].max() - self.erases[u, cold])
        if spread < self.policy.static_threshold:
            return []
        return self._relocate(u, cold, "wl_moved_pages")
