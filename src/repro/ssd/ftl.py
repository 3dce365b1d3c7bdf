"""Flash translation layer (page-mapped) with GC and wear-leveling.

This is the *device-resident* FTL of Figure 4a — the layer the paper's
UFS deliberately hoists into the host (see :mod:`repro.core.ufs`, which
reuses this machinery with a different placement policy).

Responsibilities:

* logical-page -> physical-page mapping (striped pre-image for
  pre-loaded data sets, log-structured allocation for writes),
* erase-before-write discipline via per-block write frontiers,
* greedy garbage collection per plane unit with valid-page relocation,
* wear accounting (erase counts) and round-robin wear-leveling of
  free-block selection,
* translation of byte-extent commands into page-level transactions,
  including read-modify-write for sub-page overwrites and multi-plane
  grouping (:func:`plane_groups`).

All mapping state is flat numpy arrays: ``map`` (logical -> flat
physical page, -1 unmapped), ``reverse`` (flat physical -> logical
page + 1, 0 free) and per-block ``valid``/``frontier``/``erases``/
``retired`` grids; only the per-unit free-block pools stay deques.
:meth:`DeviceFTL.translate` returns one command's transactions as an
int64 ``(n, 5)`` block whose columns are :data:`TXN_COLUMNS`
``(op, flat, nbytes, group, page_in_block)``, which the scheduler
pre-passes as is; ``group`` links plane-aligned operations that execute
as a single multi-plane command (one cell activation).
"""

from __future__ import annotations

import os
from collections import deque
from typing import Optional

import numpy as np

from .geometry import Geometry
from .request import DeviceCommand, OpCode

__all__ = [
    "TXN_COLUMNS",
    "OP",
    "FLAT",
    "NBYTES",
    "GROUP",
    "PIB",
    "DeviceFTL",
    "FTLError",
    "plane_groups",
]

#: columns of a transaction block, in order: op code, flat physical
#: stripe index, payload bytes moved over buses/host (<= page size),
#: multi-plane group id (-1 ungrouped), page-in-block (latency ladder)
TXN_COLUMNS = ("op", "flat", "nbytes", "group", "page_in_block")
OP, FLAT, NBYTES, GROUP, PIB = range(len(TXN_COLUMNS))


class FTLError(Exception):
    """Logical-space exhaustion or mapping inconsistency."""


def plane_groups(
    flat: np.ndarray,
    plane_units: int,
    planes_per_die: int,
    op: Optional[np.ndarray] = None,
    cmd: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int]:
    """Multi-plane group id of every transaction row, and the group count.

    A group is a maximal run of rows with one op and one command, on
    consecutive flats that start on plane 0 of a die and stay on that
    die's following planes at the same block/page slot — exactly the
    alignment real multi-plane commands require — and holds at least
    two rows (at most ``planes_per_die``).  This is the greedy
    left-to-right pairing of a sequential scan, for any plane count.
    ``op``/``cmd`` of ``None`` mean every row shares it.  Groups are
    numbered 0, 1, ... in row order; ungrouped rows get -1.
    """
    n = len(flat)
    if planes_per_die == 1 or n < 2:
        return np.full(n, -1, dtype=np.int64), 0
    plane = flat % plane_units % planes_per_die
    # row i continues row i - 1's run; a run that starts on plane 0
    # ends at the die's last plane, the next flat being plane 0 again
    link = np.zeros(n, dtype=bool)
    link[1:] = (flat[1:] == flat[:-1] + 1) & (plane[1:] != 0)
    if op is not None:
        link[1:] &= op[1:] == op[:-1]
    if cmd is not None:
        link[1:] &= cmd[1:] == cmd[:-1]
    if not link.any():
        return np.full(n, -1, dtype=np.int64), 0
    starts = np.flatnonzero(~link)
    lens = np.diff(starts, append=n)
    grouped = (plane[starts] == 0) & (lens > 1)
    n_groups = int(np.count_nonzero(grouped))
    if not n_groups:
        return np.full(n, -1, dtype=np.int64), 0
    gid = np.where(grouped, np.cumsum(grouped) - 1, -1)
    return np.repeat(gid, lens), n_groups


class DeviceFTL:
    """Page-mapped FTL over a :class:`Geometry`.

    ``logical_bytes`` bounds the logical space; it must fit in the
    physical space minus over-provisioning.  ``gc_low_water`` is the
    free-block count per plane unit below which GC runs.
    """

    #: run the full :meth:`check_invariants` after every GC cycle.  Off
    #: by default (the scan is O(physical pages)); every GC cycle runs
    #: the incremental check over the blocks it touched regardless.
    #: The test suite turns the full scan on globally.
    debug_invariants: bool = os.environ.get("REPRO_FTL_DEBUG", "") not in ("", "0")

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
        usable = geometry.total_pages * (1.0 - overprovision)
        if self.n_logical_pages > usable:
            raise FTLError(
                f"logical space ({self.n_logical_pages} pages) exceeds usable "
                f"capacity ({int(usable)} pages) at OP {overprovision}"
            )
        self.overprovision = overprovision
        self.gc_low_water = gc_low_water
        # the geometry's derived counts, read on every translation
        self._units = geometry.plane_units
        self._planes = geometry.planes_per_die
        self._blocks = geometry.blocks_per_plane
        self._ppb = geometry.pages_per_block
        self._alloc_unit = 0  # round-robin pointer over plane units
        self._group_counter = 0
        #: erase-ledger generation: bumped on every mutation of the
        #: per-block erase counters (GC erases, wear-leveling swaps,
        #: pre-aging installs).  Consumers that derive views from the
        #: ledger — :func:`repro.nvm.endurance.wear_report` — memoize on
        #: it, so unchanged ledgers cost O(1) per snapshot.
        self.erase_gen = 0
        self.stats = {
            "gc_runs": 0,
            "gc_moved_pages": 0,
            "wl_moved_pages": 0,
            "host_writes_pages": 0,
            "rmw_reads": 0,
        }

    #: heavyweight mapping state, built on first touch.  Callers that
    #: replace the FTL before replaying (the columnar batch backend
    #: plans the translation statically) never pay for it.
    _LAZY_STATE = (
        "map", "reverse", "valid", "frontier", "erases",
        "free_blocks", "active_block", "retired",
        "_unit_ids", "_page_ids", "_page_stride", "_relocation_rows",
    )

    def _materialize(self) -> None:
        U = self._units
        B = self._blocks
        d = self.__dict__
        d["map"] = np.full(self.n_logical_pages, -1, dtype=np.int64)
        # physical page -> logical page + 1, 0 for a free page: a zeroed
        # allocation stays untouched (non-resident) wherever no page was
        # ever written, which a -1 fill would not
        d["reverse"] = np.zeros(U * B * self._ppb, dtype=np.int64)
        d["valid"] = np.zeros((U, B), dtype=np.int32)
        d["frontier"] = np.zeros((U, B), dtype=np.int32)
        d["erases"] = np.zeros((U, B), dtype=np.int64)
        # free/active block bookkeeping per plane unit
        d["free_blocks"] = [deque(range(B)) for _ in range(U)]
        d["active_block"] = np.full(U, -1, dtype=np.int64)
        # blocks past their endurance budget, excluded from allocation
        # and GC (all-False unless install_preexisting_wear retires some)
        d["retired"] = np.zeros((U, B), dtype=bool)
        d["_unit_ids"] = np.arange(U, dtype=np.int64)
        d["_page_ids"] = np.arange(self._ppb, dtype=np.int64)
        # flat index offsets of a block's pages from its page 0
        d["_page_stride"] = d["_page_ids"] * U
        # the constant columns of a block relocation's READ/WRITE pairs
        pairs = np.empty((2 * self._ppb, 5), dtype=np.int64)
        pairs[0::2, OP] = OpCode.READ
        pairs[1::2, OP] = OpCode.WRITE
        pairs[:, NBYTES] = self.page_bytes
        pairs[:, GROUP] = -1
        d["_relocation_rows"] = pairs

    def __getattr__(self, name: str):
        # only reached when normal lookup fails: first touch of a lazy
        # field materializes all of them, then lookups are plain
        if name in DeviceFTL._LAZY_STATE:
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # pre-image (pre-loaded data set)
    # ------------------------------------------------------------------
    def preload(self, nbytes: int) -> None:
        """Install a striped identity mapping for the first ``nbytes``.

        Models the paper's pre-loading of the data set from
        network-attached magnetic storage before computation starts
        (Section 3.1): logical page L sits at flat stripe index L, so a
        sequential read fans out across planes, channels, dies and
        packages exactly as a striped sequential write would have left
        it.
        """
        npages = -(-nbytes // self.page_bytes)
        if npages > self.n_logical_pages:
            raise FTLError("preload exceeds logical space")
        U = self._units
        ppb = self._ppb
        full_slots, rem = divmod(npages, U)
        slots = full_slots + (self._unit_ids < rem)  # page slots per unit
        full, part = divmod(slots, ppb)  # full blocks, pages of the last
        used = -(-slots // ppb)  # blocks the pre-image touches per unit
        block_ids = np.arange(self._blocks)
        if (self.retired & (block_ids < used[:, None])).any():
            raise FTLError(
                "preload extends into retired blocks: the device is "
                "too worn to hold the data set"
            )
        filled = block_ids < full[:, None]
        self.frontier[filled] = ppb
        self.valid[filled] = ppb
        units = np.flatnonzero(part)
        self.frontier[units, full[units]] = part[units]
        self.valid[units, full[units]] = part[units]
        self.active_block[units] = full[units]
        for free, n_used in zip(self.free_blocks, used.tolist()):
            kept = [b for b in free if b >= n_used]
            free.clear()
            free.extend(kept)
        self.map[:npages] = np.arange(npages, dtype=np.int64)
        self.reverse[:npages] = np.arange(1, npages + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def translate(self, cmd: DeviceCommand) -> np.ndarray:
        """Translate one device command into its transaction block.

        Returns an int64 ``(n, 5)`` array with :data:`TXN_COLUMNS`;
        a trim returns no rows.
        """
        if cmd.op == "read":
            return self._translate_read(cmd.lba, cmd.nbytes)
        if cmd.op == "write":
            return self._translate_write(cmd.lba, cmd.nbytes)
        if cmd.op == "trim":
            self._trim(cmd.lba, cmd.nbytes)
            return np.empty((0, 5), dtype=np.int64)
        raise FTLError(f"unsupported command op {cmd.op!r}")

    def _pages_of(self, lba: int, nbytes: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(logical pages, bytes in each, pages inside the logical space).

        The pages covering the extent, in order; translation processes
        the first ``n_ok`` of them and then raises for the rest.
        """
        pb = self.page_bytes
        end = lba + nbytes
        first = lba // pb
        lpages = np.arange(first, -(-end // pb), dtype=np.int64)
        nb = np.full(len(lpages), pb, dtype=np.int64)
        nb[0] = min(end, (first + 1) * pb) - lba
        if len(lpages) > 1:
            nb[-1] = end - int(lpages[-1]) * pb
        n_ok = max(0, min(len(lpages), self.n_logical_pages - first))
        return lpages, nb, n_ok

    def _rows(self, op: int, flat: np.ndarray, nbytes, pib=None) -> np.ndarray:
        """An ungrouped transaction block of ``op`` rows."""
        rows = np.empty((len(flat), 5), dtype=np.int64)
        rows[:, OP] = op
        rows[:, FLAT] = flat
        rows[:, NBYTES] = nbytes
        rows[:, GROUP] = -1
        rows[:, PIB] = flat // self._units % self._ppb if pib is None else pib
        return rows

    def _group(self, rows: np.ndarray) -> np.ndarray:
        """Number ``rows``' multi-plane groups from the running counter."""
        group, n_groups = plane_groups(
            rows[:, FLAT], self._units, self._planes, op=rows[:, OP]
        )
        if n_groups:
            rows[:, GROUP] = np.where(group >= 0, group + self._group_counter, -1)
            self._group_counter += n_groups
        return rows

    def _translate_read(self, lba: int, nbytes: int) -> np.ndarray:
        lpages, nb, n_ok = self._pages_of(lba, nbytes)
        flat = self.map[lpages[:n_ok]]
        for i in np.flatnonzero(flat < 0).tolist():
            # Cold read of never-written space: map it in place so the
            # trace replay stays well-defined (returns erased data).
            lpage = int(lpages[i])
            flat[i] = self._adopt(lpage, lpage)
        if n_ok < len(lpages):
            raise FTLError(f"read beyond logical space (page {int(lpages[n_ok])})")
        return self._group(self._rows(OpCode.READ, flat, nb))

    def _translate_write(self, lba: int, nbytes: int) -> np.ndarray:
        lpages, nb, n_ok = self._pages_of(lba, nbytes)
        pieces = []
        i = 0
        while i < n_ok:
            run = min(self._striped_room(), n_ok - i)
            if run:
                pieces.append(self._write_run(lpages[i : i + run], nb[i : i + run]))
                i += run
                if i == n_ok:
                    break
            # the next unit needs a fresh block: run GC first — it may
            # relocate this very logical page, so the old physical
            # location must be read afterwards
            gc = self._gc_if_needed()
            if len(gc):
                pieces.append(gc)
            pieces.append(self._write_page(int(lpages[i]), int(nb[i])))
            i += 1
        if n_ok < len(lpages):
            raise FTLError(f"write beyond logical space (page {int(lpages[n_ok])})")
        if not pieces:
            return np.empty((0, 5), dtype=np.int64)
        rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return self._group(rows)

    def _striped_room(self) -> int:
        """Pages the striped allocator places before a unit needs a block.

        Page ``i`` of a run lands on unit ``(alloc_unit + i) % U``'s
        active block, so the run ends at the first page whose unit has
        no room left.  Inside the run no GC can trigger: GC runs only
        when the unit about to allocate has a full active block.
        """
        U = self._units
        act = self.active_block
        room = np.where(
            act >= 0, self._ppb - self.frontier[self._unit_ids, act], 0
        )
        offset = (self._unit_ids - self._alloc_unit) % U
        return int((offset + room * U).min())

    def _write_run(self, lpages: np.ndarray, nb: np.ndarray) -> np.ndarray:
        """Host-write ``lpages`` into the active blocks, striped.

        The caller guarantees (:meth:`_striped_room`) every page lands
        in its unit's active block: the whole run is one allocation.
        """
        U = self._units
        ppb = self._ppb
        pb = self.page_bytes
        k = len(lpages)
        step = np.arange(k, dtype=np.int64)
        units = (self._alloc_unit + step) % U
        blocks = self.active_block[units]
        pages = self.frontier[units, blocks] + step // U
        flat = (blocks * ppb + pages) * U + units
        placed = np.bincount(units, minlength=U)
        self.frontier[self._unit_ids, self.active_block] += placed
        self.valid[self._unit_ids, self.active_block] += placed
        self._alloc_unit = int((self._alloc_unit + k) % U)

        old = self.map[lpages]
        live = old >= 0
        if live.any():
            self._invalidate_many(old[live])
        self.map[lpages] = flat
        self.reverse[flat] = lpages + 1
        self.stats["host_writes_pages"] += k
        writes = self._rows(OpCode.WRITE, flat, pb, pib=pages)
        rmw = live & (nb < pb)
        n_rmw = int(np.count_nonzero(rmw))
        if not n_rmw:
            return writes
        # sub-page overwrites of live data: read-modify-write, the read
        # of the old page right before the page's write
        self.stats["rmw_reads"] += n_rmw
        reads = self._rows(OpCode.READ, old[rmw], pb - nb[rmw])
        at = step + np.cumsum(rmw)
        rows = np.empty((k + n_rmw, 5), dtype=np.int64)
        rows[at] = writes
        rows[at[rmw] - 1] = reads
        return rows

    def _write_page(self, lpage: int, nb: int) -> np.ndarray:
        """Host-write one page through the striped allocator."""
        pb = self.page_bytes
        U = self._units
        ppb = self._ppb
        rows = []
        old = int(self.map[lpage])
        if nb < pb and old >= 0:
            # Sub-page overwrite of live data: read-modify-write.
            self.stats["rmw_reads"] += 1
            rows.append((OpCode.READ, old, pb - nb, -1, old // U % ppb))
        flat = self._allocate()
        if old >= 0:
            self._invalidate(old)
        self.map[lpage] = flat
        self.reverse[flat] = lpage + 1
        self.stats["host_writes_pages"] += 1
        rows.append((OpCode.WRITE, flat, pb, -1, flat // U % ppb))
        return np.array(rows, dtype=np.int64)

    def _trim(self, lba: int, nbytes: int) -> None:
        lpages, _nb, n_ok = self._pages_of(lba, nbytes)
        lpages = lpages[:n_ok]
        old = self.map[lpages]
        live = old >= 0
        if live.any():
            self._invalidate_many(old[live])
            self.map[lpages[live]] = -1

    def _adopt(self, lpage: int, flat: int) -> int:
        """Bind a cold logical page to its identity-striped location.

        Returns the flat index actually bound (a fresh allocation when
        the identity slot is already occupied, keeping maps injective).
        """
        u = flat % self._units
        b, p = divmod(flat // self._units, self._ppb)
        if self.reverse[flat] or self.retired[u, b]:
            flat = self._allocate()
            self.map[lpage] = flat
            self.reverse[flat] = lpage + 1
            return flat
        self.map[lpage] = flat
        self.reverse[flat] = lpage + 1
        if self.frontier[u, b] <= p:
            self.frontier[u, b] = p + 1
        self.valid[u, b] += 1
        if b in self.free_blocks[u]:
            self.free_blocks[u].remove(b)
        return flat

    # ------------------------------------------------------------------
    # allocation and garbage collection
    # ------------------------------------------------------------------
    def _take_free_block(self, u: int) -> int:
        """Pick the next free block of unit ``u`` (non-empty pool).

        The base policy is FIFO round-robin: blocks re-enter the pool at
        the tail as GC erases them, so selection cycles the whole pool.
        :class:`repro.lifetime.WearFTL` overrides this hook with
        wear-aware (cold-block-first) selection.
        """
        return self.free_blocks[u].popleft()

    def _allocate(self) -> int:
        """Allocate the next physical page, striping across plane units."""
        U = self._units
        ppb = self._ppb
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
                return (b * ppb + 0) * U + u
        raise FTLError("device out of free space (GC cannot keep up)")

    def _allocate_in_unit(
        self, u: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The next ``n`` physical pages of unit ``u`` only.

        Returns their flat indices, their page-in-block positions and
        the blocks they landed in.

        The relocation target: GC and wear-leveling relocations must be
        self-contained per unit.  Routing them through the striped
        :meth:`_allocate` lets one unit's collection drain *other*
        units' free pools without ever triggering their GC, deadlocking
        the whole device once spare area shrinks (retired blocks on aged
        devices).  In-unit relocation consumes at most one free block
        and the victim's erase immediately returns one.
        """
        U = self._units
        ppb = self._ppb
        runs = []
        pibs = []
        blocks = []
        while n:
            b = int(self.active_block[u])
            p = int(self.frontier[u, b]) if b >= 0 else ppb
            if p < ppb:
                take = min(n, ppb - p)
                self.frontier[u, b] = p + take
                self.valid[u, b] += take
                runs.append(self._page_stride[p : p + take] + (b * ppb * U + u))
                pibs.append(self._page_ids[p : p + take])
                blocks.append(b)
                n -= take
            elif self.free_blocks[u]:
                b = self._take_free_block(u)
                self.active_block[u] = b
                self.frontier[u, b] = 0
            else:
                raise FTLError(
                    f"unit {u} out of free space during relocation "
                    "(device past sustainable wear)"
                )
        if len(runs) == 1:
            return runs[0], pibs[0], blocks
        empty = self._page_ids[:0]
        return np.concatenate(runs or [empty]), np.concatenate(pibs or [empty]), blocks

    def _invalidate(self, flat: int) -> None:
        u = flat % self._units
        b = flat // self._units // self._ppb
        self.valid[u, b] -= 1
        if self.valid[u, b] < 0:
            raise FTLError("valid-count underflow")
        self.reverse[flat] = 0

    def _invalidate_many(self, flat: np.ndarray) -> None:
        """:meth:`_invalidate` of distinct mapped pages at once."""
        valid = self.valid.reshape(-1)
        cell = flat % self._units * self._blocks + flat // (self._ppb * self._units)
        np.subtract.at(valid, cell, 1)
        if valid[cell].min() < 0:
            raise FTLError("valid-count underflow")
        self.reverse[flat] = 0

    def _gc_if_needed(self) -> np.ndarray:
        """Run GC on the next allocation unit if it is low on space."""
        u = self._alloc_unit
        if len(self.free_blocks[u]) >= self.gc_low_water:
            return np.empty((0, 5), dtype=np.int64)
        b = int(self.active_block[u])
        if b >= 0 and self.frontier[u, b] < self._ppb:
            return np.empty((0, 5), dtype=np.int64)  # room left in the active block
        return self._collect(u)

    def _full_blocks(self, u: int) -> np.ndarray:
        """Unit ``u``'s blocks GC may pick: full, not active, not retired."""
        full = (self.frontier[u] == self._ppb) & ~self.retired[u]
        active = int(self.active_block[u])
        if active >= 0:
            full[active] = False
        return full

    def _collect(self, u: int) -> np.ndarray:
        """Greedy GC: relocate the min-valid block of unit ``u``."""
        candidates = self._full_blocks(u)
        if not candidates.any():
            return np.empty((0, 5), dtype=np.int64)
        # first block of least valid pages (valid never exceeds ppb)
        victim = int(np.where(candidates, self.valid[u], self._ppb + 1).argmin())
        self.stats["gc_runs"] += 1
        return self._relocate(u, victim, "gc_moved_pages")

    def _relocate(self, u: int, victim: int, counter: str) -> np.ndarray:
        """Move ``victim``'s live pages within unit ``u``, then erase it.

        Gathers the live pages from the reverse map, allocates them one
        in-unit run, and emits a READ/WRITE pair per page in page order
        followed by the victim's ERASE.  ``counter`` names the stat the
        moved pages count into.
        """
        U = self._units
        ppb = self._ppb
        block = self._page_stride + (victim * ppb * U + u)
        owner = self.reverse[block]
        live = np.flatnonzero(owner)
        n = len(live)
        src = block[live]
        lpages = owner[live] - 1
        dst, dst_pib, dst_blocks = self._allocate_in_unit(u, n)
        self.reverse[src] = 0
        self.map[lpages] = dst
        self.reverse[dst] = lpages + 1
        self.stats[counter] += n
        # erase the victim
        self.frontier[u, victim] = 0
        self.valid[u, victim] = 0
        self.erases[u, victim] += 1
        self.erase_gen += 1
        self.free_blocks[u].append(victim)

        rows = np.empty((2 * n + 1, 5), dtype=np.int64)
        rows[:-1] = self._relocation_rows[: 2 * n]
        rows[0:-1:2, FLAT] = src
        rows[0:-1:2, PIB] = live
        rows[1::2, FLAT] = dst
        rows[1::2, PIB] = dst_pib
        rows[-1] = (OpCode.ERASE, victim * ppb * U + u, 0, -1, 0)
        self._check_relocation(u, block, dst_blocks)
        if self.debug_invariants:
            self.check_invariants()
        return rows

    # ------------------------------------------------------------------
    # invariants / introspection (used heavily by tests)
    # ------------------------------------------------------------------
    def _check_relocation(
        self, u: int, victim_pages: np.ndarray, dst_blocks: list[int]
    ) -> None:
        """Incremental invariants over the blocks one relocation touched.

        The erased victim (``victim_pages`` are its flat indices) maps
        no page, and in each destination block the live pages,
        the pages whose owner maps back to them and ``valid`` agree in
        number — every live page round-trips through ``map``.  A few
        small gathers per block, so it runs after every GC cycle and
        static swap.
        """
        if np.count_nonzero(self.reverse[victim_pages]):
            raise FTLError(f"erased block of unit {u} still maps pages")
        ppb_u = self._ppb * self._units
        for b in dst_blocks:
            flat = self._page_stride + (b * ppb_u + u)
            owner = self.reverse[flat]
            live = np.count_nonzero(owner)
            # owner - 1 == -1 reads the last logical page's mapping: a
            # free page it maps to is a real inconsistency, counted too
            back = np.count_nonzero(self.map[owner - 1] == flat)
            if not live == back == self.valid[u, b]:
                raise FTLError(
                    f"relocation left block {b} of unit {u} out of sync: "
                    f"{live} live pages, {back} mapped back, valid {self.valid[u, b]}"
                )

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any mapping inconsistency."""
        lpages = np.flatnonzero(self.map >= 0)
        flat = self.map[lpages]
        # map and reverse are mutual inverses: every mapped page points
        # back at its logical page and nothing else is mapped, so no two
        # logical pages share a physical one
        assert np.array_equal(self.reverse[flat], lpages + 1), "reverse map out of sync"
        live = np.flatnonzero(self.reverse)
        assert len(live) == len(lpages), "reverse maps unmapped pages"
        # valid counts are exactly the live pages of each block
        U = self._units
        cell = live % U * self._blocks + live // U // self._ppb
        counts = np.bincount(cell, minlength=self.valid.size).reshape(self.valid.shape)
        assert np.array_equal(counts, self.valid), "valid count != live pages"
        # valid counts never exceed frontiers
        assert np.all(self.valid <= self.frontier), "valid beyond frontier"
        # retired blocks hold no data and are out of every pool
        assert np.all(self.frontier[self.retired] == 0), "retired block written"
        for u, free in enumerate(self.free_blocks):
            assert not any(self.retired[u, b] for b in free), "retired block in pool"

    @property
    def max_wear(self) -> int:
        return int(self.erases.max())

    @property
    def wear_spread(self) -> int:
        return int(self.erases.max() - self.erases.min())

    @property
    def media_writes_pages(self) -> int:
        """Pages physically programmed: host writes plus relocations."""
        s = self.stats
        return (
            s["host_writes_pages"] + s["gc_moved_pages"] + s["wl_moved_pages"]
        )

    @property
    def waf(self) -> float:
        """Write-amplification factor: media pages per host page.

        1.0 before any host write (nothing has been amplified yet).
        """
        host = self.stats["host_writes_pages"]
        return self.media_writes_pages / host if host else 1.0

    @property
    def retired_blocks(self) -> int:
        return int(self.retired.sum())

    # ------------------------------------------------------------------
    # pre-existing wear (repro.lifetime aging)
    # ------------------------------------------------------------------
    def install_preexisting_wear(
        self, wear: np.ndarray, retire_at: int | None = None
    ) -> None:
        """Install a per-block erase history on a *fresh* device.

        The sanctioned entry point for :mod:`repro.lifetime`'s aging
        model (the WEAR001 lint rule bans ad-hoc ledger mutation
        elsewhere).  ``wear`` is a ``(plane_units, blocks_per_plane)``
        array of prior erase counts; blocks at or past ``retire_at``
        (default: the medium's Table-1 endurance budget) are retired —
        removed from the free pools and excluded from GC — shrinking
        effective over-provisioning exactly the way worn devices lose
        spare area.  Retirement takes the highest-numbered blocks of
        each unit so the identity-striped preload region stays intact.

        Must run before :meth:`preload` and before any translation.
        """
        wear = np.asarray(wear, dtype=np.int64)
        if wear.shape != self.erases.shape:
            raise FTLError(
                f"wear shape {wear.shape} != block grid {self.erases.shape}"
            )
        if np.any(wear < 0):
            raise FTLError("negative erase counts in wear array")
        # every mapping writes a frontier, so frontiers tell a fresh device
        if self.frontier.any() or self.erases.any():
            raise FTLError(
                "pre-existing wear must be installed on a fresh device "
                "(before preload and any translation)"
            )
        if retire_at is None:
            retire_at = self.geom.kind.endurance_cycles
        # sort each unit's counts ascending so the most-worn blocks land
        # on the highest block ids — the ones retirement removes — and
        # retired <=> wear >= retire_at holds block-by-block.  The wear
        # *distribution* (mean/spread/gini) is permutation-invariant.
        self.erases[:, :] = np.sort(wear, axis=1)
        B = self._blocks
        n_retire = np.count_nonzero(wear >= retire_at, axis=1)
        self.retired |= np.arange(B) >= B - n_retire[:, None]
        for free, n in zip(self.free_blocks, n_retire.tolist()):
            if n:
                kept = [b for b in free if b < B - n]
                free.clear()
                free.extend(kept)
        self.erase_gen += 1
