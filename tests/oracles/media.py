"""Die and package media models, and the page ledger FTL rows replay into.

A die is the smallest independently-operating unit of media.  Each die
has ``planes`` planes that can operate concurrently on *plane-aligned*
multi-plane commands (same block/page offset across planes); each plane
holds ``blocks_per_plane`` erase blocks of ``pages_per_block`` pages.

The die enforces the NAND erase-before-write discipline: a page may be
programmed only if it has not been programmed since the containing
block's last erase, and pages within a block must be programmed in
order (the sequential-programming rule).  PCM relaxes nothing here
because the paper models PCM behind a NOR-style block interface
(Section 2.3), so the same discipline applies at the emulation layer.

No program path runs these models.  The array FTL
(:class:`repro.ssd.ftl.DeviceFTL`) keeps the same discipline in its own
``frontier`` grid; :class:`MediaLedger` checks it from outside, by
replaying every transaction row the FTL emits into one :class:`Die`
per device die.  Plane failure (:meth:`Die.fail_plane`) lives only
here: :mod:`repro.faults.device` models die failure its own way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import DieFailure
from repro.nvm.bus import BusSpec
from repro.nvm.kinds import NVMKind
from repro.ssd.geometry import Geometry
from repro.ssd.request import OpCode

__all__ = ["Die", "MediaError", "MediaLedger", "OpKind", "Package"]


class MediaError(Exception):
    """Violation of media programming discipline (program-before-erase,
    out-of-order program, retired block, bad address)."""


class OpKind:
    """NVM transaction-level operation kinds (string constants)."""

    READ = "read"
    WRITE = "write"
    ERASE = "erase"

    ALL = (READ, WRITE, ERASE)


@dataclass
class Die:
    """State and timing of one NVM die.

    ``written`` tracks, per (plane, block), the number of sequentially
    programmed pages ("write frontier"); ``erase_count`` tracks wear;
    ``retired`` marks blocks past their endurance budget, which no
    operation may touch.
    """

    kind: NVMKind
    planes: int = 2
    blocks_per_plane: int = 256
    die_id: int = 0
    #: simulation bookkeeping: time at which the die becomes free
    busy_until: int = 0
    written: np.ndarray = field(init=False, repr=False)
    erase_count: np.ndarray = field(init=False, repr=False)
    retired: np.ndarray = field(init=False, repr=False)
    #: planes failed by fault injection; operations on them raise a
    #: typed :class:`~repro.faults.errors.DieFailure` instead of
    #: silently succeeding
    failed_planes: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.written = np.zeros((self.planes, self.blocks_per_plane), dtype=np.int32)
        self.erase_count = np.zeros((self.planes, self.blocks_per_plane), dtype=np.int64)
        self.retired = np.zeros((self.planes, self.blocks_per_plane), dtype=bool)
        self.failed_planes = frozenset()

    # -- capacity -------------------------------------------------------
    @property
    def pages_per_block(self) -> int:
        return self.kind.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return (
            self.planes
            * self.blocks_per_plane
            * self.kind.pages_per_block
            * self.kind.page_bytes
        )

    # -- timing ---------------------------------------------------------
    def cell_ns(self, op: str, page_in_block: int = 0, nplanes: int = 1) -> int:
        """Cell-array occupancy of one (possibly multi-plane) operation.

        Multi-plane commands operate the planes concurrently, so the
        occupancy equals the single-plane latency (the win the paper's
        PAL3 level captures).
        """
        if nplanes < 1 or nplanes > self.planes:
            raise ValueError(f"nplanes {nplanes} outside [1, {self.planes}]")
        if op == OpKind.READ:
            return self.kind.read_latency_ns(page_in_block)
        if op == OpKind.WRITE:
            return self.kind.program_latency_ns(page_in_block)
        if op == OpKind.ERASE:
            return self.kind.erase_ns
        raise ValueError(f"unknown op {op!r}")

    # -- fault injection -------------------------------------------------
    def fail_plane(self, plane: int) -> None:
        """Mark one plane permanently failed (fault injection)."""
        if not (0 <= plane < self.planes):
            raise MediaError(f"plane {plane} out of range")
        self.failed_planes = self.failed_planes | {plane}

    def is_plane_failed(self, plane: int) -> bool:
        return plane in self.failed_planes

    @property
    def failed(self) -> bool:
        """True when every plane of the die is failed."""
        return len(self.failed_planes) == self.planes

    # -- state-machine operations ----------------------------------------
    def _check_addr(self, plane: int, block: int, page: int | None = None) -> None:
        if not (0 <= plane < self.planes):
            raise MediaError(f"plane {plane} out of range")
        if plane in self.failed_planes:
            raise DieFailure(
                f"die {self.die_id} plane {plane} is failed",
                site=("die", self.die_id, plane),
            )
        if not (0 <= block < self.blocks_per_plane):
            raise MediaError(f"block {block} out of range")
        if page is not None and not (0 <= page < self.kind.pages_per_block):
            raise MediaError(f"page {page} out of range")
        if self.retired[plane, block]:
            raise MediaError(f"retired block: plane {plane} block {block}")

    def program(self, plane: int, block: int, page: int) -> None:
        """Program one page, enforcing sequential-in-block ordering."""
        self._check_addr(plane, block, page)
        frontier = self.written[plane, block]
        if page != frontier:
            if page < frontier:
                raise MediaError(
                    f"program-before-erase: plane {plane} block {block} "
                    f"page {page} already programmed (frontier {frontier})"
                )
            raise MediaError(
                f"out-of-order program: plane {plane} block {block} page "
                f"{page}, expected {frontier}"
            )
        self.written[plane, block] = frontier + 1

    def erase(self, plane: int, block: int) -> None:
        """Erase one block, resetting its write frontier."""
        self._check_addr(plane, block)
        self.written[plane, block] = 0
        self.erase_count[plane, block] += 1

    def is_programmed(self, plane: int, block: int, page: int) -> bool:
        """True if the page currently holds programmed data."""
        self._check_addr(plane, block, page)
        return page < self.written[plane, block]

    def read(self, plane: int, block: int, page: int) -> None:
        """Validate a read; reading an erased page is permitted (it just
        returns all-ones on real media) so this only checks addressing."""
        self._check_addr(plane, block, page)

    def adopt(self, plane: int, block: int, page: int) -> bool:
        """Bind an erased page in place, as a cold read does: the block's
        frontier moves past ``page`` with no program.  True if it moved.

        Pages skipped below ``page`` stay unprogrammed, and no later
        program may reach them before the block's next erase.
        """
        self._check_addr(plane, block, page)
        if page < self.written[plane, block]:
            return False
        self.written[plane, block] = page + 1
        return True

    @property
    def max_wear(self) -> int:
        return int(self.erase_count.max())

    @property
    def total_erases(self) -> int:
        return int(self.erase_count.sum())


@dataclass
class Package:
    """A package of ``dies_per_package`` dies behind one flash bus.

    Section 2.3: cells are grouped into dies, dies into packages,
    packages along shared channels.  Data leaving a die's page register
    crosses the package-internal bus ("flash bus" in the paper's
    Figure-10 taxonomy) and then the shared channel bus ("channel
    activation").  The flash bus runs at the same signalling rate as
    the channel bus it bridges to (they are trained together under
    ONFi), but it is a distinct resource: two dies in one package
    serialize on it even when the channel is free.
    """

    kind: NVMKind
    bus: BusSpec
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256
    package_id: int = 0
    dies: list[Die] = field(init=False, repr=False)
    #: simulation bookkeeping: time at which the flash bus frees up
    bus_busy_until: int = 0

    def __post_init__(self):
        self.dies = [
            Die(
                kind=self.kind,
                planes=self.planes_per_die,
                blocks_per_plane=self.blocks_per_plane,
                die_id=self.package_id * self.dies_per_package + i,
            )
            for i in range(self.dies_per_package)
        ]

    @property
    def capacity_bytes(self) -> int:
        return sum(d.capacity_bytes for d in self.dies)

    def flash_bus_ns(self, nbytes: int) -> int:
        """Occupancy of the package-internal bus for ``nbytes``."""
        return self.bus.transfer_ns(nbytes)


class MediaLedger:
    """One :class:`Die` per die of ``geom``, replaying FTL transaction rows.

    The ledger is seeded once from an FTL's per-unit ``frontier`` and
    ``retired`` grids (``(plane_units, blocks_per_plane)``, as they
    stand after aging and preload) and never reads the FTL again.
    :meth:`replay` decodes each row through :meth:`Geometry.decode`:

    * a WRITE programs its page, so it must land at its block's ledger
      frontier;
    * an ERASE resets its block's frontier;
    * a READ at or past its block's frontier is a cold-read adoption
      (:meth:`repro.ssd.ftl.DeviceFTL._adopt` binds the page without a
      program) and moves the frontier past it;
    * no row may touch a retired block.

    A violation raises :class:`MediaError`.  A translation that raises
    ``FTLError`` has changed the FTL's state but returns no rows, so a
    ledger run ends at the first one.
    """

    def __init__(self, geom: Geometry, frontier: np.ndarray, retired: np.ndarray):
        self.geom = geom
        self.dies = [
            Die(
                kind=geom.kind,
                planes=geom.planes_per_die,
                blocks_per_plane=geom.blocks_per_plane,
                die_id=d,
            )
            for d in range(geom.dies)
        ]
        for u in range(geom.plane_units):
            channel, package, die, plane = geom.unit_decode(u)
            ledger = self.dies[geom.global_die(channel, package, die)]
            ledger.written[plane] = frontier[u]
            ledger.retired[plane] = retired[u]
        self.programs = 0
        self.erases = 0
        self.adopting_reads = 0

    def replay(self, rows: np.ndarray) -> None:
        """Apply one ``(n, 5)`` transaction block, row by row."""
        for op, flat, *_ in rows.tolist():
            addr = self.geom.decode(flat)
            die = self.dies[self.geom.global_die(addr.channel, addr.package, addr.die)]
            if op == OpCode.WRITE:
                die.program(addr.plane, addr.block, addr.page)
                self.programs += 1
            elif op == OpCode.ERASE:
                die.erase(addr.plane, addr.block)
                self.erases += 1
            elif die.adopt(addr.plane, addr.block, addr.page):
                self.adopting_reads += 1
