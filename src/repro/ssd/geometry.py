"""SSD geometry and physical addressing.

The paper's simulated devices all share one organization (Section 4.1):
**8 channels, 64 NVM packages, 128 dies** — i.e. 8 packages per channel
and 2 dies per package — with 2 planes per die for NAND-style
multi-plane operation.

Physical pages are striped across the device in *plane-first* order
(plane, then channel, then die, then package), the layout that lets a
growing request size climb the paper's parallelism ladder:

* one page           -> a single plane              (PAL1),
* 2 pages            -> a plane pair on one die     (PAL3),
* up to 2 x channels -> plane pairs across channels (PAL3 + striping),
* beyond that        -> die interleaving            (PAL4),
* beyond that        -> package interleaving        (PAL4, full fan-out).

A flat *stripe index* ``f`` decomposes as ``f = s * U + u`` where ``U``
is the number of plane units, ``u`` the plane-unit index and ``s`` the
page slot inside the unit (``s = block * pages_per_block + page``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..nvm.kinds import NVMKind

__all__ = ["Geometry", "PhysAddr", "PAPER_GEOMETRY_KW"]


class PhysAddr(NamedTuple):
    """Fully-decoded physical page address."""

    channel: int
    package: int  # package index within its channel
    die: int  # die index within its package
    plane: int
    block: int
    page: int


#: Geometry keyword arguments matching the paper's evaluated devices.
PAPER_GEOMETRY_KW = dict(
    channels=8,
    packages_per_channel=8,
    dies_per_package=2,
    planes_per_die=2,
)


@dataclass(frozen=True)
class Geometry:
    """Static shape of one SSD plus the address codec."""

    kind: NVMKind
    channels: int = 8
    packages_per_channel: int = 8
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256

    def __post_init__(self):
        for field_name in (
            "channels",
            "packages_per_channel",
            "dies_per_package",
            "planes_per_die",
            "blocks_per_plane",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")

    # -- counts ----------------------------------------------------------
    @property
    def packages(self) -> int:
        """Total packages in the device (64 in the paper's setup)."""
        return self.channels * self.packages_per_channel

    @property
    def dies(self) -> int:
        """Total dies (128 in the paper's setup)."""
        return self.packages * self.dies_per_package

    @property
    def plane_units(self) -> int:
        """Total independently-addressable planes."""
        return self.dies * self.planes_per_die

    @property
    def pages_per_block(self) -> int:
        return self.kind.pages_per_block

    @property
    def page_bytes(self) -> int:
        return self.kind.page_bytes

    @property
    def pages_per_unit(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.plane_units * self.pages_per_unit

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    # -- plane-unit codec -------------------------------------------------
    def unit_index(self, channel: int, package: int, die: int, plane: int) -> int:
        """Plane-unit index in striping order (plane innermost)."""
        P = self.planes_per_die
        C = self.channels
        D = self.dies_per_package
        return plane + P * (channel + C * (die + D * package))

    def unit_decode(self, u: int) -> tuple[int, int, int, int]:
        """Inverse of :meth:`unit_index` -> (channel, package, die, plane)."""
        P = self.planes_per_die
        C = self.channels
        D = self.dies_per_package
        plane = u % P
        u //= P
        channel = u % C
        u //= C
        die = u % D
        package = u // D
        return channel, package, die, plane

    def resource_ids(self, flat: int) -> tuple[int, int, int, int]:
        """Flat stripe index -> (channel, global package, global die, plane).

        The scalar form of the scheduler's address decode, for callers
        that need the resources one transaction occupies.
        """
        channel, package, die, plane = self.unit_decode(flat % self.plane_units)
        return (
            channel,
            self.global_package(channel, package),
            self.global_die(channel, package, die),
            plane,
        )

    # -- flat stripe codec -------------------------------------------------
    def encode(self, addr: PhysAddr) -> int:
        """Physical address -> flat stripe index."""
        self.validate(addr)
        u = self.unit_index(addr.channel, addr.package, addr.die, addr.plane)
        s = addr.block * self.pages_per_block + addr.page
        return s * self.plane_units + u

    def decode(self, flat: int) -> PhysAddr:
        """Flat stripe index -> physical address."""
        if not (0 <= flat < self.total_pages):
            raise ValueError(f"flat index {flat} out of range")
        u = flat % self.plane_units
        s = flat // self.plane_units
        channel, package, die, plane = self.unit_decode(u)
        block, page = divmod(s, self.pages_per_block)
        return PhysAddr(channel, package, die, plane, block, page)

    def validate(self, addr: PhysAddr) -> None:
        """Raise ``ValueError`` on any out-of-range component."""
        ok = (
            0 <= addr.channel < self.channels
            and 0 <= addr.package < self.packages_per_channel
            and 0 <= addr.die < self.dies_per_package
            and 0 <= addr.plane < self.planes_per_die
            and 0 <= addr.block < self.blocks_per_plane
            and 0 <= addr.page < self.pages_per_block
        )
        if not ok:
            raise ValueError(f"address {addr} outside geometry")

    # -- global resource ids (used by the scheduler) -----------------------
    def global_die(self, channel: int, package: int, die: int) -> int:
        """Dense id of a die across the whole device."""
        return die + self.dies_per_package * (package + self.packages_per_channel * channel)

    def global_package(self, channel: int, package: int) -> int:
        """Dense id of a package across the whole device."""
        return package + self.packages_per_channel * channel
