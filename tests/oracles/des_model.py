"""Event-driven reference model of the SSD resource pipeline.

The production timing path (:mod:`repro.ssd.scheduler`) is a greedy
list schedule over scalar resource timelines — fast, but an
approximation of true event-driven contention.  This module implements
the *same* resource semantics as DES processes on
:class:`repro.sim.Simulator`:

* one cell-array resource per die (senses/programs serialize),
* one page-register resource per plane unit (held until the data has
  drained over the channel),
* one flash-bus resource per package,
* one bus resource per channel (command cycles + data beats),
* one host-path resource.

It is a test oracle: it exists to *cross-validate* the list scheduler: the differential
tests replay identical transaction streams through both and require
the makespans to agree closely.  It is 10-50x slower, so the figures
use the list scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.interconnect.host import HostPath
from repro.nvm.bus import BusSpec
from repro.nvm.kinds import NVMKind
from repro.sim import Resource, Simulator
from repro.ssd.ftl import GROUP
from repro.ssd.geometry import Geometry
from repro.ssd.request import OpCode

__all__ = ["DesSSD", "DesRunStats"]


@dataclass
class DesRunStats:
    """Outcome of one event-driven run."""

    makespan_ns: int
    payload_bytes: int
    n_txns: int

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.payload_bytes * 1e9 / self.makespan_ns


class DesSSD:
    """The SSD's contended resources as a discrete-event system."""

    def __init__(
        self,
        geom: Geometry,
        bus: BusSpec,
        host: HostPath,
        kind: NVMKind | None = None,
    ):
        self.geom = geom
        self.bus = bus
        self.host = host
        self.kind = kind or geom.kind
        self.sim = Simulator()
        sim = self.sim
        self.chan = [Resource(sim, name=f"chan{c}") for c in range(geom.channels)]
        self.pkg = [Resource(sim, name=f"pkg{k}") for k in range(geom.packages)]
        self.die = [Resource(sim, name=f"die{d}") for d in range(geom.dies)]
        self.plane = [Resource(sim, name=f"pl{u}") for u in range(geom.plane_units)]
        self.host_res = Resource(sim, name="host")
        self._bus_nspb = 1e9 / bus.bytes_per_sec
        self._host_nspb = 1e9 / host.bytes_per_sec
        self._payload = 0
        self._count = 0

    # ------------------------------------------------------------------
    def _cell_ns(self, op: int, pib: int) -> int:
        k = self.kind
        if op == OpCode.READ:
            return k.read_latency_ns(pib)
        if op == OpCode.WRITE:
            return k.program_latency_ns(pib)
        return k.erase_ns

    def _txn_process(self, txn: list[int], arrival: int, pay_cmd: bool):
        sim = self.sim
        geom = self.geom
        op, flat, nbytes, _group, pib = txn
        u = flat % geom.plane_units
        addr = geom.decode(flat)
        die_g = geom.global_die(addr.channel, addr.package, addr.die)
        pkg_g = geom.global_package(addr.channel, addr.package)
        cell_ns = self._cell_ns(op, pib)
        fb_ns = int(nbytes * self._bus_nspb)
        cmd_ns = self.bus.cmd_ns if pay_cmd else 0
        host_ns = int(nbytes * self._host_nspb)

        if arrival > sim.now:
            yield sim.timeout(arrival - sim.now)

        if op == OpCode.READ:
            yield self.plane[u].acquire()
            yield self.die[die_g].acquire()
            yield sim.timeout(cell_ns)
            self.die[die_g].release()
            yield self.pkg[pkg_g].acquire()
            yield sim.timeout(fb_ns)
            self.pkg[pkg_g].release()
            yield self.chan[addr.channel].acquire()
            yield sim.timeout(cmd_ns + fb_ns)
            self.chan[addr.channel].release()
            self.plane[u].release()
            yield self.host_res.acquire()
            yield sim.timeout(host_ns)
            self.host_res.release()
        elif op == OpCode.WRITE:
            yield self.host_res.acquire()
            yield sim.timeout(host_ns)
            self.host_res.release()
            yield self.chan[addr.channel].acquire()
            yield sim.timeout(cmd_ns + fb_ns)
            self.chan[addr.channel].release()
            yield self.plane[u].acquire()
            yield self.pkg[pkg_g].acquire()
            yield sim.timeout(fb_ns)
            self.pkg[pkg_g].release()
            yield self.die[die_g].acquire()
            yield sim.timeout(cell_ns)
            self.die[die_g].release()
            self.plane[u].release()
        else:  # ERASE
            yield self.plane[u].acquire()
            yield self.die[die_g].acquire()
            yield sim.timeout(cell_ns)
            self.die[die_g].release()
            self.plane[u].release()

        self._payload += nbytes
        self._count += 1

    # ------------------------------------------------------------------
    def run(self, batches: Sequence[tuple[np.ndarray, int]]) -> DesRunStats:
        """Run ``(transaction block, arrival)`` batches to completion.

        Processes are started in batch order, so FIFO resource queues
        see the same ordering the list scheduler does.
        """
        for txns, arrival in batches:
            prev_group = -2
            for t in txns.tolist():
                group = t[GROUP]
                pay_cmd = not (group >= 0 and group == prev_group)
                prev_group = group
                self.sim.process(self._txn_process(t, arrival, pay_cmd))
        end = self.sim.run()
        return DesRunStats(
            makespan_ns=end, payload_bytes=self._payload, n_txns=self._count
        )
