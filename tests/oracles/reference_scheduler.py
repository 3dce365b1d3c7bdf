"""Frozen scalar reference implementation of the transaction scheduler.

This is the pre-vectorization :class:`TransactionScheduler` hot loop,
kept byte-for-byte as a *golden reference*: the scheduler in
:mod:`repro.ssd.scheduler` must produce a bit-identical
:class:`~repro.ssd.scheduler.TxnLog` on any input stream.  The
equivalence is enforced by ``tests/ssd/test_scheduler_golden.py`` and
``tests/ssd/test_scheduler_properties.py``; the performance delta is
tracked by ``benchmarks/test_perf_engine.py``.

Do not "improve" this module — its whole value is that it does not
change.  Semantics are documented in :mod:`repro.ssd.scheduler`.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect.host import HostPath
from repro.nvm.bus import BusSpec
from repro.nvm.kinds import NVMKind
from repro.ssd.geometry import Geometry
from repro.ssd.request import OpCode
from repro.ssd.scheduler import KIND_CODES, LOG_COLUMNS, TxnLog

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler:
    """Greedy list scheduler over the SSD's resource timelines.

    Scalar Python implementation; rows accumulate as 23-tuples and are
    transposed into columns at :meth:`finish`.
    """

    def __init__(
        self,
        geometry: Geometry,
        bus: BusSpec,
        host: HostPath,
        kind: NVMKind | None = None,
    ):
        self.geom = geometry
        self.bus = bus
        self.host = host
        self.kind = kind or geometry.kind

        g = geometry
        self.chan_free = [0] * g.channels
        self.pkg_free = [0] * g.packages
        self.die_free = [0] * g.dies
        self.plane_free = [0] * g.plane_units
        self.host_free = 0
        self._U = g.plane_units
        self._P = g.planes_per_die
        self._C = g.channels
        self._D = g.dies_per_package
        self._K = g.packages_per_channel
        self._ppb = g.pages_per_block
        self._cmd_ns = bus.cmd_ns
        self._bus_ns_per_byte = 1e9 / bus.bytes_per_sec
        self._host_ns_per_byte = 1e9 / host.bytes_per_sec
        self._rows: list[tuple] = []
        self._txn_counter = 0

    # ------------------------------------------------------------------
    def _decode(self, flat: int) -> tuple[int, int, int, int]:
        """flat -> (channel, global package, global die, plane)."""
        u = flat % self._U
        plane = u % self._P
        rest = u // self._P
        channel = rest % self._C
        rest //= self._C
        die_in_pkg = rest % self._D
        pkg_in_ch = rest // self._D
        pkg_g = pkg_in_ch + self._K * channel
        die_g = die_in_pkg + self._D * pkg_g
        return channel, pkg_g, die_g, plane

    def _cell_ns(self, op: int, page_in_block: int) -> int:
        k = self.kind
        if op == OpCode.READ:
            return k.read_latency_ns(page_in_block)
        if op == OpCode.WRITE:
            return k.program_latency_ns(page_in_block)
        return k.erase_ns

    # ------------------------------------------------------------------
    def submit(
        self,
        txns: np.ndarray,
        arrival: int,
        req_id: int,
        client: int = 0,
        kind_label: str = "data",
    ) -> int:
        """Schedule one block request's transaction block."""
        if arrival < 0:
            raise ValueError("negative arrival")
        bus_nspb = self._bus_ns_per_byte
        host_nspb = self._host_ns_per_byte
        cmd_ns = self._cmd_ns
        chan_free = self.chan_free
        pkg_free = self.pkg_free
        die_free = self.die_free
        plane_free = self.plane_free
        kcode = KIND_CODES.get(kind_label, 0)
        completion = arrival
        rows = self._rows

        U, P, C, D, K = self._U, self._P, self._C, self._D, self._K
        kind = self.kind
        read_ladder = kind.read_ladder
        prog_ladder = kind.program_ladder
        n_read = len(read_ladder)
        n_prog = len(prog_ladder)
        erase_ns = kind.erase_ns
        host_free = self.host_free
        READ, WRITE = OpCode.READ, OpCode.WRITE
        append = rows.append

        prev_group = -2  # group id of the previous txn (for cmd sharing)
        for op, flat, nbytes, group, pib in txns.tolist():
            u = flat % U
            plane = u % P
            rest = u // P
            channel = rest % C
            rest //= C
            pkg_g = rest // D + K * channel
            die_g = rest % D + D * pkg_g
            this_cmd = 0 if (group >= 0 and group == prev_group) else cmd_ns
            prev_group = group

            unit = flat % U
            if op == READ:
                cell_ns = read_ladder[pib % n_read]
                c_start = arrival
                df = die_free[die_g]
                if df > c_start:
                    c_start = df
                pl = plane_free[unit]
                if pl > c_start:
                    c_start = pl
                c_end = c_start + cell_ns
                die_free[die_g] = c_end
                fb_ns = int(nbytes * bus_nspb)
                pf = pkg_free[pkg_g]
                f_start = pf if pf > c_end else c_end
                f_end = f_start + fb_ns
                pkg_free[pkg_g] = f_end
                cf = chan_free[channel]
                s_start = cf if cf > f_end else f_end
                s_end = s_start + this_cmd + fb_ns
                chan_free[channel] = s_end
                plane_free[unit] = s_end
                h_start = host_free if host_free > s_end else s_end
                h_end = h_start + int(nbytes * host_nspb)
                host_free = h_end
                media_done = s_end
                done = h_end
            elif op == WRITE:
                cell_ns = prog_ladder[pib % n_prog]
                h_start = host_free if host_free > arrival else arrival
                h_end = h_start + int(nbytes * host_nspb)
                host_free = h_end
                fb_ns = int(nbytes * bus_nspb)
                cf = chan_free[channel]
                s_start = cf if cf > h_end else h_end
                s_end = s_start + this_cmd + fb_ns
                chan_free[channel] = s_end
                pf = pkg_free[pkg_g]
                f_start = pf if pf > s_end else s_end
                pl = plane_free[unit]
                if pl > f_start:
                    f_start = pl
                f_end = f_start + fb_ns
                pkg_free[pkg_g] = f_end
                df = die_free[die_g]
                c_start = df if df > f_end else f_end
                c_end = c_start + cell_ns
                die_free[die_g] = c_end
                plane_free[unit] = c_end
                media_done = c_end
                done = c_end
            else:  # ERASE
                c_start = arrival
                df = die_free[die_g]
                if df > c_start:
                    c_start = df
                pl = plane_free[unit]
                if pl > c_start:
                    c_start = pl
                c_end = c_start + erase_ns
                die_free[die_g] = c_end
                plane_free[unit] = c_end
                f_start = f_end = c_end
                s_start = s_end = c_end
                h_start = h_end = c_end
                media_done = c_end
                done = c_end

            if done > completion:
                completion = done
            append(
                (
                    req_id,
                    client,
                    op,
                    channel,
                    pkg_g,
                    die_g,
                    plane,
                    nbytes,
                    group,
                    kcode,
                    flat,
                    pib,
                    arrival,
                    c_start,
                    c_end,
                    f_start,
                    f_end,
                    s_start,
                    s_end,
                    h_start,
                    h_end,
                    media_done,
                    done,
                )
            )
        self.host_free = host_free
        return completion

    # ------------------------------------------------------------------
    def finish(self) -> TxnLog:
        """Freeze the log into columnar arrays."""
        if not self._rows:
            return TxnLog({name: np.empty(0, dtype=np.int64) for name in LOG_COLUMNS})
        arr = np.asarray(self._rows, dtype=np.int64)
        return TxnLog({name: arr[:, i] for i, name in enumerate(LOG_COLUMNS)})

    @property
    def n_txns(self) -> int:
        return len(self._rows)
