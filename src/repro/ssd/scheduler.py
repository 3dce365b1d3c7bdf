"""Transaction-level SSD timing scheduler.

This module is the timing heart of the reproduction: it assigns every
page-level NVM transaction start/end times on the device's contended
resources and records the per-transaction timeline from which all of
the paper's evaluation metrics (Figures 7-10) derive.

Resource model (per Section 2.3 / Figure 5):

* **die** — executes cell operations (read sense, program, erase) and
  holds its page register until the data has crossed the
  package-internal *flash bus*; cell operations on one die serialize.
  Multi-plane groups share command/arbitration overhead (and classify
  as PAL3/PAL4) per Section 4.5.
* **package flash bus** — serializes register<->channel movement of the
  dies inside one package ("flash bus activation").
* **channel bus** — shared by the 8 packages of a channel; each
  transaction pays command/address cycles plus the data beats
  ("channel activation").
* **host path** — PCIe (bridged or native) or the ION network; data
  crosses it after leaving the channel (reads) or before reaching it
  (writes) ("non-overlapped DMA" when it cannot hide behind media
  activity).

The scheduler is deterministic and processes transactions in submission
order; parallelism emerges from the per-resource availability times
exactly as in a non-preemptive list schedule.

The timing kernel has two halves, shared by every replay:

* :func:`prepass` computes everything without a cross-transaction
  dependency — address decode, latency-ladder lookup, bus/host
  transfer times and the multi-plane command-sharing discount — with
  numpy over any number of one device's rows, with that device's
  constants as Python scalars (:meth:`MediaConsts.of`, :meth:`Link.of`).
  A planner that replays many devices stacks only each device's
  :func:`step_cols` (:class:`StepCols`); :func:`lockstep` derives the
  rest per step.
* :func:`recurrence` is the irreducibly sequential resource-timeline
  recurrence, a scalar loop over plain ints for READ/WRITE/ERASE rows.
  :func:`block_recurrence` is the same recurrence for READ rows, one
  *block* (:func:`block_ends`) of each of many lanes per call, as
  segmented max-plus scans in numpy; :func:`lockstep` steps many
  lanes through it side by side (the batch backend's planned cells),
  and steps every all-READ pattern peak of :mod:`repro.ssd.metrics`.

Every replay records the same four numbers per row: its cell,
flash-bus, channel and host ends.  :func:`assemble_log` alone builds
the 23-column log (:class:`TxnLog`) from them, the replayed commands
and the rows' pre-pass, deriving each start as the end less the row's
duration there.  :class:`TransactionScheduler` pre-passes each
submitted command's transaction block (the FTL's int64 ``(n, 5)``
columns, :data:`~repro.ssd.ftl.TXN_COLUMNS`) as is, runs it through the
scalar recurrence and keeps the pre-pass and the ends for
:meth:`TransactionScheduler.finish`; a lockstep lane hands its ends to
its ``done`` hook.  The media pattern peak of a log with writes
(:func:`repro.ssd.metrics.media_pattern_peak`) calls the two halves
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Generator, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..interconnect.host import HostPath
from ..nvm.bus import BusSpec
from ..nvm.kinds import NVMKind
from .geometry import Geometry
from .request import OpCode

__all__ = [
    "BREAK_EVEN_ROWS",
    "Commands",
    "INFINITE_BUS",
    "INFINITE_HOST",
    "Lane",
    "LaneCols",
    "Link",
    "MediaConsts",
    "Resources",
    "StepCols",
    "TransactionScheduler",
    "TxnLog",
    "FlatResources",
    "assemble_log",
    "block_ends",
    "block_recurrence",
    "link_times",
    "lockstep",
    "prepass",
    "recurrence",
    "step_cols",
    "unit_ids",
]

#: Column names of the transaction log (all int64 ns except noted).
LOG_COLUMNS = (
    "req",  # block-request id
    "client",
    "op",
    "channel",
    "package",  # global package id
    "die",  # global die id
    "plane",
    "nbytes",
    "group",
    "kind_code",  # 0 data, 1 journal, 2 metadata (for analysis)
    "flat",  # physical flat stripe index
    "pib",  # page-in-block (latency ladder position)
    "arrival",
    "cell_start",
    "cell_end",
    "fb_start",
    "fb_end",
    "ch_start",
    "ch_end",
    "h_start",
    "h_end",
    "media_done",
    "done",
)

KIND_CODES = {"data": 0, "journal": 1, "metadata": 2}

#: the infinite bus/host pair of the unconstrained replays: the pattern
#: peak and the Figs 7b/8b "bandwidth remaining" baseline
INFINITE_BUS = BusSpec(name="infinite", mhz=10**9, ddr=True, cmd_ns=0)
INFINITE_HOST = HostPath(name="infinite", bytes_per_sec=1e18, per_request_ns=0)

#: lane columns the recurrence reads, in its unpacking order
_RECURRENCE_COLS = ("op", "unit", "die", "pkg", "chan", "cell_ns", "fb", "hb", "cmd")
#: log columns gathered from the replayed rows: log name -> lane column
_ROW_COLS = {
    "op": "op",
    "channel": "chan",
    "package": "pkg",
    "die": "die",
    "plane": "plane",
    "nbytes": "nbytes",
    "group": "group",
    "flat": "flat",
    "pib": "pib",
}

@dataclass
class TxnLog:
    """Columnar log of scheduled transactions."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


@dataclass(frozen=True)
class MediaConsts:
    """One device's address-decode and cell-latency constants for
    :func:`prepass`.

    Cell latency is a lookup in ``lat``, the concatenated (read ladder,
    program ladder, erase time) tables: a row with op code ``op`` reads
    ``lat[lat_base[op] + pib % lat_len[op]]``.
    """

    U: int  # plane units
    P: int  # planes per die
    C: int  # channels
    D: int  # dies per package
    K: int  # packages per channel
    lat: np.ndarray
    lat_base: np.ndarray
    lat_len: np.ndarray

    @classmethod
    def of(cls, geom: Geometry, kind: NVMKind) -> "MediaConsts":
        n_read = len(kind.read_ladder)
        n_prog = len(kind.program_ladder)
        return cls(
            U=geom.plane_units,
            P=geom.planes_per_die,
            C=geom.channels,
            D=geom.dies_per_package,
            K=geom.packages_per_channel,
            lat=np.asarray(
                (*kind.read_ladder, *kind.program_ladder, kind.erase_ns),
                dtype=np.int64,
            ),
            # indexed by OpCode: READ, WRITE, ERASE
            lat_base=np.array([0, n_read, n_read + n_prog], dtype=np.int64),
            lat_len=np.array([n_read, n_prog, 1], dtype=np.int64),
        )

    def decode(self, u):
        """Plane, channel, global package and global die of plane units ``u``."""
        rest = u // self.P
        chan = rest % self.C
        rest = rest // self.C
        pkg = rest // self.D + self.K * chan
        return u % self.P, chan, pkg, rest % self.D + self.D * pkg


class Link(NamedTuple):
    """One interface's constants for :func:`prepass`: bus and host ns
    per byte and the channel command/address cycles."""

    bus_ns_per_byte: float
    host_ns_per_byte: float
    cmd_ns: int

    @classmethod
    def of(cls, bus: BusSpec, host: HostPath) -> "Link":
        return cls(1e9 / bus.bytes_per_sec, 1e9 / host.bytes_per_sec, bus.cmd_ns)


@dataclass
class StepCols:
    """The per-row inputs :func:`lockstep` reads, on any link
    (:func:`step_cols`): the row's plane unit in its own device, cell
    time, whether it rides the command cycles of the row before, and
    payload.  A step derives the die, package and channel from the unit
    (:func:`unit_ids`) and the bus, host and command times from the
    lane's :class:`Link` (:func:`link_times`).  Any integer dtype whose
    values fit will do: :func:`lockstep` sums in int64.
    """

    unit: np.ndarray
    cell_ns: np.ndarray
    shared: np.ndarray
    nbytes: np.ndarray


@dataclass
class LaneCols(StepCols):
    """Every pre-passed per-row column of one scheduler lane on one
    link: the :class:`StepCols`, their decode and link times, and the
    transactions' own row columns, which the scalar :func:`recurrence`
    (``op``) and the log read.  Like :class:`StepCols`, any integer
    dtype will do: :func:`assemble_log` widens the rows it gathers to
    the log's int64."""

    plane: np.ndarray
    chan: np.ndarray
    pkg: np.ndarray
    die: np.ndarray
    fb: np.ndarray
    hb: np.ndarray
    cmd: np.ndarray
    op: np.ndarray
    flat: np.ndarray
    group: np.ndarray
    pib: np.ndarray

    def lists(self) -> tuple[list[int], ...]:
        """The :func:`recurrence` columns as Python lists."""
        return tuple(getattr(self, name).tolist() for name in _RECURRENCE_COLS)


def unit_ids(geom: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The die, package and channel of each of ``geom``'s plane units,
    int64, as :func:`prepass` decodes them."""
    units = np.arange(geom.plane_units, dtype=np.int64)
    _, chan, pkg, die = MediaConsts.of(geom, geom.kind).decode(units)
    return die, pkg, chan


def link_times(nbytes, shared, bus_ns_per_byte, host_ns_per_byte, cmd_ns):
    """Flash-bus, host and command ns of rows moving ``nbytes``, those
    ``shared`` marks paying no command cycles.  Scalar link constants
    (one :class:`Link`) or one per row give each row the same float
    product and truncation."""
    return (
        (nbytes * bus_ns_per_byte).astype(np.int64),
        (nbytes * host_ns_per_byte).astype(np.int64),
        np.where(shared, 0, cmd_ns),
    )


def step_cols(
    media: MediaConsts,
    op: np.ndarray,
    flat: np.ndarray,
    nbytes: np.ndarray,
    group: np.ndarray,
    pib: np.ndarray,
    same_cmd: Optional[np.ndarray] = None,
) -> StepCols:
    """The link-independent per-row inputs of a transaction stream.

    A row rides the command/address cycles of the row before it
    (``shared``) when both belong to one multi-plane group — and, if
    ``same_cmd`` is given, to one command (equal keys).
    """
    shared = np.zeros(len(op), dtype=bool)
    if len(op) > 1:
        shared[1:] = (group[1:] >= 0) & (group[1:] == group[:-1])
        if same_cmd is not None:
            shared[1:] &= same_cmd[1:] == same_cmd[:-1]
    return StepCols(
        unit=flat % media.U,
        cell_ns=media.lat[media.lat_base[op] + pib % media.lat_len[op]],
        shared=shared,
        nbytes=nbytes,
    )


def prepass(
    media: MediaConsts,
    link: Link,
    op: np.ndarray,
    flat: np.ndarray,
    nbytes: np.ndarray,
    group: np.ndarray,
    pib: np.ndarray,
    same_cmd: Optional[np.ndarray] = None,
) -> LaneCols:
    """Every per-row timing input of a transaction stream on ``link``:
    :func:`step_cols`, the unit's decode and the link's times."""
    step = step_cols(media, op, flat, nbytes, group, pib, same_cmd)
    plane, chan, pkg, die = media.decode(step.unit)
    fb, hb, cmd = link_times(nbytes, step.shared, *link)
    return LaneCols(
        **vars(step), plane=plane, chan=chan, pkg=pkg, die=die,
        fb=fb, hb=hb, cmd=cmd, op=op, flat=flat, group=group, pib=pib,
    )


class Resources:
    """Availability time (ns) of every contended resource of one device."""

    __slots__ = ("chan_free", "pkg_free", "die_free", "plane_free", "host_free")

    def __init__(self, geom: Geometry):
        # plain Python lists: scalar indexing is much faster than ndarray
        self.chan_free = [0] * geom.channels
        self.pkg_free = [0] * geom.packages
        #: cell-array availability per die (senses/programs serialize)
        self.die_free = [0] * geom.dies
        #: page-register availability per plane unit: the register holds
        #: its data until the channel transfer drains, so a die can run
        #: at most one outstanding transfer per plane (dual-register
        #: architecture) — this throttles sensing to the bus rate
        self.plane_free = [0] * geom.plane_units
        self.host_free = 0


def recurrence(
    cols: tuple[list[int], ...],
    lo: int,
    hi: int,
    arrival: int,
    res: Resources,
    out: Optional[Sequence[list[int]]] = None,
    at: int = 0,
) -> int:
    """Schedule rows ``lo:hi`` of ``cols`` (:meth:`LaneCols.lists`).

    Every row arrives at ``arrival``; ``res`` advances in place.  With
    ``out``, the k-th row's cell, flash-bus, channel and host ends land
    at index ``at + k`` of the four ``out`` lists; an erase's bus and
    host ends are its cell end.  Returns the latest completion: host
    transfer end for reads, media completion for writes and erases.
    """
    op_l, unit_l, die_l, pkg_l, chan_l, cell_l, fb_l, hb_l, cmd_l = cols
    chan_free = res.chan_free
    pkg_free = res.pkg_free
    die_free = res.die_free
    plane_free = res.plane_free
    host_free = res.host_free
    record = out is not None
    if out is not None:
        ce_l, fe_l, se_l, he_l = out
    READ, WRITE = OpCode.READ, OpCode.WRITE
    completion = arrival
    k = at

    for i in range(lo, hi):
        op = op_l[i]
        unit = unit_l[i]
        die_g = die_l[i]
        if op == READ:
            # full-page sense regardless of payload size; the sense
            # needs the cell array free AND this plane's register
            # drained from its previous transfer
            c_start = arrival
            df = die_free[die_g]
            if df > c_start:
                c_start = df
            pl = plane_free[unit]
            if pl > c_start:
                c_start = pl
            c_end = c_start + cell_l[i]
            die_free[die_g] = c_end
            fb_ns = fb_l[i]
            pkg_g = pkg_l[i]
            pf = pkg_free[pkg_g]
            f_start = pf if pf > c_end else c_end
            f_end = f_start + fb_ns
            pkg_free[pkg_g] = f_end
            channel = chan_l[i]
            cf = chan_free[channel]
            s_start = cf if cf > f_end else f_end
            s_end = s_start + cmd_l[i] + fb_ns
            chan_free[channel] = s_end
            plane_free[unit] = s_end  # register drains with the bus
            h_start = host_free if host_free > s_end else s_end
            h_end = h_start + hb_l[i]
            host_free = h_end
            if h_end > completion:
                completion = h_end
        elif op == WRITE:
            h_start = host_free if host_free > arrival else arrival
            h_end = h_start + hb_l[i]
            host_free = h_end
            fb_ns = fb_l[i]
            channel = chan_l[i]
            cf = chan_free[channel]
            s_start = cf if cf > h_end else h_end
            s_end = s_start + cmd_l[i] + fb_ns
            chan_free[channel] = s_end
            # loading the register needs it drained from prior use
            pkg_g = pkg_l[i]
            pf = pkg_free[pkg_g]
            f_start = pf if pf > s_end else s_end
            pl = plane_free[unit]
            if pl > f_start:
                f_start = pl
            f_end = f_start + fb_ns
            pkg_free[pkg_g] = f_end
            df = die_free[die_g]
            c_start = df if df > f_end else f_end
            c_end = c_start + cell_l[i]
            die_free[die_g] = c_end
            plane_free[unit] = c_end  # register held during program
            if c_end > completion:
                completion = c_end
        else:  # ERASE
            c_start = arrival
            df = die_free[die_g]
            if df > c_start:
                c_start = df
            pl = plane_free[unit]
            if pl > c_start:
                c_start = pl
            c_end = c_start + cell_l[i]
            die_free[die_g] = c_end
            plane_free[unit] = c_end
            f_end = s_end = h_end = c_end
            if c_end > completion:
                completion = c_end

        if record:
            ce_l[k] = c_end
            fe_l[k] = f_end
            se_l[k] = s_end
            he_l[k] = h_end
            k += 1

    res.host_free = host_free
    return completion


def block_ends(unit: np.ndarray) -> np.ndarray:
    """End (exclusive) of the longest run of distinct units from each row.

    Row ``i``'s entry is the first row ``j > i`` whose plane unit already
    occurs in ``i:j``, or ``len(unit)``.  A block that starts at ``s``
    and may not pass its command's end ``hi`` is ``s:min(ends[s], hi)``:
    the suffix-min of every row's next same-unit row is the first
    repeat, and no row at or past it can lower the minimum, since a
    row's next same-unit row lies after the row itself.  Row indices
    are int32 below 2**31 rows.
    """
    n = len(unit)
    row = np.int32 if n < 2**31 else np.int64
    nxt = np.full(n, n, dtype=row)
    if n > 1:
        # a stable sort lists each unit's rows in row order; small keys
        # sort by radix
        key = unit.astype(np.uint16, copy=False) if int(unit.max()) < 1 << 16 else unit
        order = np.argsort(key, kind="stable").astype(row, copy=False)
        sorted_unit = key[order]
        nxt[order[:-1]] = np.where(sorted_unit[1:] == sorted_unit[:-1], order[1:], n)
    return np.minimum.accumulate(nxt[::-1])[::-1]


class FlatResources:
    """Availability times of many devices' resources in flat int64 arrays.

    Lane ``k``'s dies, packages, channels and plane units occupy one
    slice each, starting at the offsets ``die0[k]`` .. ``unit0[k]``; its
    host path is entry ``k`` of ``host_free``.  Keys offset this way
    never collide across lanes, so one :func:`block_recurrence` step
    advances every lane at once.  ``die_of``, ``pkg_of`` and ``chan_of``
    map each offset plane unit to its offset die, package and channel.
    """

    def __init__(self, geoms: Sequence[Geometry]):
        self.geoms = list(geoms)

        def offsets(attr: str) -> tuple[np.ndarray, np.ndarray]:
            sizes = np.array([getattr(g, attr) for g in geoms], dtype=np.int64)
            first = np.cumsum(sizes) - sizes
            return first, np.zeros(int(sizes.sum()), dtype=np.int64)

        self.die0, self.die_free = offsets("dies")
        self.pkg0, self.pkg_free = offsets("packages")
        self.chan0, self.chan_free = offsets("channels")
        self.unit0, self.plane_free = offsets("plane_units")
        self.host_free = np.zeros(len(geoms), dtype=np.int64)
        ids = [unit_ids(g) for g in self.geoms]
        self.die_of, self.pkg_of, self.chan_of = (
            np.concatenate([t[j] + first[k] for k, t in enumerate(ids)] or [first])
            for j, first in enumerate((self.die0, self.pkg0, self.chan0))
        )

    def lane(self, k: int) -> Resources:
        """Lane ``k``'s state, copied into a scalar :class:`Resources`."""
        g = self.geoms[k]
        res = Resources(g)
        for name, first, size in (
            ("die_free", self.die0, g.dies),
            ("pkg_free", self.pkg0, g.packages),
            ("chan_free", self.chan0, g.channels),
            ("plane_free", self.unit0, g.plane_units),
        ):
            lo = int(first[k])
            setattr(res, name, getattr(self, name)[lo : lo + size].tolist())
        res.host_free = int(self.host_free[k])
        return res


def _chain(
    x: np.ndarray, b: np.ndarray, key: np.ndarray, free: np.ndarray, out: np.ndarray
) -> None:
    """One resource of the READ recurrence over rows in submission order.

    Row ``i`` starts at ``max(x_i, end of the previous row on key_i)``
    and holds the resource ``b_i`` ns; the first row on a key waits for
    ``free[key]``.  Writes every row's end into ``out`` and advances
    ``free``.  A stable sort groups the rows by key, keeping
    each key's rows in submission order, and :func:`_scan` runs the
    groups.
    """
    # small keys sort by radix
    order = np.argsort(
        key.astype(np.uint16) if len(free) <= 1 << 16 else key, kind="stable"
    )
    out[order] = _scan(x[order], b[order], key[order], free)


def _scan(x: np.ndarray, b: np.ndarray, k: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Segmented max-plus scan ``y_i = max(y_prev, x_i) + b_i``.

    Rows come grouped by their non-decreasing key ``k``; a key's first
    row starts from ``free[k]``, which advances to the key's last
    ``y``.  With ``T`` the running sum of ``b`` the recurrence unrolls to
    ``y_i = T_i + max_j(x_j - T_(j-1))`` over the key's rows ``j <= i``
    (the key's first row also offering ``free[k]``).  One global
    running maximum serves every key: lifting key ``k`` by ``k`` times
    the value spread keeps keys apart, as in
    :func:`repro.ssd.segments.merge_sorted`.
    """
    n = len(k)
    total = np.cumsum(b, dtype=np.int64)
    before = total - b
    v = x - before
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(k[1:], k[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    kh = k[heads]
    v[heads] = np.maximum(x[heads], free[kh]) - before[heads]
    spread = int(v.max()) - int(v.min()) + 1
    if (int(k[-1]) + 1) * spread >= 2**62:  # pragma: no cover - astronomic timestamps
        raise OverflowError("timeline span too large for the block scan")
    lift = k * spread
    y = np.maximum.accumulate(v + lift) - lift + total
    tails = np.empty_like(heads)
    tails[:-1] = heads[1:] - 1
    tails[-1] = n - 1
    free[kh] = y[tails]
    return y


def block_recurrence(
    res: FlatResources,
    arrival: np.ndarray,
    lane: np.ndarray,
    unit: np.ndarray,
    cell_ns: np.ndarray,
    fb: np.ndarray,
    hb: np.ndarray,
    cmd: np.ndarray,
) -> np.ndarray:
    """:func:`recurrence` over one READ block of each of many lanes.

    The rows are the blocks concatenated, lanes ascending: row ``i``
    belongs to lane ``lane[i]`` and arrives at ``arrival[i]``.  A block
    is consecutive rows of one command with no plane unit twice, so
    every row's register wait reads the state from before the step; the
    die, package, channel and host timelines are then four segmented
    max-plus scans (:func:`_scan`), exact in int64 whatever the
    columns' integer dtype.  ``unit`` is lane-local; ``res``'s tables
    give its die, package and channel.  Returns the rows' cell,
    flash-bus, channel and host ends as the rows of one int64
    ``(4, rows)`` array and advances ``res``; the starts are the ends
    less the durations.
    """
    ends = np.empty((4, len(unit)), dtype=np.int64)
    c_end, f_end, s_end, h_end = ends
    unit_k = unit + res.unit0[lane]
    x = np.maximum(arrival, res.plane_free[unit_k])
    _chain(x, cell_ns, res.die_of[unit_k], res.die_free, c_end)
    _chain(c_end, fb, res.pkg_of[unit_k], res.pkg_free, f_end)
    busy = np.add(cmd, fb, dtype=np.int64)
    _chain(f_end, busy, res.chan_of[unit_k], res.chan_free, s_end)
    res.plane_free[unit_k] = s_end  # registers drain with the bus
    h_end[:] = _scan(s_end, hb, lane, res.host_free)
    return ends


# ----------------------------------------------------------------------
# lockstep replay: many lanes through the block kernel
#
# A *lane* is one replay of READ rows of the step inputs
# (:class:`StepCols`) on one link: a planned cell's
# ``main`` or ``peak`` lane, whose commands come from the controller's
# :func:`~repro.ssd.controller.dispatch`, or a pattern-peak lane, one
# command of all its rows arriving at 0.  :func:`lockstep` advances
# every lane one block per step through :func:`block_recurrence`, the
# lanes' resource state side by side in one :class:`FlatResources`.
# When a lane's command ends, its completion goes back to the lane's
# command source, which answers with the next command's rows and
# arrival; when the source runs out, the lane leaves the lockstep and
# hands its recorded ends to its ``done`` hook.  Vectorizing pays only
# with width: once a step has fewer than :data:`BREAK_EVEN_ROWS` rows,
# every remaining lane finishes on the scalar :func:`recurrence`.  Both
# kernels compute the same int64 timeline, so the switch point never
# shows in a result.

#: a step narrower than this many rows sends every remaining lane to
#: the scalar recurrence: below it the per-step numpy overhead costs
#: more than the rows' Python loop (measured break-even ~512 rows on a
#: 2-vCPU x86 host, for one cell's lanes and for the whole matrix)
BREAK_EVEN_ROWS = 512

#: a lane's command source: yields ``(lo, hi, arrival)`` windows of the
#: lane's rows and is sent each window's completion
Commands = Generator[tuple[int, int, int], int, None]


@dataclass
class Lane:
    """One replay that :func:`lockstep` steps."""

    geom: Geometry
    #: the interface whose bus, host and command times the rows pay
    link: Link
    #: the lane's rows are ``lo:lo + n`` of the inputs
    lo: int
    n: int
    commands: Commands
    #: a lane with a hook records its rows' cell, flash-bus, channel and
    #: host ends, in replay order, and its commands must cover each of
    #: its rows once; the hook receives them as an int64 ``(4, n)``
    #: array as soon as the command source is exhausted, while the
    #: other lanes go on, and :func:`lockstep` keeps no reference to
    #: them after
    done: Optional[Callable[[np.ndarray], None]] = None


def _next_window(commands: Commands, done: Optional[int]):
    """The source's next non-empty window after sending ``done``
    (``None`` starts it); an empty one completes at its arrival."""
    try:
        lo, hi, arrival = next(commands) if done is None else commands.send(done)
        while hi <= lo:
            lo, hi, arrival = commands.send(arrival)
    except StopIteration:
        return None
    return lo, hi, arrival


def _lane_block_ends(unit: np.ndarray, lanes: Sequence[Lane]) -> np.ndarray:
    """:func:`block_ends` over each lane's rows, in input row numbers.

    Each distinct lane row range gets its own call, so no transient
    spans all of ``unit``.  A row's end depends only on the rows from it
    on, and a block also stops at its command's end, which never passes
    the lane's last row: so the blocks are the ones the whole input
    gives.  (Partly overlapping ranges, which no caller makes, would
    only cut some blocks short.)  Rows no lane covers stay unset.
    """
    stop = np.empty(len(unit), dtype=np.int32 if len(unit) < 2**31 else np.int64)
    for lo, hi in sorted({(lane.lo, lane.lo + lane.n) for lane in lanes}):
        stop[lo:hi] = block_ends(unit[lo:hi])
        stop[lo:hi] += lo
    return stop


def lockstep(inputs: StepCols, lanes: Sequence[Lane]) -> None:
    """Replay every lane to the end of its command source.

    ``inputs`` hold every lane's rows; lane rows must be READs.  Each
    lane with a ``done`` hook records its rows' cell, flash-bus, channel
    and host ends in replay order into a buffer of its own, one slice
    copy per block step, and its hook receives the buffer the moment
    its commands run out, in the block loop or after its scalar tail.
    Blocks are found over each lane's row range, never over all of
    ``inputs`` at once.
    """
    n_lanes = len(lanes)
    res = FlatResources([lane.geom for lane in lanes])
    # each lane's link constants, as float64, float64 and int64 columns
    bus, host, cmd_ns = np.array([lane.link for lane in lanes]).reshape(-1, 3).T
    cmd_ns = cmd_ns.astype(np.int64)
    pos = np.zeros(n_lanes, dtype=np.int64)  # next row of the inputs
    hi = np.zeros(n_lanes, dtype=np.int64)  # current command's end
    arrival = np.zeros(n_lanes, dtype=np.int64)
    comp = np.zeros(n_lanes, dtype=np.int64)  # current command's completion

    # the recording lanes' end buffers, dropped as each is handed over
    ends = {
        k: np.empty((4, lane.n), dtype=np.int64)
        for k, lane in enumerate(lanes) if lane.done is not None
    }
    rec = np.array([lane.done is not None for lane in lanes], dtype=bool)
    at = np.zeros(n_lanes, dtype=np.int64)  # rows recorded so far

    def retire(k: int) -> None:
        done = lanes[k].done
        if done is not None:
            done(ends.pop(k))

    def start(k: int, window) -> bool:
        if window is None:
            retire(k)
            return False
        lo, end, arr = window
        pos[k] = lanes[k].lo + lo
        hi[k] = lanes[k].lo + end
        arrival[k] = comp[k] = arr
        return True

    live = np.array(
        [k for k, lane in enumerate(lanes) if start(k, _next_window(lane.commands, None))],
        dtype=np.int64,
    )
    # a block holds at most one row per plane unit: decide on the bound
    # before building any block structure, so narrow batches pay nothing
    units = np.array([lane.geom.plane_units for lane in lanes], dtype=np.int64)
    if live.size and int(np.minimum(hi - pos, units)[live].sum()) >= BREAK_EVEN_ROWS:
        stop = _lane_block_ends(inputs.unit, lanes)
        while live.size:
            s = pos[live]
            e = np.minimum(stop[s], hi[live])
            rows = e - s
            width = int(rows.sum())
            if width < BREAK_EVEN_ROWS:
                break
            first = np.cumsum(rows) - rows
            idx = np.repeat(s - first, rows) + np.arange(width, dtype=np.int64)
            row_lane = np.repeat(live, rows)
            fb, hb, cmd = link_times(
                inputs.nbytes[idx], inputs.shared[idx],
                bus[row_lane], host[row_lane], cmd_ns[row_lane],
            )
            out = block_recurrence(
                res, arrival[row_lane], row_lane, inputs.unit[idx], inputs.cell_ns[idx],
                fb, hb, cmd,
            )
            r = rec[live]
            if r.any():
                kept, kept_rows = live[r], rows[r]
                for k, f, n, a in zip(
                    kept.tolist(), first[r].tolist(), kept_rows.tolist(),
                    at[kept].tolist(),
                ):
                    ends[k][:, a : a + n] = out[:, f : f + n]
                at[kept] += kept_rows
            comp[live] = np.maximum(comp[live], out[3, first + rows - 1])
            pos[live] = e
            ended = e == hi[live]
            if ended.any():
                alive = np.ones(live.size, dtype=bool)
                for j in np.flatnonzero(ended).tolist():
                    k = int(live[j])
                    alive[j] = start(k, _next_window(lanes[k].commands, int(comp[k])))
                live = live[alive]

    for k in live.tolist():
        _finish_scalar(inputs, lanes[k], res.lane(k),
                       int(pos[k]), int(hi[k]), int(arrival[k]), int(comp[k]),
                       ends.get(k), int(at[k]))
        retire(k)


def _finish_scalar(
    inputs: StepCols, lane: Lane, res, lo: int, hi: int, arrival: int, comp: int,
    buf: Optional[np.ndarray], at: int,
) -> None:
    """Replay the rest of ``lane`` on the scalar recurrence.

    The lane's current command runs from input row ``lo`` to ``hi``,
    with its completion so far ``comp``; the rows' ends land in ``buf``
    (when the lane records) after the ``at`` rows recorded already.
    The lane's rows are derived once, as a block step derives them;
    each command's rows become Python lists only when it comes up, so
    the rows the block kernel replayed are never converted (a
    multi-client lane's later commands may lie below its current one).
    """
    die_of, pkg_of, chan_of = unit_ids(lane.geom)
    rows = slice(lane.lo, lane.lo + lane.n)
    unit = inputs.unit[rows]
    cols = (
        unit, die_of[unit], pkg_of[unit], chan_of[unit], inputs.cell_ns[rows],
        *link_times(inputs.nbytes[rows], inputs.shared[rows], *lane.link),
    )
    out = None if buf is None else [[0] * (lane.n - at) for _ in range(4)]
    lo -= lane.lo
    hi -= lane.lo
    k = 0
    while True:
        window = ([OpCode.READ] * (hi - lo), *(col[lo:hi].tolist() for col in cols))
        comp = max(comp, recurrence(window, 0, hi - lo, arrival, res, out, k))
        k += hi - lo
        nxt = _next_window(lane.commands, comp)
        if nxt is None:
            break
        lo, hi, arrival = nxt
        comp = arrival
    if buf is not None:
        buf[:, at : at + k] = [vals[:k] for vals in out]


class TransactionScheduler:
    """Greedy list scheduler over the SSD's resource timelines."""

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
        self.res = Resources(geometry)
        self._media = MediaConsts.of(geometry, self.kind)
        self._link = Link.of(bus, host)
        #: each submitted transaction block's pre-pass
        self._chunks: list[LaneCols] = []
        #: (req, client, kind code, arrival, lo, hi) per submitted
        #: command; lo:hi index the concatenated chunks
        self._meta: list[tuple[int, int, int, int, int, int]] = []
        #: the recurrence's four interval-end columns
        self._ends: list[list[int]] = [[], [], [], []]
        self._n = 0

    # ------------------------------------------------------------------
    def submit(
        self,
        txns: np.ndarray,
        arrival: int,
        req_id: int,
        client: int = 0,
        kind_label: str = "data",
    ) -> int:
        """Schedule the transactions of one block request.

        ``txns`` is the request's int64 ``(n, 5)`` transaction block
        (:data:`~repro.ssd.ftl.TXN_COLUMNS`).  Returns the request's
        completion time: for reads, when the last byte has crossed the
        host path; for writes/erases, when the media operation is
        durable.
        """
        if arrival < 0:
            raise ValueError("negative arrival")
        n = len(txns)
        if n == 0:
            return arrival
        chunk = prepass(self._media, self._link, *txns.T)
        self._chunks.append(chunk)
        zeros = [0] * n
        for col in self._ends:
            col.extend(zeros)
        lo = self._n
        completion = recurrence(chunk.lists(), 0, n, arrival, self.res, self._ends, lo)
        self._meta.append(
            (req_id, client, KIND_CODES.get(kind_label, 0), arrival, lo, lo + n)
        )
        self._n += n
        return completion

    # ------------------------------------------------------------------
    def finish(self) -> TxnLog:
        """The columnar log of every replayed row, in replay order."""
        # the blocks' pre-passes become one, which later submits extend:
        # the blocks are freed before the log is built
        self._chunks = [LaneCols(**{
            f.name: np.concatenate(
                [getattr(chunk, f.name) for chunk in self._chunks]
                or [np.empty(0, dtype=np.int64)]  # nothing submitted
            )
            for f in fields(LaneCols)
        })]
        return assemble_log(self._chunks[0], self._meta, self._ends)

    @property
    def n_txns(self) -> int:
        return self._n


def assemble_log(
    lane: LaneCols,
    meta: Sequence[tuple[int, int, int, int, int, int]],
    ends: Sequence[Union[Sequence[int], np.ndarray]],
) -> TxnLog:
    """The 23-column log of a lane's replayed commands, in replay order.

    ``meta`` holds one (req, client, kind code, arrival, lo, hi) tuple
    per replayed command, whose rows are ``lo:hi`` of ``lane``.
    ``ends`` are the replayed rows' cell, flash-bus, channel and host
    ends in log order (what :func:`recurrence` writes and a
    :class:`Lane`'s hook receives); each start is its end less the
    row's duration there, but for an erase, whose flash-bus, channel
    and host intervals are empty at its cell end.  The gathered rows
    are widened to int64, whatever the lane's dtypes.
    """
    meta_a = np.asarray(meta, dtype=np.int64).reshape(-1, 6)
    lens = meta_a[:, 5] - meta_a[:, 4]
    n = int(lens.sum())
    # lane row of each log row, in replay order
    idx = np.repeat(meta_a[:, 4] - (np.cumsum(lens) - lens), lens)
    idx += np.arange(n, dtype=np.int64)

    def gather(col: np.ndarray) -> np.ndarray:
        return col[idx].astype(np.int64, copy=False)

    cols = {name: gather(getattr(lane, col)) for name, col in _ROW_COLS.items()}
    for j, name in enumerate(("req", "client", "kind_code", "arrival")):
        cols[name] = np.repeat(meta_a[:, j], lens)
    # an erase holds only its die: its flash-bus, channel and host
    # intervals are empty at its cell end, whatever it would move
    moves = cols["op"] != OpCode.ERASE
    busy = [gather(col) for col in (lane.cell_ns, lane.fb, lane.cmd, lane.hb)]
    for b in busy[1:]:
        b *= moves
    busy[2] += busy[1]  # the channel carries the command cycles and the data
    # each duration array becomes its start, in place
    for name, end, b in zip(("cell", "fb", "ch", "h"), ends, busy):
        end = np.asarray(end, dtype=np.int64)
        cols[f"{name}_start"] = np.subtract(end, b, out=b)
        cols[f"{name}_end"] = end
    # reads complete on the media with the channel transfer and for
    # the requester with the host transfer; writes and erases with
    # the cell operation
    is_read = cols["op"] == OpCode.READ
    cols["media_done"] = np.where(is_read, cols["ch_end"], cols["cell_end"])
    cols["done"] = np.where(is_read, cols["h_end"], cols["cell_end"])
    return TxnLog({name: cols[name] for name in LOG_COLUMNS})
