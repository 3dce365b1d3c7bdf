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
  A planner that replays many devices pre-passes each device's rows on
  its own and copies the columns :func:`lockstep` reads
  (:class:`StepCols`) into its stacked bases.
* :func:`recurrence` is the irreducibly sequential resource-timeline
  recurrence, a scalar loop over plain ints for READ/WRITE/ERASE rows.
  :func:`block_recurrence` is the same recurrence for READ rows, one
  *block* (:func:`block_ends`) of each of many lanes per call, as
  segmented max-plus scans in numpy; :func:`lockstep` steps many
  lanes through it side by side (the batch backend's planned cells),
  and steps every all-READ pattern peak of :mod:`repro.ssd.metrics`.

:class:`TransactionScheduler` pre-passes each submitted command's
transaction block (the FTL's int64 ``(n, 5)`` columns,
:data:`~repro.ssd.ftl.TXN_COLUMNS`) as is, or takes a :class:`TxnSlice`
window of rows a planner already pre-passed; either way it runs the same
recurrence.  :meth:`TransactionScheduler.finish` builds the 23-column
log from the submitted blocks' pre-passed columns, concatenated, or
from one gather of the planner's lane (:func:`assemble_log`, which the
lockstep replay shares).  The media pattern peak of a log with writes
(:func:`repro.ssd.metrics.media_pattern_peak`) calls the two halves
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Generator, NamedTuple, Optional, Sequence, Union

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
    "TxnSlice",
    "FlatResources",
    "assemble_log",
    "block_ends",
    "block_recurrence",
    "lockstep",
    "prepass",
    "recurrence",
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

#: log columns of :func:`recurrence`'s ``out``, in its order
_BOUND_COLS = (
    "cell_start", "cell_end", "fb_start", "fb_end",
    "ch_start", "ch_end", "h_start", "h_end",
)

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
    """The pre-passed per-row columns :func:`lockstep` reads.

    ``unit`` .. ``cell_ns`` depend only on the transactions and the
    media, so every link's lane of one stream shares them;
    ``fb``/``hb``/``cmd`` carry one link's bus, host and
    command-overhead arithmetic.  Any integer dtype whose values fit
    will do (a planner's stacked bases are int32, and a column may be a
    zero-stride view): :func:`lockstep` sums and keeps its timelines in
    int64.
    """

    unit: np.ndarray
    die: np.ndarray
    pkg: np.ndarray
    chan: np.ndarray
    cell_ns: np.ndarray
    fb: np.ndarray
    hb: np.ndarray
    cmd: np.ndarray

    def window(self, rows: slice):
        """Views of ``rows`` of every column."""
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


@dataclass
class LaneCols(StepCols):
    """Every pre-passed per-row column of one scheduler lane: the
    :class:`StepCols` and the transactions' own row columns, which the
    scalar :func:`recurrence` (``op``) and the log read.
    :func:`assemble_log` gives the log its lane's row-column dtypes, so
    the lanes it reads are int64."""

    op: np.ndarray
    flat: np.ndarray
    nbytes: np.ndarray
    group: np.ndarray
    pib: np.ndarray
    plane: np.ndarray

    def lists(self) -> tuple[list[int], ...]:
        """The :func:`recurrence` columns as Python lists."""
        return tuple(getattr(self, name).tolist() for name in _RECURRENCE_COLS)


class TxnSlice:
    """Rows ``lo:hi`` of a pre-passed lane: one command's transactions."""

    __slots__ = ("lane", "lo", "hi")

    def __init__(self, lane: LaneCols, lo: int, hi: int):
        self.lane = lane
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo


def prepass(
    media: MediaConsts,
    links: Sequence[Link],
    op: np.ndarray,
    flat: np.ndarray,
    nbytes: np.ndarray,
    group: np.ndarray,
    pib: np.ndarray,
    same_cmd: Optional[np.ndarray] = None,
) -> list[LaneCols]:
    """Every per-row timing input of a transaction stream, one lane per link.

    The lanes share the decode and latency columns.  A row rides the
    command/address cycles of the row before it (``cmd`` 0) when both
    belong to one multi-plane group — and, if ``same_cmd`` is given, to
    one command (equal keys).
    """
    u = flat % media.U
    plane = u % media.P
    rest = u // media.P
    chan = rest % media.C
    rest = rest // media.C
    pkg = rest // media.D + media.K * chan
    die = rest % media.D + media.D * pkg
    cell_ns = media.lat[media.lat_base[op] + pib % media.lat_len[op]]

    shared = np.zeros(len(op), dtype=bool)
    if len(op) > 1:
        shared[1:] = (group[1:] >= 0) & (group[1:] == group[:-1])
        if same_cmd is not None:
            shared[1:] &= same_cmd[1:] == same_cmd[:-1]

    return [
        LaneCols(
            op=op,
            flat=flat,
            nbytes=nbytes,
            group=group,
            pib=pib,
            unit=u,
            plane=plane,
            chan=chan,
            pkg=pkg,
            die=die,
            cell_ns=cell_ns,
            fb=(nbytes * link.bus_ns_per_byte).astype(np.int64),
            hb=(nbytes * link.host_ns_per_byte).astype(np.int64),
            cmd=np.where(shared, 0, link.cmd_ns),
        )
        for link in links
    ]


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
    out: Optional[list[list[int]]] = None,
    at: int = 0,
) -> int:
    """Schedule rows ``lo:hi`` of ``cols`` (:meth:`LaneCols.lists`).

    Every row arrives at ``arrival``; ``res`` advances in place.  With
    ``out``, the k-th row's interval bounds — cell, flash bus, channel
    and host, start then end — land at index ``at + k`` of the eight
    ``out`` lists.  Returns the latest completion: host transfer end
    for reads, media completion for writes and erases.
    """
    op_l, unit_l, die_l, pkg_l, chan_l, cell_l, fb_l, hb_l, cmd_l = cols
    chan_free = res.chan_free
    pkg_free = res.pkg_free
    die_free = res.die_free
    plane_free = res.plane_free
    host_free = res.host_free
    record = out is not None
    if out is not None:
        cs_l, ce_l, fs_l, fe_l, ss_l, se_l, hs_l, he_l = out
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
            f_start = f_end = s_start = s_end = h_start = h_end = c_end
            if c_end > completion:
                completion = c_end

        if record:
            cs_l[k] = c_start
            ce_l[k] = c_end
            fs_l[k] = f_start
            fe_l[k] = f_end
            ss_l[k] = s_start
            se_l[k] = s_end
            hs_l[k] = h_start
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
        key = unit.astype(np.uint16) if int(unit.max()) < 1 << 16 else unit
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
    advances every lane at once.
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


def _chain(x: np.ndarray, b: np.ndarray, key: np.ndarray, free: np.ndarray) -> np.ndarray:
    """One resource of the READ recurrence over rows in submission order.

    Row ``i`` starts at ``max(x_i, end of the previous row on key_i)``
    and holds the resource ``b_i`` ns; the first row on a key waits for
    ``free[key]``.  Returns every row's end and advances ``free``.  A
    stable sort groups the rows by key, keeping each key's rows in
    submission order, and :func:`_scan` runs the groups.
    """
    # small keys sort by radix
    order = np.argsort(
        key.astype(np.uint16) if len(free) <= 1 << 16 else key, kind="stable"
    )
    y = _scan(x[order], b[order], key[order], free)
    out = np.empty_like(y)
    out[order] = y
    return out


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
    lanes: np.ndarray,
    rows: np.ndarray,
    unit: np.ndarray,
    die: np.ndarray,
    pkg: np.ndarray,
    chan: np.ndarray,
    cell_ns: np.ndarray,
    fb: np.ndarray,
    hb: np.ndarray,
    cmd: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`recurrence` over one READ block of each of many lanes.

    The rows are the blocks concatenated, lane by lane: block ``j``
    belongs to lane ``lanes[j]`` and has ``rows[j]`` rows.  A block is
    consecutive rows of one command with no plane unit twice, so every
    row's register wait reads the state from before the step; the die,
    package, channel and host timelines are then four segmented
    max-plus scans (:func:`_scan`), exact in int64 whatever the
    columns' integer dtype.  ``lanes`` must be distinct and ascending,
    ``unit`` .. ``chan`` are the lane-local ids and ``arrival`` is per
    row.  Returns the rows' cell, flash-bus, channel and host ends and
    advances ``res``; the starts are the ends less the durations.
    """
    lane = np.repeat(lanes, rows)
    unit_k = unit + res.unit0[lane]
    x = np.maximum(arrival, res.plane_free[unit_k])
    c_end = _chain(x, cell_ns, die + res.die0[lane], res.die_free)
    f_end = _chain(c_end, fb, pkg + res.pkg0[lane], res.pkg_free)
    busy = np.add(cmd, fb, dtype=np.int64)
    s_end = _chain(f_end, busy, chan + res.chan0[lane], res.chan_free)
    res.plane_free[unit_k] = s_end  # registers drain with the bus
    h_end = _scan(s_end, hb, lane, res.host_free)
    return c_end, f_end, s_end, h_end


# ----------------------------------------------------------------------
# lockstep replay: many lanes through the block kernel
#
# A *lane* is one replay of pre-passed READ rows: a planned cell's
# ``main`` or ``peak`` lane, whose commands come from the controller's
# :func:`~repro.ssd.controller.dispatch`, or a pattern-peak lane, one
# command of all its rows arriving at 0.  :func:`lockstep` advances
# every lane one block per step through :func:`block_recurrence`, the
# lanes' resource state side by side in one :class:`FlatResources`.
# When a lane's command ends, its completion goes back to the lane's
# command source, which answers with the next command's rows and
# arrival.  Vectorizing pays only with width: once a step has fewer
# than :data:`BREAK_EVEN_ROWS` rows, every remaining lane finishes on
# the scalar :func:`recurrence`.  Both kernels compute the same int64
# timeline, so the switch point never shows in a result.

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
    #: the base whose bus, host and command columns the lane reads
    link: int
    #: the lane's rows are ``lo:lo + n`` of the bases
    lo: int
    n: int
    commands: Commands
    #: keep the rows' interval ends (in replay order) in ``ends``; the
    #: commands of a recording lane must cover each of its rows once
    record: bool = False
    ends: list[np.ndarray] = field(default_factory=list)


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


def lockstep(bases: Sequence[StepCols], lanes: Sequence[Lane]) -> None:
    """Replay every lane to the end of its command source.

    ``bases`` share every column but ``fb``/``hb``/``cmd`` (one stream's
    :func:`~repro.ssd.scheduler.prepass` lanes, or just the columns
    this replay reads of them); lane rows must be READs.  A recording
    lane's ``ends`` become its rows' cell, flash-bus, channel and host
    ends in replay order.
    """
    static = bases[0]
    assert all(b.unit is static.unit and b.cell_ns is static.cell_ns for b in bases)
    lanes = sorted(lanes, key=lambda lane: lane.link)  # one base's rows together
    n_lanes = len(lanes)
    res = FlatResources([lane.geom for lane in lanes])
    link = np.array([lane.link for lane in lanes], dtype=np.int64)
    pos = np.zeros(n_lanes, dtype=np.int64)  # next row, in base rows
    hi = np.zeros(n_lanes, dtype=np.int64)  # current command's end
    arrival = np.zeros(n_lanes, dtype=np.int64)
    comp = np.zeros(n_lanes, dtype=np.int64)  # current command's completion

    rec = np.array([lane.record for lane in lanes], dtype=bool)
    sizes = np.array([lane.n if lane.record else 0 for lane in lanes], dtype=np.int64)
    log0 = np.cumsum(sizes) - sizes
    at = np.zeros(n_lanes, dtype=np.int64)  # rows recorded so far
    rec_cols = [np.empty(int(sizes.sum()), dtype=np.int64) for _ in range(4)]
    for k, lane in enumerate(lanes):
        if lane.record:
            lane.ends = [col[log0[k] : log0[k] + lane.n] for col in rec_cols]

    def start(k: int, window) -> bool:
        if window is None:
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
        ends = block_ends(static.unit)
        while live.size:
            s = pos[live]
            e = np.minimum(ends[s], hi[live])
            rows = e - s
            width = int(rows.sum())
            if width < BREAK_EVEN_ROWS:
                break
            first = np.cumsum(rows) - rows
            steps = np.arange(width, dtype=np.int64)
            idx = np.repeat(s - first, rows) + steps
            if len(bases) == 1:
                fb, hb, cmd = static.fb[idx], static.hb[idx], static.cmd[idx]
            else:  # the bus, host and command columns, base by base
                bounds = np.append(first, width)
                cuts = bounds[np.searchsorted(link[live], np.arange(1, len(bases)))]
                parts = np.split(idx, cuts)
                fb, hb, cmd = (
                    np.concatenate([getattr(b, name)[p] for b, p in zip(bases, parts)])
                    for name in ("fb", "hb", "cmd")
                )
            c_end, f_end, s_end, h_end = block_recurrence(
                res,
                np.repeat(arrival[live], rows),
                live,
                rows,
                static.unit[idx],
                static.die[idx],
                static.pkg[idx],
                static.chan[idx],
                static.cell_ns[idx],
                fb,
                hb,
                cmd,
            )
            r = rec[live]
            if r.any():
                keep = np.repeat(r, rows)
                dest = (np.repeat(log0[live] + at[live] - first, rows) + steps)[keep]
                for col, val in zip(rec_cols, (c_end, f_end, s_end, h_end)):
                    col[dest] = val[keep]
                at[live] += rows
            comp[live] = np.maximum(comp[live], h_end[first + rows - 1])
            pos[live] = e
            ended = e == hi[live]
            if ended.any():
                alive = np.ones(live.size, dtype=bool)
                for j in np.flatnonzero(ended).tolist():
                    k = int(live[j])
                    alive[j] = start(k, _next_window(lanes[k].commands, int(comp[k])))
                live = live[alive]

    for k in live.tolist():
        _finish_scalar(bases[lanes[k].link], lanes[k], res.lane(k),
                       int(pos[k]), int(hi[k]), int(arrival[k]), int(comp[k]),
                       int(at[k]))


def _finish_scalar(
    base: StepCols, lane: Lane, res, lo: int, hi: int, arrival: int, comp: int, at: int
) -> None:
    """Replay the rest of ``lane`` on the scalar recurrence.

    The lane's current command runs from base row ``lo`` to ``hi``, with
    its completion so far ``comp``; ``at`` rows are recorded already.
    Each command's rows become Python lists only when it comes up, so
    the rows the block kernel replayed are never converted (a
    multi-client lane's later commands may lie below its current one).
    """
    cols = [getattr(base, name) for name in _RECURRENCE_COLS[1:]]
    ends: list[list[int]] = []
    out = None
    if lane.record:
        # the four starts are never read back: one scratch list takes them
        scratch = [0] * (lane.n - at)
        ends = [[0] * (lane.n - at) for _ in range(4)]
        out = [lst for end in ends for lst in (scratch, end)]
    k = 0
    while True:
        rows = ([OpCode.READ] * (hi - lo), *(col[lo:hi].tolist() for col in cols))
        comp = max(comp, recurrence(rows, 0, hi - lo, arrival, res, out, k))
        k += hi - lo
        window = _next_window(lane.commands, comp)
        if window is None:
            break
        lo, hi, arrival = window
        lo += lane.lo
        hi += lane.lo
        comp = arrival
    for col, vals in zip(lane.ends, ends):
        col[at : at + k] = vals[:k]


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
        self._links = (Link.of(bus, host),)
        #: the planner's lane that submitted slices index (None for
        #: transaction-block submits) and its recurrence lists
        self._lane: Optional[LaneCols] = None
        self._lane_lists: tuple[list[int], ...] = ()
        #: the log's row columns (:data:`_ROW_COLS`) of each submitted
        #: transaction block's pre-pass, stacked: one array per block
        self._chunks: list[np.ndarray] = []
        #: (req, client, kind code, arrival, lo, hi) per submitted
        #: command; lo:hi index the lane, or the concatenated chunks
        self._meta: list[tuple[int, int, int, int, int, int]] = []
        #: the recurrence's eight interval-bound columns, preallocated
        self._out: list[list[int]] = [[] for _ in range(8)]
        self._n = 0

    def _bind(self, lane: LaneCols) -> tuple[list[int], ...]:
        if lane is not self._lane:
            if self._lane is not None or self._chunks:
                raise ValueError("one scheduler replays rows of one lane only")
            self._lane = lane
            self._lane_lists = lane.lists()
        return self._lane_lists

    def _reserve(self, extra: int) -> None:
        """Grow the interval-bound lists to hold ``extra`` more rows."""
        have = len(self._out[0])
        need = self._n + extra
        if need > have:
            grow = [0] * max(need - have, have)
            for col in self._out:
                col.extend(grow)

    # ------------------------------------------------------------------
    def submit(
        self,
        txns: Union[np.ndarray, TxnSlice],
        arrival: int,
        req_id: int,
        client: int = 0,
        kind_label: str = "data",
    ) -> int:
        """Schedule the transactions of one block request.

        ``txns`` is the request's int64 ``(n, 5)`` transaction block
        (:data:`~repro.ssd.ftl.TXN_COLUMNS`), or a :class:`TxnSlice` of
        a lane pre-passed by a planner.  Returns the request's
        completion time: for reads, when the last byte has crossed the
        host path; for writes/erases, when the media operation is
        durable.
        """
        if arrival < 0:
            raise ValueError("negative arrival")
        if isinstance(txns, TxnSlice):
            lo, hi = txns.lo, txns.hi
            if hi <= lo:
                return arrival
            cols = self._bind(txns.lane)
            rows = (lo, hi)
        else:
            if self._lane is not None:
                raise ValueError("one scheduler replays rows of one lane only")
            n = len(txns)
            if n == 0:
                return arrival
            (chunk,) = prepass(self._media, self._links, *txns.T)
            self._chunks.append(
                np.stack([getattr(chunk, col) for col in _ROW_COLS.values()])
            )
            cols = chunk.lists()
            lo, hi = 0, n
            rows = (self._n, self._n + n)

        self._reserve(hi - lo)
        completion = recurrence(cols, lo, hi, arrival, self.res, self._out, self._n)
        self._meta.append(
            (req_id, client, KIND_CODES.get(kind_label, 0), arrival, *rows)
        )
        self._n += hi - lo
        return completion

    # ------------------------------------------------------------------
    def finish(self) -> TxnLog:
        """The columnar log of every replayed row, in replay order."""
        n = self._n
        bounds = [out[:n] for out in self._out]
        if self._lane is not None or n == 0:
            return assemble_log(self._lane, self._meta, bounds)
        # transaction blocks replay in submission order, so the log's
        # row columns are the pre-passed chunks' columns, concatenated
        rows = dict(zip(_ROW_COLS, np.concatenate(self._chunks, axis=1)))
        return _log_of(rows, *_meta_runs(self._meta), bounds)

    @property
    def n_txns(self) -> int:
        return self._n


def assemble_log(
    lane: Optional[LaneCols],
    meta: Sequence[tuple[int, int, int, int, int, int]],
    bounds: Sequence[Sequence[int]],
) -> TxnLog:
    """The 23-column log of replayed commands, in replay order.

    ``meta`` holds one (req, client, kind code, arrival, lo, hi) tuple
    per replayed command, whose rows are ``lo:hi`` of ``lane``.
    ``bounds`` are the replayed rows' interval bounds in log order:
    all eight of :func:`recurrence`'s ``out``, or for an all-READ log
    just the four ends (cell, flash bus, channel, host), whose starts
    follow from the rows' durations.
    """
    n = len(bounds[0])
    if n == 0:
        return TxnLog({name: np.empty(0, dtype=np.int64) for name in LOG_COLUMNS})
    assert lane is not None, "replayed rows need their lane"
    meta_a, lens = _meta_runs(meta)
    starts = np.cumsum(lens) - lens
    # lane row of each log row, in replay order
    idx = np.repeat(meta_a[:, 4] - starts, lens) + np.arange(n, dtype=np.int64)
    cols = {name: getattr(lane, col)[idx] for name, col in _ROW_COLS.items()}
    vals = [np.asarray(b, dtype=np.int64) for b in bounds]
    if len(vals) == 4:
        fb = lane.fb[idx]
        c_end, f_end, s_end, h_end = vals
        vals = [
            c_end - lane.cell_ns[idx], c_end, f_end - fb, f_end,
            s_end - lane.cmd[idx] - fb, s_end, h_end - lane.hb[idx], h_end,
        ]
    return _log_of(cols, meta_a, lens, vals)


def _meta_runs(
    meta: Sequence[tuple[int, int, int, int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """``meta`` as an int64 array, and each command's row count."""
    meta_a = np.asarray(meta, dtype=np.int64)
    return meta_a, meta_a[:, 5] - meta_a[:, 4]


def _log_of(
    cols: dict[str, np.ndarray],
    meta_a: np.ndarray,
    lens: np.ndarray,
    bounds: Sequence[Union[Sequence[int], np.ndarray]],
) -> TxnLog:
    """The log from its row columns (:data:`_ROW_COLS`), in log order,
    each command's meta and row count, and all eight interval bounds."""
    for j, name in enumerate(("req", "client", "kind_code", "arrival")):
        cols[name] = np.repeat(meta_a[:, j], lens)
    cols.update(zip(_BOUND_COLS, (np.asarray(b, dtype=np.int64) for b in bounds)))
    # reads complete on the media with the channel transfer and for
    # the requester with the host transfer; writes and erases with
    # the cell operation
    is_read = cols["op"] == OpCode.READ
    cols["media_done"] = np.where(is_read, cols["ch_end"], cols["cell_end"])
    cols["done"] = np.where(is_read, cols["h_end"], cols["cell_end"])
    return TxnLog({name: cols[name] for name in LOG_COLUMNS})
