"""Evaluation metrics over a transaction log.

Implements every quantity the paper's evaluation reports:

* **bandwidth achieved** (Figs 7a/8a): payload bytes over makespan, per
  client (the paper reports per-compute-node numbers),
* **bandwidth remaining** (Figs 7b/8b): what the media could still have
  delivered *under the observed access pattern* — we re-run the same
  transaction stream with no host/arrival constraints to find the
  pattern's media ceiling, then subtract what was achieved,
* **channel / package utilization** (Figs 9a/9b): the time-average
  fraction of channels (packages) with at least one transaction in
  flight, over the device-active window,
* **execution-time decomposition** (Figs 10a/10c): the six-way split
  into non-overlapped DMA, flash-bus activation, channel activation,
  cell contention, channel contention and cell activation.  Bus and
  cell categories use exclusive interval measures per channel (a bus
  beat hidden behind a concurrent cell operation is "free"); the two
  contention categories split the remaining in-flight-but-idle time in
  proportion to the summed per-transaction waits,
* **parallelism decomposition** (Figs 10b/10d): PAL1-PAL4 class per
  block request, weighted by bytes.

One stacked pass measures any number of logs at once
(:func:`compute_metrics_batch`); :func:`compute_metrics` is its
one-lane call, so every replay — the device's own and the batch
backend's planned cells — is measured by the same code.  The logs are
concatenated and every interval family is measured once, keyed by
dense (lane, resource) and (lane, request) ids via
:mod:`repro.ssd.segments`:

* each serial resource's intervals (cell time per die, flash bus per
  package, channel bus per channel, host link per lane) are coalesced
  once into runs of back-to-back intervals, split at request
  boundaries; every family reads those runs, and the channel families
  read the merged runs of the package sort, so each sort sees far
  fewer rows than the log has,
* union measures are exact int64 throughout; each exclusive measure
  ("cell activity not hidden by ...") is a difference of union
  measures, valid because each subtrahend family lies inside its
  minuend family (a transaction's cell, flash-bus and channel
  intervals lie within its own in-flight window),
* per-channel wait sums are float64 sums of exact integers far below
  2**53, so they do not depend on summation order,
* the inexact float arithmetic — the contention split, the breakdown
  normalization, bandwidth division and utilization ratios — runs per
  lane in a fixed order (channels ascending, BREAKDOWN_KEYS order), so
  a lane's numbers do not depend on the lanes beside it,
* the pattern peak re-schedules every all-READ lane's rows in one
  :func:`~repro.ssd.scheduler.lockstep` replay
  (:func:`pattern_peak_from_log`); a caller that discards
  :class:`RunMetrics` skips it (``pattern_peak=False``), as the batch
  backend does unless asked to keep them.

The per-resource interval pass these numbers were first defined by is
kept as the test oracle (``tests/oracles/metrics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..nvm.kinds import NVMKind
from .geometry import Geometry
from .request import OpCode
from .scheduler import (
    INFINITE_BUS,
    INFINITE_HOST,
    Commands,
    Lane,
    Link,
    MediaConsts,
    Resources,
    TxnLog,
    lockstep,
    prepass,
    recurrence,
)
from .segments import (
    coalesce,
    distinct_count,
    measure_sorted,
    merge_sorted,
    radix_order,
    sorted_filter,
    union_measure,
)

__all__ = [
    "RunMetrics",
    "compute_metrics",
    "compute_metrics_batch",
    "media_pattern_peak",
    "pattern_peak_from_log",
]

BREAKDOWN_KEYS = (
    "non_overlapped_dma",
    "flash_bus",
    "channel_bus",
    "cell_contention",
    "channel_contention",
    "cell",
)

PAL_KEYS = ("PAL1", "PAL2", "PAL3", "PAL4")


@dataclass
class RunMetrics:
    """All paper metrics for one configuration run."""

    payload_bytes: int
    makespan_ns: int
    bandwidth_bytes_per_sec: float
    client_bandwidth: dict[int, float] = field(default_factory=dict)
    pattern_peak_bytes_per_sec: float = 0.0
    remaining_bytes_per_sec: float = 0.0
    channel_utilization: float = 0.0
    package_utilization: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    parallelism: dict[str, float] = field(default_factory=dict)
    n_txns: int = 0
    n_requests: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    overhead_bytes: int = 0  # journal + metadata traffic

    @property
    def bandwidth_mb(self) -> float:
        return self.bandwidth_bytes_per_sec / 1e6

    @property
    def remaining_mb(self) -> float:
        return self.remaining_bytes_per_sec / 1e6

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.bandwidth_mb:8.1f} MB/s achieved, "
            f"{self.remaining_mb:8.1f} MB/s remaining, "
            f"chan {self.channel_utilization*100:5.1f}%, "
            f"pkg {self.package_utilization*100:5.1f}%"
        )


def _client_bandwidth(
    n_lanes: int,
    lane: np.ndarray,
    client: np.ndarray,
    nbytes: np.ndarray,
    arrival: np.ndarray,
    done: np.ndarray,
) -> list[dict[int, float]]:
    """Per-lane, per-client payload bandwidth of the data rows given.

    The rows are grouped by (lane, client) with one radix pass; each
    group's bytes, first arrival and last completion are exact int64.
    """
    out: list[dict[int, float]] = [{} for _ in range(n_lanes)]
    if len(lane) == 0:
        return out
    lo = int(client.min())
    width = int(client.max()) - lo + 1
    key = lane * width + (client - lo)
    order = radix_order(key, n_lanes * width)
    k = key[order]
    firsts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    groups = zip(
        k[firsts].tolist(),
        np.add.reduceat(nbytes[order], firsts).tolist(),
        np.minimum.reduceat(arrival[order], firsts).tolist(),
        np.maximum.reduceat(done[order], firsts).tolist(),
    )
    for g, nb, first, last in groups:
        span = last - first
        out[g // width][g % width + lo] = nb * 1e9 / span if span > 0 else 0.0
    return out


def media_pattern_peak(log: TxnLog, geom: Geometry, kind: NVMKind) -> float:
    """Media ceiling of the observed transaction pattern (bytes/sec).

    Re-schedules the identical transaction stream with all arrivals at
    zero and (effectively) infinite host and bus paths, so only the
    cell-level media resources constrain it.  This is the NVM-media
    headroom the paper's "bandwidth remaining" (Figs 7b/8b) measures
    against: media that "completes its requests faster and ends up
    idling" shows a large remainder.  The log's own columns are
    pre-passed and fed straight to the timing recurrence; only its
    completion time is kept.
    """
    n = len(log)
    if n == 0:
        return 0.0
    (lane,) = prepass(
        MediaConsts.of(geom, kind),
        (Link.of(INFINITE_BUS, INFINITE_HOST),),
        log["op"],
        log["flat"],
        log["nbytes"],
        log["group"],
        log["pib"],
    )
    end = recurrence(lane.lists(), 0, n, 0, Resources(geom))
    payload = int(log["nbytes"][log["kind_code"] == 0].sum())
    return payload * 1e9 / end if end > 0 else 0.0


def _open_loop(n: int, done: list[int]) -> Commands:
    """One command of all ``n`` rows arriving at 0; its completion
    lands in ``done``."""
    done.append((yield 0, n, 0))


def pattern_peak_from_log(
    items: Sequence[tuple[TxnLog, Geometry, NVMKind]],
) -> list[float]:
    """:func:`media_pattern_peak` of every lane.

    Each log's rows, pre-passed for the infinite interface, become one
    open-loop lane of a single :func:`~repro.ssd.scheduler.lockstep`
    replay; the block kernel computes the same timeline as the scalar
    recurrence.  A log holding anything but READs takes the scalar
    function.
    """
    peaks = [0.0] * len(items)
    stepped = []
    for i, (log, geom, kind) in enumerate(items):
        if len(log) == 0:
            continue
        if bool((log["op"] == OpCode.READ).all()):
            stepped.append(i)
        else:
            peaks[i] = media_pattern_peak(log, geom, kind)
    if not stepped:
        return peaks
    logs = [items[i][0] for i in stepped]
    lens = np.array([len(log) for log in logs], dtype=np.int64)
    cell = np.repeat(np.arange(len(logs), dtype=np.int64), lens)
    media = MediaConsts.stack(
        [MediaConsts.of(items[i][1], items[i][2]) for i in stepped], cell
    )
    (base,) = prepass(
        media,
        (Link.of(INFINITE_BUS, INFINITE_HOST),),
        *(np.concatenate([log[name] for log in logs])
          for name in ("op", "flat", "nbytes", "group", "pib")),
        same_cmd=cell,
    )
    done: list[list[int]] = [[] for _ in logs]
    offsets = (np.cumsum(lens) - lens).tolist()
    lockstep([base], [
        Lane(items[i][1], 0, off, len(log), _open_loop(len(log), out))
        for i, log, off, out in zip(stepped, logs, offsets, done)
    ])
    for i, log, (end,) in zip(stepped, logs, done):
        payload = int(log["nbytes"][log["kind_code"] == 0].sum())
        peaks[i] = payload * 1e9 / end if end > 0 else 0.0
    return peaks


def compute_metrics_batch(
    items: Sequence[tuple[TxnLog, Geometry, NVMKind]],
    pattern_peak: bool = True,
) -> list[RunMetrics]:
    """Derive :class:`RunMetrics` for every (log, geom, kind) lane.

    ``pattern_peak=False`` skips the pattern-peak replay, for callers
    that discard :class:`RunMetrics` and keep only the fields derived
    from the log itself; ``pattern_peak_bytes_per_sec`` and
    ``remaining_bytes_per_sec`` then read 0.
    """
    n_lanes = len(items)
    if n_lanes == 0:
        return []
    logs = [it[0] for it in items]
    lens = np.array([len(log) for log in logs], dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return [RunMetrics(0, 0, 0.0) for _ in items]
    pattern_peaks = pattern_peak_from_log(items) if pattern_peak else [0.0] * n_lanes

    def cat(name: str) -> np.ndarray:
        return np.concatenate([log[name] for log in logs if len(log)])

    lane_row = np.repeat(np.arange(n_lanes, dtype=np.int64), lens)
    chan = cat("channel")
    pkg = cat("package")
    die = cat("die")
    req = cat("req")
    client = cat("client")
    kind_code = cat("kind_code")
    nbytes = cat("nbytes")
    group = cat("group")
    op = cat("op")
    arrival = cat("arrival")
    cs, ce = cat("cell_start"), cat("cell_end")
    fs, fe = cat("fb_start"), cat("fb_end")
    ss, se = cat("ch_start"), cat("ch_end")
    hs, he = cat("h_start"), cat("h_end")
    md = cat("media_done")
    done = cat("done")

    # dense (lane, resource) and (lane, request) keys
    c_max = max(g.channels for _, g, _ in items)
    p_max = max(g.packages for _, g, _ in items)
    d_max = max(g.dies for _, g, _ in items)
    lane_chan = lane_row * c_max + chan
    lane_pkg = lane_row * p_max + pkg
    lane_die = lane_row * d_max + die
    n_ch_keys = n_lanes * c_max
    n_pk_keys = n_lanes * p_max
    n_die_keys = n_lanes * d_max
    req_counts = np.array(
        [int(log["req"].max()) + 1 if len(log) else 0 for log in logs],
        dtype=np.int64,
    )
    req_base = np.cumsum(req_counts) - req_counts
    lane_req = req + np.repeat(req_base, lens)
    n_req_keys = int(req_counts.sum())

    # every serial resource's intervals — cell time per die, flash bus
    # per package, channel bus per channel, host link per lane — merged
    # into runs once, split where the request changes so the request
    # family can read them too.  The recurrence emits them disjoint and
    # in row order, so back-to-back intervals collapse before any sort;
    # merging touching or overlapping intervals is exact in any order.
    cell_rows, _, cell_s, cell_e = coalesce(lane_die, cs, ce, n_die_keys, lane_req)
    fb_rows, _, fb_s, fb_e = coalesce(lane_pkg, fs, fe, n_pk_keys, lane_req)
    chb_rows, _, chb_s, chb_e = coalesce(lane_chan, ss, se, n_ch_keys, lane_req)
    host_rows, _, host_s, host_e = coalesce(lane_row, hs, he, n_lanes, lane_req)

    # union-measure families (all exact int64), built bottom-up.  A
    # package's busy time is the union of its dies' cell runs and its
    # flash-bus runs; one sort by (package, start) measures it and also
    # yields, as disjoint merged runs, the package's cell time and its
    # cell-or-flash-bus time.  A channel's cell, cell∪fb and
    # cell∪fb∪chb families are unions of those package runs (and its
    # own bus runs), so the channel sort sees far fewer rows.  Nested
    # families reuse one sort: a sorted subset stays sorted, so each is
    # a boolean filter over the already-sorted superset rows.
    n_cell = len(cell_rows)
    ids_p, kp, sp, ep = sorted_filter(
        lane_pkg[np.concatenate([cell_rows, fb_rows])],
        np.concatenate([cell_s, fb_s]),
        np.concatenate([cell_e, fb_e]),
    )
    cf_k, cf_s, cf_e = merge_sorted(kp, sp, ep)  # cell∪fb, per package
    m_pkg_busy = measure_sorted(cf_k, cf_s, cf_e, n_pk_keys)
    sub = ids_p < n_cell
    c_k, c_s, c_e = merge_sorted(kp[sub], sp[sub], ep[sub])  # cell, per package
    chan_of_pkg = np.zeros(n_pk_keys, dtype=np.int64)
    chan_of_pkg[lane_pkg] = lane_chan
    n_cf = len(cf_k)
    n_cf_chb = n_cf + len(chb_rows)
    ids3, k3, s3, e3 = sorted_filter(
        np.concatenate([chan_of_pkg[cf_k], lane_chan[chb_rows], chan_of_pkg[c_k]]),
        np.concatenate([cf_s, chb_s, c_s]),
        np.concatenate([cf_e, chb_e, c_e]),
    )
    sub = ids3 < n_cf_chb  # cell∪fb runs + channel-bus runs
    m_cell_fb_chb = measure_sorted(k3[sub], s3[sub], e3[sub], n_ch_keys)
    sub = ids3 < n_cf  # cell∪fb runs
    m_cell_fb = measure_sorted(k3[sub], s3[sub], e3[sub], n_ch_keys)
    sub = ids3 >= n_cf_chb  # cell runs
    m_cell = measure_sorted(k3[sub], s3[sub], e3[sub], n_ch_keys)
    # a channel is engaged while a transaction is in flight on it, from
    # arrival to media completion — how GPFS striping keeps "more
    # channels utilized simultaneously" (Section 4.5) on a slow device;
    # a package only while sensing/programming or moving registers
    # (cell + flash bus), hence ION-GPFS's high channel but low package
    # utilization (Figs 9a vs 9b).  A request's rows share its arrival,
    # so its windows on a channel (and on the device) coalesce into one
    # [arrival, latest media completion) run.
    _, k, s, e = coalesce(lane_chan, arrival, md, n_ch_keys)
    m_inflight = union_measure(k, s, e, n_ch_keys)
    _, k, s, e = coalesce(lane_row, arrival, md, n_lanes)
    m_active = union_measure(k, s, e, n_lanes)
    # non-overlapped DMA: per request, the host-path (PCIe/SATA/network)
    # time its own media pipeline cannot hide; on ION configurations
    # the network transfer outlasts the media work, which is why this
    # category dominates there (Section 4.5).  The media runs merge per
    # request first, so the host-or-media sort sees only those and the
    # few host runs.
    _, kr, sr, er = sorted_filter(
        lane_req[np.concatenate([cell_rows, fb_rows, chb_rows])],
        np.concatenate([cell_s, fb_s, chb_s]),
        np.concatenate([cell_e, fb_e, chb_e]),
    )
    kr, sr, er = merge_sorted(kr, sr, er)
    m_media_req = measure_sorted(kr, sr, er, n_req_keys)
    m_host_media_req = union_measure(
        np.concatenate([kr, lane_req[host_rows]]),
        np.concatenate([sr, host_s]),
        np.concatenate([er, host_e]),
        n_req_keys,
    )
    dma_req = m_host_media_req - m_media_req

    # per-transaction waits by op direction (exact integer values)
    is_read = op == OpCode.READ
    is_write = op == OpCode.WRITE
    is_erase = op == OpCode.ERASE
    cell_wait = np.zeros(total, dtype=np.int64)
    chan_wait = np.zeros(total, dtype=np.int64)
    cell_wait[is_read] = cs[is_read] - arrival[is_read]
    chan_wait[is_read] = (fs[is_read] - ce[is_read]) + (ss[is_read] - fe[is_read])
    cell_wait[is_write] = cs[is_write] - fe[is_write]
    chan_wait[is_write] = (ss[is_write] - he[is_write]) + (fs[is_write] - se[is_write])
    cell_wait[is_erase] = cs[is_erase] - arrival[is_erase]
    cw_ch = np.bincount(lane_chan, weights=cell_wait, minlength=n_ch_keys)
    hw_ch = np.bincount(lane_chan, weights=chan_wait, minlength=n_ch_keys)
    count_ch = np.bincount(lane_chan, minlength=n_ch_keys)

    lane_of_req = np.repeat(np.arange(n_lanes, dtype=np.int64), req_counts)
    dma_lane = np.bincount(lane_of_req, weights=dma_req, minlength=n_lanes)

    # parallelism ingredients, per (lane, request)
    n_chans_req = distinct_count(lane_req, chan, n_req_keys)
    n_dies_req = distinct_count(lane_req, die, n_req_keys)
    mp_req = (
        np.bincount(lane_req, weights=(group >= 0).astype(np.int64),
                    minlength=n_req_keys)
        > 0
    )
    w_req = np.bincount(lane_req, weights=nbytes, minlength=n_req_keys)
    rows_req = np.bincount(lane_req, minlength=n_req_keys)

    # per-lane totals: exact int64 reductions over each lane's rows
    nonempty = np.flatnonzero(lens)
    lane_first = (np.cumsum(lens) - lens)[nonempty]

    def per_lane(ufunc: np.ufunc, x: np.ndarray) -> list[int]:
        out = np.zeros(n_lanes, dtype=np.int64)
        out[nonempty] = ufunc.reduceat(x, lane_first)
        return out.tolist()

    data = kind_code == 0
    payload_l = per_lane(np.add, np.where(data, nbytes, 0))
    makespan_l = [
        d - a for d, a in zip(per_lane(np.maximum, done), per_lane(np.minimum, arrival))
    ]
    read_l = per_lane(np.add, np.where(is_read, nbytes, 0))
    write_l = per_lane(np.add, np.where(is_write, nbytes, 0))
    overhead_l = per_lane(np.add, np.where(data, 0, nbytes))
    n_requests_l = np.bincount(
        lane_of_req[rows_req > 0], minlength=n_lanes
    ).tolist()
    client_bw = _client_bandwidth(
        n_lanes, lane_row[data], client[data], nbytes[data], arrival[data], done[data]
    )

    out: list[RunMetrics] = []
    for i, (log, geom, kind) in enumerate(items):
        n = len(log)
        if n == 0:
            out.append(RunMetrics(0, 0, 0.0))
            continue
        payload = payload_l[i]
        makespan = makespan_l[i]
        bw = payload * 1e9 / makespan if makespan > 0 else 0.0
        peak = pattern_peaks[i]

        # utilization over the lane's device-active window; resource
        # intervals lie inside it, so no intersection is needed
        denom = float(m_active[i])
        ch_count = geom.channels
        pk_count = geom.packages
        if denom <= 0:
            chan_util = 0.0
            pkg_util = 0.0
        else:
            busy_ch = float(m_inflight[i * c_max : i * c_max + ch_count].sum())
            chan_util = busy_ch / (ch_count * denom)
            busy_pk = float(m_pkg_busy[i * p_max : i * p_max + pk_count].sum())
            pkg_util = busy_pk / (pk_count * denom)

        # six-way breakdown: channels ascending, then the contention
        # split and the normalization
        totals = dict.fromkeys(BREAKDOWN_KEYS, 0.0)
        for c in range(ch_count):
            key = i * c_max + c
            if count_ch[key] == 0:
                continue
            totals["cell"] += float(m_cell[key])
            totals["flash_bus"] += float(m_cell_fb[key] - m_cell[key])
            totals["channel_bus"] += float(m_cell_fb_chb[key] - m_cell_fb[key])
            wait_excl = float(m_inflight[key] - m_cell_fb_chb[key])
            cw = float(cw_ch[key])
            hw = float(hw_ch[key])
            d = cw + hw
            if d > 0:
                totals["cell_contention"] += wait_excl * cw / d
                totals["channel_contention"] += wait_excl * hw / d
        totals["non_overlapped_dma"] = float(dma_lane[i])
        grand = sum(totals.values())
        if grand <= 0:
            breakdown = {k: 0.0 for k in BREAKDOWN_KEYS}
        else:
            breakdown = {k: v / grand for k, v in totals.items()}

        # PAL1-4 class per request, weighted by bytes
        r0 = int(req_base[i])
        r1 = r0 + int(req_counts[i])
        present = rows_req[r0:r1] > 0
        inter = n_dies_req[r0:r1] > n_chans_req[r0:r1]
        mp = mp_req[r0:r1]
        pal_idx = np.where(
            inter & mp, 3, np.where(mp, 2, np.where(inter, 1, 0))
        )
        sums = np.bincount(pal_idx[present], weights=w_req[r0:r1][present],
                           minlength=4)
        weights = {k: float(sums[j]) for j, k in enumerate(PAL_KEYS)}
        w_total = sum(weights.values())
        if w_total <= 0:
            parallelism = {k: 0.0 for k in PAL_KEYS}
        else:
            parallelism = {k: v / w_total for k, v in weights.items()}

        out.append(
            RunMetrics(
                payload_bytes=payload,
                makespan_ns=makespan,
                bandwidth_bytes_per_sec=bw,
                client_bandwidth=client_bw[i],
                pattern_peak_bytes_per_sec=peak,
                remaining_bytes_per_sec=max(0.0, peak - bw),
                channel_utilization=chan_util,
                package_utilization=pkg_util,
                breakdown=breakdown,
                parallelism=parallelism,
                n_txns=n,
                n_requests=n_requests_l[i],
                read_bytes=read_l[i],
                write_bytes=write_l[i],
                overhead_bytes=overhead_l[i],
            )
        )
    return out


def compute_metrics(
    log: TxnLog, geom: Geometry, kind: NVMKind, pattern_peak: bool = True
) -> RunMetrics:
    """Derive every paper metric from a finished transaction log.

    ``pattern_peak`` as in :func:`compute_metrics_batch`.
    """
    return compute_metrics_batch([(log, geom, kind)], pattern_peak=pattern_peak)[0]
