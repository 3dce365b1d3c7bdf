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

:func:`compute_metrics` measures every replay — ``SSDevice.run``'s and
the batch backend's planned cells alike — one log per call.  Every
interval family is measured once, keyed by the log's raw resource and
request columns via :mod:`repro.ssd.segments`:

* each serial resource's intervals (cell time per die, flash bus per
  package, channel bus per channel, the host link) are coalesced
  once into runs of back-to-back intervals, split at request
  boundaries; every family reads those runs, and the channel families
  read the merged runs of the package sort, so each sort sees far
  fewer rows than the log has,
* union measures are exact int64 throughout; each exclusive measure
  ("cell activity not hidden by ...") is a difference of union
  measures, valid because each subtrahend family lies inside its
  minuend family (a transaction's cell, flash-bus and channel
  intervals lie within its own in-flight window),
* per-channel wait sums and the non-overlapped DMA total are sums of
  exact integers far below 2**53, so they do not depend on summation
  order,
* the inexact float arithmetic — the contention split, the breakdown
  normalization, bandwidth division and utilization ratios — runs in
  a fixed order (channels ascending, BREAKDOWN_KEYS order),
* the pattern peak (:func:`media_pattern_peak`) re-schedules the log's
  rows under an infinite interface, an all-READ log as one open-loop
  :func:`~repro.ssd.scheduler.lockstep` lane; a caller that discards
  :class:`RunMetrics` skips it (``pattern_peak=False``), as the batch
  backend does unless asked to keep them.

The per-resource interval pass these numbers were first defined by is
kept as the test oracle (``tests/oracles/metrics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    step_cols,
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

__all__ = ["RunMetrics", "compute_metrics", "media_pattern_peak"]

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
    client: np.ndarray, nbytes: np.ndarray, arrival: np.ndarray, done: np.ndarray
) -> dict[int, float]:
    """Per-client payload bandwidth of the data rows given.

    The rows are grouped by client with one radix pass; each group's
    bytes, first arrival and last completion are exact int64.
    """
    out: dict[int, float] = {}
    if len(client) == 0:
        return out
    lo = int(client.min())
    key = client - lo
    order = radix_order(key, int(client.max()) - lo + 1)
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
        out[g + lo] = nb * 1e9 / span if span > 0 else 0.0
    return out


def _open_loop(n: int, done: list[int]) -> Commands:
    """One command of all ``n`` rows arriving at 0; its completion
    lands in ``done``."""
    done.append((yield 0, n, 0))


def media_pattern_peak(log: TxnLog, geom: Geometry, kind: NVMKind) -> float:
    """Media ceiling of the observed transaction pattern (bytes/sec).

    Re-schedules the identical transaction stream with all arrivals at
    zero and (effectively) infinite host and bus paths, so only the
    cell-level media resources constrain it.  This is the NVM-media
    headroom the paper's "bandwidth remaining" (Figs 7b/8b) measures
    against: media that "completes its requests faster and ends up
    idling" shows a large remainder.  An all-READ log runs as one
    open-loop lane of :func:`~repro.ssd.scheduler.lockstep` over its
    :func:`~repro.ssd.scheduler.step_cols`, whose block kernel computes
    the same timeline as the scalar :func:`~repro.ssd.scheduler.recurrence`
    every other log takes over its pre-pass.  Only the completion time
    is kept.
    """
    n = len(log)
    if n == 0:
        return 0.0
    media, link = MediaConsts.of(geom, kind), Link.of(INFINITE_BUS, INFINITE_HOST)
    rows = (log["op"], log["flat"], log["nbytes"], log["group"], log["pib"])
    if bool((log["op"] == OpCode.READ).all()):
        done: list[int] = []
        lane = Lane(geom, link, 0, n, _open_loop(n, done))
        lockstep(step_cols(media, *rows), [lane])
        (end,) = done
    else:
        cols = prepass(media, link, *rows)
        end = recurrence(cols.lists(), 0, n, 0, Resources(geom))
    payload = int(log["nbytes"][log["kind_code"] == 0].sum())
    return payload * 1e9 / end if end > 0 else 0.0


def compute_metrics(
    log: TxnLog, geom: Geometry, kind: NVMKind, pattern_peak: bool = True
) -> RunMetrics:
    """Derive every paper metric from a finished transaction log.

    ``pattern_peak=False`` skips the pattern-peak replay, for callers
    that discard :class:`RunMetrics` and keep only the fields derived
    from the log itself; ``pattern_peak_bytes_per_sec`` and
    ``remaining_bytes_per_sec`` then read 0.
    """
    n = len(log)
    if n == 0:
        return RunMetrics(0, 0, 0.0)
    peak = media_pattern_peak(log, geom, kind) if pattern_peak else 0.0

    chan = log["channel"]
    pkg = log["package"]
    die = log["die"]
    req = log["req"]
    nbytes = log["nbytes"]
    op = log["op"]
    arrival = log["arrival"]
    cs, ce = log["cell_start"], log["cell_end"]
    fs, fe = log["fb_start"], log["fb_end"]
    ss, se = log["ch_start"], log["ch_end"]
    hs, he = log["h_start"], log["h_end"]
    md = log["media_done"]
    done = log["done"]
    n_chan = geom.channels
    n_pkg = geom.packages
    n_req = int(req.max()) + 1
    link = np.zeros(n, dtype=np.int64)  # the one host link

    # every serial resource's intervals — cell time per die, flash bus
    # per package, channel bus per channel, the host link — merged into
    # runs once, split where the request changes so the request family
    # can read them too.  The recurrence emits them disjoint and in row
    # order, so back-to-back intervals collapse before any sort;
    # merging touching or overlapping intervals is exact in any order.
    cell_rows, _, cell_s, cell_e = coalesce(die, cs, ce, geom.dies, req)
    fb_rows, _, fb_s, fb_e = coalesce(pkg, fs, fe, n_pkg, req)
    chb_rows, _, chb_s, chb_e = coalesce(chan, ss, se, n_chan, req)
    host_rows, _, host_s, host_e = coalesce(link, hs, he, 1, req)

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
        pkg[np.concatenate([cell_rows, fb_rows])],
        np.concatenate([cell_s, fb_s]),
        np.concatenate([cell_e, fb_e]),
    )
    cf_k, cf_s, cf_e = merge_sorted(kp, sp, ep)  # cell∪fb, per package
    m_pkg_busy = measure_sorted(cf_k, cf_s, cf_e, n_pkg)
    sub = ids_p < n_cell
    c_k, c_s, c_e = merge_sorted(kp[sub], sp[sub], ep[sub])  # cell, per package
    chan_of_pkg = np.zeros(n_pkg, dtype=np.int64)
    chan_of_pkg[pkg] = chan
    n_cf = len(cf_k)
    n_cf_chb = n_cf + len(chb_rows)
    ids3, k3, s3, e3 = sorted_filter(
        np.concatenate([chan_of_pkg[cf_k], chan[chb_rows], chan_of_pkg[c_k]]),
        np.concatenate([cf_s, chb_s, c_s]),
        np.concatenate([cf_e, chb_e, c_e]),
    )
    sub = ids3 < n_cf_chb  # cell∪fb runs + channel-bus runs
    m_cell_fb_chb = measure_sorted(k3[sub], s3[sub], e3[sub], n_chan)
    sub = ids3 < n_cf  # cell∪fb runs
    m_cell_fb = measure_sorted(k3[sub], s3[sub], e3[sub], n_chan)
    sub = ids3 >= n_cf_chb  # cell runs
    m_cell = measure_sorted(k3[sub], s3[sub], e3[sub], n_chan)
    # a channel is engaged while a transaction is in flight on it, from
    # arrival to media completion — how GPFS striping keeps "more
    # channels utilized simultaneously" (Section 4.5) on a slow device;
    # a package only while sensing/programming or moving registers
    # (cell + flash bus), hence ION-GPFS's high channel but low package
    # utilization (Figs 9a vs 9b).  A request's rows share its arrival,
    # so its windows on a channel (and on the device) coalesce into one
    # [arrival, latest media completion) run.
    _, k, s, e = coalesce(chan, arrival, md, n_chan)
    m_inflight = union_measure(k, s, e, n_chan)
    _, k, s, e = coalesce(link, arrival, md, 1)
    active = float(union_measure(k, s, e, 1)[0])
    # non-overlapped DMA: per request, the host-path (PCIe/SATA/network)
    # time its own media pipeline cannot hide; on ION configurations
    # the network transfer outlasts the media work, which is why this
    # category dominates there (Section 4.5).  The media runs merge per
    # request first, so the host-or-media sort sees only those and the
    # few host runs.
    _, kr, sr, er = sorted_filter(
        req[np.concatenate([cell_rows, fb_rows, chb_rows])],
        np.concatenate([cell_s, fb_s, chb_s]),
        np.concatenate([cell_e, fb_e, chb_e]),
    )
    kr, sr, er = merge_sorted(kr, sr, er)
    m_media_req = measure_sorted(kr, sr, er, n_req)
    m_host_media_req = union_measure(
        np.concatenate([kr, req[host_rows]]),
        np.concatenate([sr, host_s]),
        np.concatenate([er, host_e]),
        n_req,
    )
    dma = float((m_host_media_req - m_media_req).sum())

    # per-transaction waits by op direction (exact integer values)
    is_read = op == OpCode.READ
    is_write = op == OpCode.WRITE
    is_erase = op == OpCode.ERASE
    cell_wait = np.zeros(n, dtype=np.int64)
    chan_wait = np.zeros(n, dtype=np.int64)
    cell_wait[is_read] = cs[is_read] - arrival[is_read]
    chan_wait[is_read] = (fs[is_read] - ce[is_read]) + (ss[is_read] - fe[is_read])
    cell_wait[is_write] = cs[is_write] - fe[is_write]
    chan_wait[is_write] = (ss[is_write] - he[is_write]) + (fs[is_write] - se[is_write])
    cell_wait[is_erase] = cs[is_erase] - arrival[is_erase]
    cw_ch = np.bincount(chan, weights=cell_wait, minlength=n_chan)
    hw_ch = np.bincount(chan, weights=chan_wait, minlength=n_chan)
    count_ch = np.bincount(chan, minlength=n_chan)

    # totals: exact int64 reductions over the rows
    data = log["kind_code"] == 0
    payload = int(nbytes[data].sum())
    makespan = int(done.max()) - int(arrival.min())
    bw = payload * 1e9 / makespan if makespan > 0 else 0.0

    # utilization over the device-active window; resource intervals lie
    # inside it, so no intersection is needed
    if active <= 0:
        chan_util = 0.0
        pkg_util = 0.0
    else:
        chan_util = float(m_inflight.sum()) / (n_chan * active)
        pkg_util = float(m_pkg_busy.sum()) / (n_pkg * active)

    # six-way breakdown: channels ascending, then the contention split
    # and the normalization
    totals = dict.fromkeys(BREAKDOWN_KEYS, 0.0)
    for c in range(n_chan):
        if count_ch[c] == 0:
            continue
        totals["cell"] += float(m_cell[c])
        totals["flash_bus"] += float(m_cell_fb[c] - m_cell[c])
        totals["channel_bus"] += float(m_cell_fb_chb[c] - m_cell_fb[c])
        wait_excl = float(m_inflight[c] - m_cell_fb_chb[c])
        cw = float(cw_ch[c])
        hw = float(hw_ch[c])
        d = cw + hw
        if d > 0:
            totals["cell_contention"] += wait_excl * cw / d
            totals["channel_contention"] += wait_excl * hw / d
    totals["non_overlapped_dma"] = dma
    grand = sum(totals.values())
    if grand <= 0:
        breakdown = {k: 0.0 for k in BREAKDOWN_KEYS}
    else:
        breakdown = {k: v / grand for k, v in totals.items()}

    # PAL1-4 class per request, weighted by bytes
    present = np.bincount(req, minlength=n_req) > 0
    inter = distinct_count(req, die, n_req) > distinct_count(req, chan, n_req)
    mp = np.bincount(req, weights=(log["group"] >= 0).astype(np.int64),
                     minlength=n_req) > 0
    pal_idx = np.where(inter & mp, 3, np.where(mp, 2, np.where(inter, 1, 0)))
    w_req = np.bincount(req, weights=nbytes, minlength=n_req)
    sums = np.bincount(pal_idx[present], weights=w_req[present], minlength=4)
    weights = {k: float(sums[j]) for j, k in enumerate(PAL_KEYS)}
    w_total = sum(weights.values())
    if w_total <= 0:
        parallelism = {k: 0.0 for k in PAL_KEYS}
    else:
        parallelism = {k: v / w_total for k, v in weights.items()}

    return RunMetrics(
        payload_bytes=payload,
        makespan_ns=makespan,
        bandwidth_bytes_per_sec=bw,
        client_bandwidth=_client_bandwidth(
            log["client"][data], nbytes[data], arrival[data], done[data]
        ),
        pattern_peak_bytes_per_sec=peak,
        remaining_bytes_per_sec=max(0.0, peak - bw),
        channel_utilization=chan_util,
        package_utilization=pkg_util,
        breakdown=breakdown,
        parallelism=parallelism,
        n_txns=n,
        n_requests=int(np.count_nonzero(present)),
        read_bytes=int(nbytes[is_read].sum()),
        write_bytes=int(nbytes[is_write].sum()),
        overhead_bytes=int(nbytes[~data].sum()),
    )
