"""The ``python -m repro netfault`` exhibit: CNL-vs-ION under loss.

The paper's Table 2 / Figures 7-10 assume a clean QDR fabric.  This
exhibit sweeps packet-loss rate x config x NVM kind and re-plots the
CNL-vs-ION bandwidth gap as the fabric degrades:

1. the **healthy matrix** comes from the stock experiment engine — at
   loss 0 the packetized link is bit-identical to the bulk wire, so the
   loss-0 row *is* the paper's matrix (golden-tested on both backends
   at any worker count);
2. each loss rate runs the packetized ION co-simulation
   (:func:`~repro.netfault.calibrate.calibrate_fabric`) to measure the
   **delivered-bandwidth factor** of the GPFS fabric under go-back-N
   ARQ, backoff and rate fallback;
3. ION cells are then re-run as derated cells
   (:class:`~repro.experiments.runner.Cell`) — the analytic GPFS
   client efficiency scaled by that factor — on the same engine, so
   they are cached and supervised like any cell; CNL cells —
   fabric-independent by construction — carry over unchanged.  That
   separation is the paper's argument, quantified: loss melts the ION
   column only.

A saturating loss rate exhausts the retransmission budget; the exhibit
reports the typed ``unreachable`` outcome (bandwidth 0) instead of
hanging, and delivered bandwidth is monotone non-increasing in the
loss rate (per-site oracle draws are shared across rates).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..experiments.configs import TABLE2_CONFIGS, config_by_label
from ..experiments.runner import Cell, ConfigResult, Workload
from ..nvm.kinds import KINDS
from ..obs.registry import MetricsRegistry
# kept bound for the benchmark's wrap sites (perfbench/layers.py)
from ..trace.replay import replay
from .calibrate import FabricCalibration, calibrate_fabric
from .stats import NetStatsRecorder

__all__ = ["NetfaultReport", "netfault_exhibit", "DEFAULT_LOSS_RATES"]

DEFAULT_LOSS_RATES = (0.0, 0.01, 0.05, 0.2)

#: flattened snapshot keys that are cumulative counters, not gauges
_MONOTONIC = frozenset(
    {
        "transfers", "bytes_moved", "busy_ns", "packets_sent",
        "packets_lost", "retransmits", "backoff_ns", "wasted_ns",
        "unreachable", "fallbacks", "recoveries",
    }
)


@dataclass
class NetfaultReport:
    """Structured results + rendered text of one netfault sweep."""

    workload: Workload
    loss_rates: tuple[float, ...]
    labels: tuple[str, ...]
    kinds: tuple[str, ...]
    net_seed: int
    mtu_bytes: int
    calibrations: dict[float, FabricCalibration] = field(default_factory=dict)
    #: (loss_rate, label, kind) -> ConfigResult
    results: dict[tuple[float, str, str], ConfigResult] = field(
        default_factory=dict
    )
    text: str = ""

    def publish(self, registry: MetricsRegistry) -> None:
        """Expose the sweep through the Prometheus endpoint."""
        for rate, cal in sorted(self.calibrations.items()):
            labels = {"loss_rate": f"{rate:g}"}
            registry.gauge(
                "repro_netfault_delivered_factor",
                "delivered fabric bandwidth over healthy, per loss rate",
                labels,
            ).set(cal.delivered_factor)
            registry.gauge(
                "repro_netfault_unreachable",
                "1 when the ARQ retransmission budget was exhausted",
                labels,
            ).set(1.0 if cal.unreachable else 0.0)
            if cal.link:
                registry.absorb(
                    "repro_netfault_link", cal.link, labels=labels,
                    monotonic=_MONOTONIC,
                )
        for (rate, label, kind), res in sorted(self.results.items()):
            registry.gauge(
                "repro_netfault_bandwidth_mb",
                "per-client bandwidth under fabric loss (MB/s)",
                {"loss_rate": f"{rate:g}", "config": label, "kind": kind},
            ).set(res.bandwidth_mb)


def _render(report: NetfaultReport) -> str:
    ion_labels = [
        lb for lb in report.labels
        if config_by_label(lb).location == "ION"
    ]
    cnl_labels = [
        lb for lb in report.labels
        if config_by_label(lb).location == "CNL"
    ]
    lines = [
        "CNL vs ION under fabric degradation "
        f"(go-back-N ARQ, mtu {report.mtu_bytes}, seed {report.net_seed})",
        "",
        f"{'loss':>6}  {'delivered':>9}  {'rate':>5}  {'retx':>6}  "
        f"{'kind':<4}  {'ION MB/s':>9}  {'best CNL':>9}  {'CNL:ION':>8}",
    ]
    for rate in report.loss_rates:
        cal = report.calibrations[rate]
        level = cal.link.get("rate", {}).get("level_name", "QDR")
        retx = cal.link.get("retransmits", 0)
        delivered = (
            "unreach" if cal.unreachable else f"{cal.delivered_factor:.3f}"
        )
        for kind in report.kinds:
            ion_bw = max(
                (report.results[(rate, lb, kind)].bandwidth_mb
                 for lb in ion_labels),
                default=0.0,
            )
            cnl_bw = max(
                (report.results[(rate, lb, kind)].bandwidth_mb
                 for lb in cnl_labels),
                default=0.0,
            )
            gap = f"{cnl_bw / ion_bw:8.1f}x" if ion_bw > 0 else "     inf"
            lines.append(
                f"{rate:6g}  {delivered:>9}  {level:>5}  {retx:6d}  "
                f"{kind:<4}  {ion_bw:9.1f}  {cnl_bw:9.1f}  {gap}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def netfault_exhibit(
    workload: Workload,
    engine,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    labels: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    net_seed: int = 0,
    mtu_bytes: int = 4096,
    seed: int = 1013,
    stats: Optional[NetStatsRecorder] = None,
) -> NetfaultReport:
    """Sweep loss rate x config x kind; returns the structured report.

    Every (rate, config, kind) point is a :class:`Cell` — ION cells
    derated by the rate's calibrated delivered factor, the rest plain —
    and ``engine`` runs them all in one pass: the healthy matrix on
    either backend at any worker count (bit-identical), the derated
    cells on the scalar path, cache hits served throughout.
    """
    labels = tuple(labels) if labels else tuple(
        c.label for c in TABLE2_CONFIGS
    )
    kinds = tuple(kinds) if kinds else tuple(k.name for k in KINDS)
    loss_rates = tuple(sorted(set(float(r) for r in loss_rates)))
    # raises on unknown labels and kinds up front
    healthy = {
        (label, kind): Cell(label, kind, workload, seed, with_remaining=False)
        for label in labels
        for kind in kinds
    }
    report = NetfaultReport(
        workload=workload, loss_rates=loss_rates, labels=labels,
        kinds=kinds, net_seed=net_seed, mtu_bytes=mtu_bytes,
    )
    grid: dict[tuple[float, str, str], Cell] = {}
    for rate in loss_rates:
        cal = calibrate_fabric(
            rate, net_seed=net_seed, mtu_bytes=mtu_bytes, stats=stats
        )
        report.calibrations[rate] = cal
        for (label, kind), cell in healthy.items():
            if config_by_label(label).location == "ION":
                cell = dataclasses.replace(cell, derate=cal.delivered_factor)
            grid[(rate, label, kind)] = cell
    results = engine.run_cells(list(grid.values()))
    report.results = {point: results[cell] for point, cell in grid.items()}
    report.text = _render(report)
    return report
