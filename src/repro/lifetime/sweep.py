"""Aged-device capacity sweeps: config x media kind x lifetime age.

Turns the one-shot Table-2 matrix into the capacity-planning question
fleet operators actually ask: *what do these configurations deliver at
50% and 90% of rated device lifetime?*  Each cell replays the same OoC
eigensolver workload as the Table-2 cells through the same storage
path, but on a device whose FTL has been fast-forwarded by the aging
model (:mod:`repro.lifetime.aging`) and runs a wear-leveling policy
(:mod:`repro.lifetime.wear`), reporting per cell:

* **bandwidth** (per-client MB/s, the Figure-7/8 metric),
* **p99 command latency** (ms, via :class:`repro.obs.hist
  .LatencyRecorder` attached to the device controller),
* **WAF** — media page writes per host page write, GC + wear-leveling
  relocations included,
* **wear spread / gini** and retired-block count,
* the age-coupled effective read-fault probability and injected-fault
  roll-up.

Each grid point is an aged :class:`~repro.experiments.runner.Cell`;
:func:`~repro.experiments.runner.run_cell` computes it, calling
:func:`age_device` and :func:`lifetime_result` around the shared
replay.  At age 0 with ``policy="none"`` the cell is bit-identical to
the plain cell's scalar path — golden-tested against all 52 Table-2
cells — so the sweep's baseline row *is* today's exhibit.

Everything here is deterministic in ``(labels, kinds, ages, policy,
workload, seed)``; cells are independent, so the sweep runs on a
:class:`~repro.experiments.parallel.MatrixEngine` (cache, supervised
pool) with bit-identical results at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..experiments.configs import DEVICE_SWEEP_LABELS
from ..faults.plan import FaultSpec
from ..nvm.endurance import wear_report
from ..nvm.kinds import NVMKind
from ..obs.hist import LatencyRecorder
# kept bound for the benchmark's wrap sites (perfbench/layers.py)
from ..trace.replay import replay
from .aging import install_age
from .wear import WearFTL, WearPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..experiments.parallel import MatrixEngine
    from ..experiments.runner import Cell, Workload
    from ..obs.registry import MetricsRegistry

__all__ = [
    "DEFAULT_AGES",
    "LIFETIME_LABELS",
    "LIFETIME_KINDS",
    "LifetimeCellResult",
    "LifetimeSweepReport",
    "age_device",
    "lifetime_result",
    "lifetime_sweep",
]

#: the exhibit's age axis: fresh, half-life, near end-of-life
DEFAULT_AGES = (0.0, 0.5, 0.9)

#: the exhibit's config axis: the device-improvement sweep plus the
#: shared ION baseline, the configurations whose lifetime a deployment
#: planner would actually compare
LIFETIME_LABELS = DEVICE_SWEEP_LABELS + ("ION-GPFS",)

#: the exhibit's media axis: all Table-1 kinds, by name
LIFETIME_KINDS = ("SLC", "MLC", "TLC", "PCM")

#: LatencyRecorder window per cell: large enough that p99 over the
#: window reflects the whole replay at exhibit scale, small enough that
#: the incrementally-sorted insert stays cheap
LATENCY_WINDOW = 4096

_NS_PER_MS = 1e6


@dataclass(frozen=True)
class LifetimeCellResult:
    """Every reported quantity of one (config, kind, age) cell."""

    label: str
    kind: str
    age_fraction: float
    wear_policy: str
    bandwidth_mb: float  # per-client, the Fig-7/8 metric
    aggregate_mb: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    waf: float
    wear_spread: int
    wear_gini: float
    mean_wear: float
    total_erases: int
    retired_blocks: int
    gc_runs: int
    gc_moved_pages: int
    wl_moved_pages: int
    host_writes_pages: int
    read_fault_p: float  # effective (media-scaled) per-command rate
    faults_injected: int
    fault_penalty_ns: int
    backend: str = "scalar"


def age_device(device, cell: "Cell") -> LatencyRecorder:
    """Overlay ``cell``'s aging on a freshly built device.

    Swaps the device's stock FTL for a :class:`WearFTL` running the
    cell's wear policy, installs the seeded wear history (retiring
    over-budget blocks) and attaches the latency recorder it returns.
    Called by :func:`repro.experiments.runner.run_cell` before the fault
    regime is attached and the workload replayed.
    """
    ftl = WearFTL.adopt(device.ftl, cell.policy)
    device.ftl = ftl
    install_age(ftl, cell.aging)
    recorder = LatencyRecorder(window=LATENCY_WINDOW, unit="ns")
    device.latency_recorder = recorder
    return recorder


def lifetime_result(
    cell: "Cell",
    device,
    recorder: LatencyRecorder,
    fault_model,
    bandwidth_mb: float,
    aggregate_mb: float,
) -> LifetimeCellResult:
    """Collect one aged cell's quantities after its replay.

    Takes the replay's bandwidths as plain numbers rather than the
    replay summary, which still references the live device (and its
    FTL) that must never ride a result across the process pool.
    """
    ftl = device.ftl
    rep = wear_report(ftl)
    fstats = fault_model.snapshot() if fault_model is not None else {}
    return LifetimeCellResult(
        label=cell.label,
        kind=cell.kind,
        age_fraction=cell.age,
        wear_policy=cell.policy.kind,
        bandwidth_mb=bandwidth_mb,
        aggregate_mb=aggregate_mb,
        p50_latency_ms=recorder.percentile(0.50) / _NS_PER_MS,
        p99_latency_ms=recorder.percentile(0.99) / _NS_PER_MS,
        max_latency_ms=recorder.maximum / _NS_PER_MS,
        waf=rep.waf,
        wear_spread=rep.spread,
        wear_gini=rep.gini,
        mean_wear=rep.mean_wear,
        total_erases=rep.total_erases,
        retired_blocks=rep.retired_blocks,
        gc_runs=ftl.stats["gc_runs"],
        gc_moved_pages=rep.gc_moved_pages,
        wl_moved_pages=rep.wl_moved_pages,
        host_writes_pages=rep.host_writes_pages,
        read_fault_p=(
            fault_model.read_fault_p if fault_model is not None else 0.0
        ),
        faults_injected=fstats.get("faults_injected", 0),
        fault_penalty_ns=fstats.get("penalty_ns", 0),
    )


@dataclass
class LifetimeSweepReport:
    """All cells of one sweep plus rendering / metrics export."""

    results: dict[tuple[str, str, float], LifetimeCellResult]
    ages: tuple[float, ...]
    policy: WearPolicy

    @property
    def text(self) -> str:
        lines = [
            "Device lifetime sweep — bandwidth / p99 / WAF / wear vs. age",
            f"(wear policy: {self.policy.kind}; age = fraction of rated "
            "lifetime consumed; Table-1 endurance budgets)",
            "",
            f"{'config':<16} {'kind':<5} {'age':>4}  {'MB/s':>8} "
            f"{'p99 ms':>8} {'WAF':>6} {'spread':>6} {'retired':>7} "
            f"{'faults':>6}",
        ]
        for (label, kind_name, age), r in self.results.items():
            lines.append(
                f"{label:<16} {kind_name:<5} {age:>4.0%}  "
                f"{r.bandwidth_mb:>8.1f} {r.p99_latency_ms:>8.3f} "
                f"{r.waf:>6.3f} {r.wear_spread:>6d} {r.retired_blocks:>7d} "
                f"{r.faults_injected:>6d}"
            )
        return "\n".join(lines)

    def publish(self, registry: "MetricsRegistry") -> None:
        """Export one gauge family per reported quantity to a registry.

        Labelled by (config, kind, age, policy); rendered by
        :func:`repro.obs.export.prometheus_text` and served from the
        service's ``metrics`` endpoint.
        """
        gauges = (
            ("repro_lifetime_bandwidth_mb", "per-client bandwidth (MB/s)",
             lambda r: r.bandwidth_mb),
            ("repro_lifetime_p99_latency_ms", "p99 device command latency (ms)",
             lambda r: r.p99_latency_ms),
            ("repro_lifetime_waf", "write-amplification factor (media/host pages)",
             lambda r: r.waf),
            ("repro_lifetime_wear_spread", "erase-count spread (max - min)",
             lambda r: float(r.wear_spread)),
            ("repro_lifetime_retired_blocks", "blocks past the endurance budget",
             lambda r: float(r.retired_blocks)),
            ("repro_lifetime_read_fault_p", "effective per-command read-fault rate",
             lambda r: r.read_fault_p),
            ("repro_lifetime_faults_injected", "device faults injected in the run",
             lambda r: float(r.faults_injected)),
        )
        for r in self.results.values():
            labels = {
                "config": r.label,
                "kind": r.kind,
                "age": f"{r.age_fraction:.2f}",
                "policy": r.wear_policy,
            }
            for name, help_text, get in gauges:
                registry.gauge(name, help_text, labels).set(get(r))


def lifetime_sweep(
    labels: Sequence[str] = LIFETIME_LABELS,
    kinds: Sequence[NVMKind | str] = LIFETIME_KINDS,
    ages: Sequence[float] = DEFAULT_AGES,
    policy: WearPolicy = WearPolicy(kind="dynamic"),
    workload: Optional["Workload"] = None,
    seed: int = 1013,
    base_faults: Optional[FaultSpec] = None,
    engine: Optional["MatrixEngine"] = None,
) -> LifetimeSweepReport:
    """Run the full config x kind x age grid.

    Each grid point is one aged :class:`~repro.experiments.runner.Cell`
    handed to ``engine`` (default: a serial, uncached one), which serves
    cache hits, fans the rest over its supervised pool and checkpoints
    finished cells; the grid is bit-identical at any worker count.
    ``base_faults`` is the healthy-device regime the age increments add
    to (``None`` = faults only from aging).  Results are keyed
    ``(label, kind_name, age)`` in deterministic grid order.
    """
    from ..experiments.parallel import MatrixEngine
    from ..experiments.runner import DEFAULT_WORKLOAD, Cell

    if workload is None:
        workload = DEFAULT_WORKLOAD
    if engine is None:
        engine = MatrixEngine(workers=1)
    grid = {
        (label, kind_name, float(age)): Cell(
            label, kind_name, workload, seed, faults=base_faults,
            age=age, policy=policy,
        )
        for label in labels
        for kind_name in (k if isinstance(k, str) else k.name for k in kinds)
        for age in ages
    }
    results = engine.run_cells(list(grid.values()))
    return LifetimeSweepReport(
        results={point: results[cell] for point, cell in grid.items()},
        ages=tuple(float(a) for a in ages),
        policy=policy,
    )
