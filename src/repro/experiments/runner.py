"""Experiment runner: one Table-2 row x one NVM kind -> all metrics.

The workload is the OoC eigensolver trace of Section 4.2 (panel sweeps
of the Hamiltonian).  ION configurations replay the traces of the
compute nodes sharing the device, reporting per-CN bandwidth; CNL
configurations replay a single node's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from ..nvm.kinds import NVMKind, kind_by_name
from ..obs import trace as obs
from ..ssd.metrics import BREAKDOWN_KEYS, RunMetrics
from ..trace.replay import replay
from ..trace.synth import checkpoint_stream_trace, ooc_eigensolver_trace
from .configs import ExpConfig, config_by_label

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..faults.plan import FaultSpec
    from .cache import ResultCache

__all__ = [
    "Workload",
    "WORKLOAD_STREAMS",
    "ConfigResult",
    "run_config",
    "run_matrix",
    "DEFAULT_WORKLOAD",
]

MiB = 1024 * 1024


#: request streams a Workload can generate: the paper's read-dominated
#: eigensolver panel sweep, or the write-heavy double-buffered
#: checkpoint stream that separates wear-leveling policies
WORKLOAD_STREAMS = ("eigensolver", "checkpoint")


@dataclass(frozen=True)
class Workload:
    """Shape of the OoC trace used across all experiments.

    ``panels * panel_bytes * iterations`` bytes are streamed per
    client.  The default (96 MiB/client) keeps a full 13x4 matrix under
    a minute; scale up for higher-fidelity runs.  ``stream`` selects
    the request pattern (:data:`WORKLOAD_STREAMS`): the default
    eigensolver panel sweep, or the write-heavy checkpoint stream
    (``python -m repro lifetime --workload checkpoint``).
    """

    panels: int = 12
    panel_bytes: int = 8 * MiB
    iterations: int = 1
    posix_window: int = 2
    stream: str = "eigensolver"

    def __post_init__(self):
        if self.stream not in WORKLOAD_STREAMS:
            raise ValueError(
                f"unknown workload stream {self.stream!r}; "
                f"have {list(WORKLOAD_STREAMS)}"
            )

    @property
    def bytes_per_client(self) -> int:
        return self.panels * self.panel_bytes * self.iterations

    def traces(self, clients: int):
        """One trace per client, each owning its own H partition.

        Memoized: a frozen workload plus a client count fully determines
        the traces, and replay never mutates them, so ION configurations
        sweeping four NVM kinds (and the peak replays behind Figures
        7b/8b) share one generation instead of regenerating each time.
        """
        return list(_workload_traces(self, clients))


@lru_cache(maxsize=64)
def _workload_traces(workload: Workload, clients: int) -> tuple:
    """Generate (once) the per-client traces of a frozen workload."""
    if workload.stream == "checkpoint":
        # each client owns a private double-buffered checkpoint region
        # (2x panels*panel_bytes), so partitions never overlap
        region = 2 * workload.panels * workload.panel_bytes
        return tuple(
            checkpoint_stream_trace(
                panels=workload.panels,
                panel_bytes=workload.panel_bytes,
                iterations=workload.iterations,
                client=c,
                offset=c * region,
            )
            for c in range(clients)
        )
    return tuple(
        ooc_eigensolver_trace(
            panels=workload.panels,
            panel_bytes=workload.panel_bytes,
            iterations=workload.iterations,
            client=c,
            offset=c * workload.bytes_per_client,
        )
        for c in range(clients)
    )


DEFAULT_WORKLOAD = Workload()


@dataclass
class ConfigResult:
    """All reported quantities for one (config, NVM kind) cell."""

    label: str
    kind: str
    bandwidth_mb: float  # per-client (per-CN), the Fig-7/8 metric
    aggregate_mb: float
    remaining_mb: float
    channel_utilization: float
    package_utilization: float
    breakdown: dict[str, float] = field(default_factory=dict)
    parallelism: dict[str, float] = field(default_factory=dict)
    metrics: RunMetrics | None = None
    #: device-layer injected-fault roll-up of the computed run; ``None``
    #: when no faults were injected (and for cache hits — fault
    #: diagnostics, like ``metrics``, are per-computation, not cached)
    faults: dict | None = None
    #: which engine produced the numbers — "scalar" (the frozen
    #: bit-exact reference path) or "batch" (the columnar kernel);
    #: cached cells keep the provenance of the run that computed them
    backend: str = "scalar"


def emit_replay_spans(tr: "obs.Tracer", label: str, kind: str, m: RunMetrics) -> None:
    """Emit the sim-domain span tree for one computed cell.

    One root span per replay over ``[0, makespan]`` plus one child per
    breakdown category, tiling the makespan by its attributed fraction
    (the last child absorbs rounding), so per-layer attribution covers
    ~100% of simulated time by construction.  Site ids derive from the
    cell identity alone (``site_key``), making the sim span tree
    identical across worker counts and across the scalar/batch
    backends.  Pure function of the already-computed metrics: no clock
    reads, no simulator state touched.
    """
    makespan = int(m.makespan_ns)
    if makespan <= 0:
        return
    cell = f"{label}|{kind}"
    root = tr.sim_span(
        "device", "replay", 0, makespan,
        site_key=("replay", label, kind), cell=cell,
    )
    fracs = [(k, float(m.breakdown.get(k, 0.0))) for k in BREAKDOWN_KEYS]
    if sum(f for _, f in fracs) <= 0.0:
        return
    t = 0
    for i, (key, frac) in enumerate(fracs):
        dur = makespan - t if i == len(fracs) - 1 else int(round(frac * makespan))
        dur = max(0, min(dur, makespan - t))
        if dur == 0:
            continue
        tr.sim_span(
            key, "attribution", t, t + dur, parent=root,
            site_key=("attrib", label, kind, key), cell=cell,
        )
        t += dur


def _unconstrained_media_peak(
    config: ExpConfig,
    kind: NVMKind,
    workload: Workload,
    seed: int,
    traces=None,
) -> float:
    """Aggregate rate of the same run with a free interface (MB/s).

    Re-runs the identical replay — same file system, same flow control,
    same FTL behaviour — but with an effectively infinite host path and
    NVM bus, so only the cell-level media and the request stream itself
    constrain throughput.  This is the baseline the paper's "bandwidth
    remaining" (Figs 7b/8b) measures against: media that "completes its
    requests faster and therefore ends up idling" (UFS, ION) shows a
    large remainder, while a file system whose own request stream is
    the bottleneck shows a small one.
    """
    path = config.build(kind, workload.bytes_per_client, seed=seed)
    path.device.unconstrain()
    if traces is None or len(traces) != path.clients:
        traces = workload.traces(path.clients)
    summary = replay(path, traces, posix_window=workload.posix_window)
    return summary.aggregate_mb


def run_config(
    config: ExpConfig | str,
    kind: NVMKind | str,
    workload: Workload = DEFAULT_WORKLOAD,
    seed: int = 1013,
    keep_metrics: bool = False,
    with_remaining: bool = True,
    cache: Optional["ResultCache"] = None,
    faults: Optional["FaultSpec"] = None,
) -> ConfigResult:
    """Run one Table-2 cell and collect every figure's quantities.

    ``with_remaining=False`` skips the second (unconstrained-interface)
    replay used only by Figures 7b/8b, halving the cost.  ``cache``,
    when given, serves the whole cell — or at least the peak replay —
    from prior identical runs (``keep_metrics=True`` bypasses the cell
    cache because metrics objects are never cached).

    ``faults`` overlays a deterministic device fault plan
    (:class:`~repro.faults.plan.FaultSpec`) on the main replay; its
    signature participates in the cache key, so faulty results never
    collide with fault-free ones.  The peak replay stays fault-free —
    it is the idealized-media baseline "bandwidth remaining" measures
    against — so faulty and healthy runs share cached peaks.
    """
    if isinstance(config, str):
        config = config_by_label(config)
    if isinstance(kind, str):
        kind = kind_by_name(kind)
    if faults is not None and not faults.injects_device_faults:
        faults = None  # nothing to inject: identical to the healthy path
    if cache is not None and not keep_metrics:
        hit = cache.get_cell(
            config.label, kind.name, workload, seed, with_remaining, faults=faults
        )
        if hit is not None:
            return hit
    data_bytes = workload.bytes_per_client
    path = config.build(kind, data_bytes, seed=seed)
    fault_model = None
    if faults is not None:
        fault_model = faults.plan().device_model(kind, path.device.geom)
        path.device.attach_faults(fault_model)
    clients = path.clients
    traces = workload.traces(clients)
    summary = replay(path, traces, posix_window=workload.posix_window)
    m = summary.metrics
    tr = obs.tracer()
    if tr is not None:
        emit_replay_spans(tr, config.label, kind.name, m)
    remaining = 0.0
    if with_remaining:
        peak = None
        if cache is not None:
            peak = cache.get_peak(config.label, kind.name, workload, seed)
        if peak is None:
            peak = _unconstrained_media_peak(
                config, kind, workload, seed, traces=traces
            )
            if cache is not None:
                cache.put_peak(config.label, kind.name, workload, seed, peak)
        remaining = max(0.0, peak - summary.aggregate_mb)
    return ConfigResult(
        label=config.label,
        kind=kind.name,
        bandwidth_mb=summary.bandwidth_mb,
        aggregate_mb=summary.aggregate_mb,
        remaining_mb=remaining,
        channel_utilization=m.channel_utilization,
        package_utilization=m.package_utilization,
        breakdown=dict(m.breakdown),
        parallelism=dict(m.parallelism),
        metrics=m if keep_metrics else None,
        faults=fault_model.snapshot() if fault_model is not None else None,
    )


def run_matrix(
    labels,
    kinds,
    workload: Workload = DEFAULT_WORKLOAD,
    seed: int = 1013,
    with_remaining: bool = True,
    workers: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
    progress=None,
    faults: Optional["FaultSpec"] = None,
) -> dict[tuple[str, str], ConfigResult]:
    """Run a (config x kind) grid; keys are (label, kind_name).

    Routed through :class:`~repro.experiments.parallel.MatrixEngine`:
    ``workers`` > 1 fans the cells out over a supervised process pool
    (``None`` auto-detects via ``REPRO_WORKERS`` / CPU count),
    ``workers=1`` runs the exact serial path; either way the results
    are identical.  ``faults`` overlays a deterministic fault plan on
    every cell.
    """
    from .parallel import MatrixEngine

    engine = MatrixEngine(
        workers=workers, cache=cache, progress=progress, faults=faults
    )
    return engine.run_matrix(labels, kinds, workload, seed, with_remaining)
