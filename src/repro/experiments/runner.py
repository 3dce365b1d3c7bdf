"""Experiment runner: one scenario cell -> all metrics.

Every exhibit replays cells (:class:`Cell`): one Table-2 row x one NVM kind
under the OoC eigensolver trace of Section 4.2 (panel sweeps of the
Hamiltonian), optionally perturbed by an overlay — device faults, an
aged device under a wear-leveling policy, or a derated ION fabric.
ION configurations replay the traces of the compute nodes sharing the
device, reporting per-CN bandwidth; CNL configurations replay a single
node's trace.  :func:`run_cell` is the one scalar cell runner.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Union

from ..core.architecture import GPFS_CLIENT_EFFICIENCY, make_ion_device
from ..nvm.kinds import NVMKind, kind_by_name
from ..obs import trace as obs
from ..ssd.metrics import BREAKDOWN_KEYS, RunMetrics
from ..trace.replay import replay
from ..trace.synth import checkpoint_stream_trace, ooc_eigensolver_trace
from . import cache as _cache
from .configs import ExpConfig, config_by_label

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..faults.plan import FaultSpec
    from ..lifetime.aging import AgingSpec
    from ..lifetime.sweep import LifetimeCellResult
    from ..lifetime.wear import WearPolicy
    from .cache import ResultCache

__all__ = [
    "Workload",
    "WORKLOAD_STREAMS",
    "Cell",
    "ConfigResult",
    "run_cell",
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



@dataclass(frozen=True)
class Cell:
    """One scenario: a Table-2 row x an NVM kind, plus optional overlays.

    The plain cell is the paper's: ``label`` x ``kind`` replaying
    ``workload`` under ``seed``; ``with_remaining`` adds the
    unconstrained-interface peak replay behind Figures 7b/8b.  Overlays
    perturb it:

    * ``faults`` — a device fault regime
      (:class:`~repro.faults.plan.FaultSpec`) on the main replay;
    * ``age`` + ``policy`` — the device fast-forwarded to ``age`` of its
      rated lifetime under a wear-leveling policy
      (:class:`~repro.lifetime.wear.WearPolicy`); the cell then reports
      a :class:`~repro.lifetime.sweep.LifetimeCellResult`;
    * ``derate`` — the ION fabric delivering ``derate`` of its healthy
      bandwidth (:mod:`repro.netfault`); ``0`` is the typed
      *unreachable* outcome: bandwidth 0, no replay.

    Normalised once, here: a regime that injects no device faults is
    dropped (unless it seeds an aged regime), derate 1.0 is the plain
    cell, an aged cell never replays the peak, and the fault regime the
    replay injects — aged when the device is — is derived into
    ``device_faults``.  Unknown labels and kinds raise ``KeyError``.
    :meth:`key` is the cell's identity: the result-cache key, the
    service's ``CellJob`` key and (once overlaid) the span site.
    """

    label: str
    kind: str
    workload: Workload = DEFAULT_WORKLOAD
    seed: int = 1013
    with_remaining: bool = True
    faults: Optional["FaultSpec"] = None
    age: Optional[float] = None
    policy: Optional["WearPolicy"] = None
    derate: float = 1.0
    #: derived: the regime the main replay injects (``None``: healthy)
    device_faults: Optional["FaultSpec"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        def put(name: str, value) -> None:
            object.__setattr__(self, name, value)

        location = config_by_label(self.label).location
        put("kind", kind_by_name(self.kind).name)
        faults = self.faults
        if self.age is None:
            if self.policy is not None:
                raise ValueError("a wear policy overlay needs an age")
        else:
            from ..lifetime.aging import aged_faults
            from ..lifetime.wear import WearPolicy

            if self.derate != 1.0:
                raise ValueError("the aging and derate overlays do not combine")
            put("age", float(self.age))
            if self.policy is None:
                put("policy", WearPolicy())
            put("with_remaining", False)
            faults = aged_faults(faults, self.aging)
        if faults is not None and not faults.injects_device_faults:
            faults = None
            if self.age is None:
                put("faults", None)
        put("device_faults", faults)
        put("derate", float(self.derate))
        if self.derate < 0.0:
            raise ValueError(f"derate must be >= 0, got {self.derate!r}")
        if self.derate != 1.0 and location != "ION":
            raise ValueError(f"only ION cells cross the fabric, not {self.label}")

    @property
    def aging(self) -> Optional["AgingSpec"]:
        """The aging overlay as an :class:`AgingSpec` (``None``: fresh)."""
        if self.age is None:
            return None
        from ..lifetime.aging import AgingSpec

        return AgingSpec(age_fraction=self.age, seed=self.seed)

    @property
    def overlaid(self) -> bool:
        """Whether any overlay perturbs the plain cell."""
        return (
            self.device_faults is not None
            or self.age is not None
            or self.derate != 1.0
        )

    def key(self, entry: str = "cell") -> str:
        """SHA-256 of the cell's canonical JSON.

        ``entry="cell"`` keys the result; an overlay joins the identity
        only when present, so plain and fault-only keys match the
        pre-``Cell`` cache layout.  ``entry="peak"`` keys the
        unconstrained-media peak, which no overlay touches (the peak
        replay is healthy and its host path infinite), so every overlay
        of a cell shares its plain peak.
        """
        parts: dict = {
            "schema": _cache.SCHEMA_VERSION,
            "entry": entry,
            "label": self.label,
            "kind": self.kind,
            "workload": dataclasses.asdict(self.workload),
            "seed": self.seed,
        }
        if entry == "cell":
            parts["with_remaining"] = bool(self.with_remaining)
            if self.device_faults is not None:
                parts["faults"] = self.device_faults.signature()
            if self.age is not None:
                parts["aging"] = self.aging.signature()
                parts["policy"] = self.policy.signature()
            if self.derate != 1.0:
                parts["derate"] = self.derate
        blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def site(self) -> tuple:
        """Span identity: ``(label, kind)``, plus the key once overlaid."""
        if self.overlaid:
            return (self.label, self.kind, self.key())
        return (self.label, self.kind)

    @property
    def tag(self) -> str:
        """Readable ``label|kind[|overlay...]`` name for spans and logs."""
        parts = [self.label, self.kind]
        if self.age is not None:
            parts.append(f"age={self.age:.2f}/{self.policy.kind}")
        if self.derate != 1.0:
            parts.append(f"derate={self.derate:.4g}")
        if self.faults is not None:
            parts.append(f"faults={self.faults.seed}")
        return "|".join(parts)


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


CellResult = Union[ConfigResult, "LifetimeCellResult"]


def emit_replay_spans(tr: "obs.Tracer", cell: Cell, m: RunMetrics) -> None:
    """Emit the sim-domain span tree for one computed cell.

    One root span per replay over ``[0, makespan]`` plus one child per
    breakdown category, tiling the makespan by its attributed fraction
    (the last child absorbs rounding), so per-layer attribution covers
    ~100% of simulated time by construction.  Site ids derive from the
    cell identity alone (:meth:`Cell.site`), making the sim span tree
    identical across worker counts and across the scalar/batch
    backends.  Pure function of the already-computed metrics: no clock
    reads, no simulator state touched.
    """
    makespan = int(m.makespan_ns)
    if makespan <= 0:
        return
    site = cell.site()
    tag = cell.tag
    root = tr.sim_span(
        "device", "replay", 0, makespan, site_key=("replay", *site), cell=tag,
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
            site_key=("attrib", *site, key), cell=tag,
        )
        t += dur


def _unconstrained_media_peak(cell: Cell, traces) -> float:
    """Aggregate rate of the same run with a free interface (MB/s).

    Re-runs the identical replay — same file system, same flow control,
    same FTL behaviour — but with an effectively infinite host path and
    NVM bus, so only the cell-level media and the request stream itself
    constrain throughput.  This is the baseline the paper's "bandwidth
    remaining" (Figs 7b/8b) measures against: media that "completes its
    requests faster and therefore ends up idling" (UFS, ION) shows a
    large remainder, while a file system whose own request stream is
    the bottleneck shows a small one.  Overlays never reach it: the
    peak is the healthy device behind an infinite host.
    """
    path = config_by_label(cell.label).build(
        kind_by_name(cell.kind), cell.workload.bytes_per_client, seed=cell.seed
    )
    path.device.unconstrain()
    summary = replay(path, traces, posix_window=cell.workload.posix_window)
    return summary.aggregate_mb


def run_cell(
    cell: Cell,
    cache: Optional["ResultCache"] = None,
    keep_metrics: bool = False,
) -> CellResult:
    """Compute one cell and collect every figure's quantities.

    The only scalar cell runner: builds the storage path (the ION fabric
    derated when the cell says so), attaches the overlays — aging via
    :func:`repro.lifetime.sweep.age_device`, then the device fault
    regime — replays the workload, emits the sim spans and, for a
    ``with_remaining`` cell, adds the peak replay.  Returns a
    :class:`ConfigResult`, or a ``LifetimeCellResult`` for an aged cell.

    ``cache``, when given, serves the whole cell — or at least the peak
    replay — from prior identical runs (``keep_metrics=True`` bypasses
    the cell cache because metrics objects are never cached).  Storing
    the result is the caller's job (:class:`MatrixEngine` does it).
    """
    if cache is not None and not keep_metrics:
        hit = cache.get_cell(cell)
        if hit is not None:
            return hit
    if cell.derate <= 0.0:  # the fabric delivers nothing: unreachable
        return ConfigResult(
            label=cell.label, kind=cell.kind, bandwidth_mb=0.0,
            aggregate_mb=0.0, remaining_mb=0.0, channel_utilization=0.0,
            package_utilization=0.0,
        )
    # the builders' arguments stay expressions over ``cell``: the flow
    # analysis writes a builder's live FTL back into any plain name it
    # is passed, which would mark the cell itself unpicklable
    if cell.derate != 1.0:
        path = make_ion_device(
            kind_by_name(cell.kind), cell.workload.bytes_per_client,
            seed=cell.seed,
            gpfs_efficiency=GPFS_CLIENT_EFFICIENCY * cell.derate,
        )
    else:
        path = config_by_label(cell.label).build(
            kind_by_name(cell.kind), cell.workload.bytes_per_client,
            seed=cell.seed,
        )
    workload = cell.workload
    recorder = None
    if cell.age is not None:
        from ..lifetime.sweep import age_device

        recorder = age_device(path.device, cell)
    fault_model = None
    if cell.device_faults is not None:
        fault_model = cell.device_faults.plan().device_model(
            path.device.kind, path.device.geom
        )
        path.device.attach_faults(fault_model)
    traces = workload.traces(path.clients)
    summary = replay(path, traces, posix_window=workload.posix_window)
    m = summary.metrics
    tr = obs.tracer()
    if tr is not None:
        emit_replay_spans(tr, cell, m)
    if recorder is not None:
        from ..lifetime.sweep import lifetime_result

        return lifetime_result(
            cell, path.device, recorder, fault_model,
            summary.bandwidth_mb, summary.aggregate_mb,
        )
    remaining = 0.0
    if cell.with_remaining:
        peak = cache.get_peak(cell) if cache is not None else None
        if peak is None:
            peak = _unconstrained_media_peak(cell, traces)
            if cache is not None:
                cache.put_peak(cell, peak)
        remaining = max(0.0, peak - summary.aggregate_mb)
    return ConfigResult(
        label=cell.label,
        kind=cell.kind,
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
    """:func:`run_cell` on a plain (or fault-overlaid) Table-2 cell."""
    cell = Cell(
        getattr(config, "label", config), getattr(kind, "name", kind),
        workload, seed, with_remaining, faults=faults,
    )
    return run_cell(cell, cache=cache, keep_metrics=keep_metrics)


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
