"""Typed job specifications for the simulation service.

A job names work the experiment engine already knows how to do — one
matrix cell, a (configs x kinds) grid, a whole figure, or the headline
claims — plus scheduling attributes (priority, deadline).  Every spec
is frozen, validates itself eagerly (a bad label is rejected at
admission, not minutes later inside a worker), serialises to a flat
JSON dict for the wire protocol, and exposes a deterministic
:meth:`JobSpec.key` aligned with the :class:`~repro.experiments.cache`
key schema so identical in-flight jobs can be coalesced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..experiments.cache import SCHEMA_VERSION
from ..experiments.configs import TABLE2_CONFIGS
from ..experiments.runner import DEFAULT_WORKLOAD, Cell, Workload
from ..nvm.kinds import KINDS

__all__ = [
    "ServiceError",
    "JobValidationError",
    "JobSpec",
    "CellJob",
    "MatrixJob",
    "FigureJob",
    "HeadlineJob",
    "LifetimeJob",
    "NetfaultJob",
    "job_from_dict",
    "FIGURE_NAMES",
]

VALID_LABELS = frozenset(c.label for c in TABLE2_CONFIGS)
VALID_KINDS = frozenset(k.name for k in KINDS)
FIGURE_NAMES = ("figure7", "figure8", "figure9", "figure10")


class ServiceError(Exception):
    """Base service error carrying a machine-readable code + detail."""

    code = "service_error"

    def __init__(self, detail: str, code: Optional[str] = None):
        super().__init__(detail)
        if code is not None:
            self.code = code
        self.detail = detail

    def to_dict(self) -> dict:
        return {"error": self.code, "detail": self.detail}


class JobValidationError(ServiceError):
    """The job spec itself is malformed (unknown label/kind/figure...)."""

    code = "invalid_job"


def _check_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise JobValidationError(f"{name} must be an int, got {value!r}")


def _check_axes(labels, kinds) -> None:
    """Reject any config label or NVM kind outside Table 2 / Table 1."""
    for label in labels:
        if label not in VALID_LABELS:
            raise JobValidationError(
                f"unknown config label {label!r}; have {sorted(VALID_LABELS)}"
            )
    for kind in kinds:
        if kind not in VALID_KINDS:
            raise JobValidationError(
                f"unknown NVM kind {kind!r}; have {sorted(VALID_KINDS)}"
            )


@dataclass(frozen=True)
class JobSpec:
    """Common scheduling attributes; subclasses add the work payload.

    ``priority``: higher values dispatch first (FIFO within a level).
    ``deadline_s``: wall-clock budget from admission; a job still
    queued when it lapses fails with ``deadline_expired`` instead of
    occupying an executor slot.
    ``timeout_s``: wall-clock budget for the *execution* itself; a pass
    that outlives it fails with the typed ``timeout`` code (overrides
    the service-wide ``job_timeout_s`` default).
    ``trace_id``: opaque client correlation id stamped onto the obs
    spans this job produces.  Deliberately **not** part of the
    coalescing key: two identical jobs with different trace ids still
    compute once.
    ``arrival_offset_s``: seconds after replay start at which this job
    arrives when driven from a recorded trace
    (:mod:`repro.netfault.replay`).  Like ``trace_id`` it describes
    *when* the job was observed, not *what* it computes, so it is
    excluded from coalescing/cache keys.
    """

    workload: Workload = DEFAULT_WORKLOAD
    seed: int = 1013
    with_remaining: bool = True
    priority: int = 0
    deadline_s: Optional[float] = None
    timeout_s: Optional[float] = None
    trace_id: Optional[str] = None
    arrival_offset_s: float = 0.0

    job_type = "abstract"

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        _check_int("seed", self.seed)
        _check_int("priority", self.priority)
        if self.workload.panels < 1 or self.workload.panel_bytes < 1:
            raise JobValidationError(
                f"workload must stream at least one panel byte, got "
                f"panels={self.workload.panels} panel_bytes={self.workload.panel_bytes}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise JobValidationError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise JobValidationError(
                f"timeout_s must be positive, got {self.timeout_s!r}"
            )
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise JobValidationError(
                f"trace_id must be a string, got {self.trace_id!r}"
            )
        if (
            not isinstance(self.arrival_offset_s, (int, float))
            or isinstance(self.arrival_offset_s, bool)
            or self.arrival_offset_s < 0
        ):
            raise JobValidationError(
                f"arrival_offset_s must be a non-negative number, "
                f"got {self.arrival_offset_s!r}"
            )

    # -- identity -------------------------------------------------------
    def key(self) -> str:
        """Coalescing identity: equal keys -> field-for-field equal results."""
        blob = json.dumps(self._key_parts(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _key_parts(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "job": self.job_type,
            "workload": dataclasses.asdict(self.workload),
            "seed": self.seed,
            "with_remaining": bool(self.with_remaining),
            **self._work(),
        }

    def _work(self) -> dict:
        """The subclass's work fields, JSON-safe: axes become lists
        (numeric ones of floats, so ``0`` and ``0.0`` key alike)."""
        work = {}
        for f in dataclasses.fields(self):
            if f.name in _SCHEDULING_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                numeric = f.name in _NUMERIC_AXES
                value = [float(v) for v in value] if numeric else list(value)
            work[f.name] = value
        return work

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict:
        d = {
            "job": self.job_type,
            "workload": dataclasses.asdict(self.workload),
            "seed": self.seed,
            "with_remaining": self.with_remaining,
            "priority": self.priority,
        }
        if self.deadline_s is not None:
            d["deadline_s"] = self.deadline_s
        if self.timeout_s is not None:
            d["timeout_s"] = self.timeout_s
        if self.trace_id is not None:
            d["trace_id"] = self.trace_id
        if self.arrival_offset_s:
            d["arrival_offset_s"] = self.arrival_offset_s
        return {**d, **self._work()}

    def describe(self) -> str:
        return self.job_type


@dataclass(frozen=True)
class CellJob(JobSpec):
    """One Table-2 matrix cell: ``(config label, NVM kind)``."""

    label: str = ""
    kind: str = ""

    job_type = "cell"

    def validate(self) -> None:
        super().validate()
        _check_axes((self.label,), (self.kind,))

    def key(self) -> str:
        # exactly the ResultCache cell key: the service coalesces on the
        # same identity the cache stores under
        return Cell(
            self.label, self.kind, self.workload, self.seed, self.with_remaining
        ).key()

    def describe(self) -> str:
        return f"cell({self.label}, {self.kind})"


@dataclass(frozen=True)
class MatrixJob(JobSpec):
    """A (config labels x NVM kinds) grid, one engine pass."""

    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()

    job_type = "matrix"

    def validate(self) -> None:
        super().validate()
        if not self.labels or not self.kinds:
            raise JobValidationError("matrix job needs at least one label and kind")
        _check_axes(self.labels, self.kinds)

    def describe(self) -> str:
        return f"matrix({len(self.labels)}x{len(self.kinds)})"


@dataclass(frozen=True)
class FigureJob(JobSpec):
    """One full paper exhibit (figure7..figure10), rendered as text."""

    figure: str = ""

    job_type = "figure"

    def validate(self) -> None:
        super().validate()
        if self.figure not in FIGURE_NAMES:
            raise JobValidationError(
                f"unknown figure {self.figure!r}; have {list(FIGURE_NAMES)}"
            )

    def describe(self) -> str:
        return self.figure


@dataclass(frozen=True)
class HeadlineJob(JobSpec):
    """The paper's headline claims (Section 1 numbers)."""

    job_type = "headline"

    def describe(self) -> str:
        return "headline"


@dataclass(frozen=True)
class LifetimeJob(JobSpec):
    """An aged-device capacity sweep: labels x kinds x age fractions.

    ``ages`` are fractions of rated lifetime in ``[0, 1)``;
    ``wear_policy`` is one of :data:`repro.lifetime.WEAR_POLICIES`.
    """

    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    ages: tuple[float, ...] = (0.0, 0.5, 0.9)
    wear_policy: str = "dynamic"

    job_type = "lifetime"

    def validate(self) -> None:
        super().validate()
        from ..lifetime.wear import WEAR_POLICIES

        if not self.labels or not self.kinds or not self.ages:
            raise JobValidationError(
                "lifetime job needs at least one label, kind and age"
            )
        _check_axes(self.labels, self.kinds)
        for age in self.ages:
            if not isinstance(age, (int, float)) or not 0.0 <= age < 1.0:
                raise JobValidationError(
                    f"ages must be fractions in [0, 1), got {age!r}"
                )
        if self.wear_policy not in WEAR_POLICIES:
            raise JobValidationError(
                f"unknown wear policy {self.wear_policy!r}; "
                f"have {list(WEAR_POLICIES)}"
            )

    def describe(self) -> str:
        return (
            f"lifetime({len(self.labels)}x{len(self.kinds)}"
            f"x{len(self.ages)}, {self.wear_policy})"
        )


@dataclass(frozen=True)
class NetfaultJob(JobSpec):
    """A lossy-fabric sweep: loss rates x labels x kinds.

    Re-plots the CNL-vs-ION gap under fabric degradation (see
    :mod:`repro.netfault`); ``net_seed`` seeds the per-packet loss
    oracle, ``mtu_bytes`` sets the frame size.
    """

    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05)
    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    net_seed: int = 0
    mtu_bytes: int = 4096

    job_type = "netfault"

    def validate(self) -> None:
        super().validate()
        if not self.loss_rates:
            raise JobValidationError("netfault job needs at least one loss rate")
        for rate in self.loss_rates:
            if (
                not isinstance(rate, (int, float))
                or isinstance(rate, bool)
                or not 0.0 <= rate <= 1.0
            ):
                raise JobValidationError(
                    f"loss rates must be fractions in [0, 1], got {rate!r}"
                )
        _check_axes(self.labels, self.kinds)
        _check_int("net_seed", self.net_seed)
        if not isinstance(self.mtu_bytes, int) or self.mtu_bytes < 1:
            raise JobValidationError(
                f"mtu_bytes must be a positive int, got {self.mtu_bytes!r}"
            )

    def describe(self) -> str:
        return (
            f"netfault({len(self.loss_rates)} rates, "
            f"{len(self.labels) or 'all'}x{len(self.kinds) or 'all'})"
        )


#: JobSpec's own fields: scheduling attributes plus the shared inputs
#: (workload, seed, with_remaining), serialised by JobSpec itself
_SCHEDULING_FIELDS = frozenset(f.name for f in dataclasses.fields(JobSpec))
#: work axes whose items are numbers
_NUMERIC_AXES = frozenset({"ages", "loss_rates"})

_JOB_TYPES: dict[str, type[JobSpec]] = {
    "cell": CellJob,
    "matrix": MatrixJob,
    "figure": FigureJob,
    "headline": HeadlineJob,
    "lifetime": LifetimeJob,
    "netfault": NetfaultJob,
}


def job_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Parse + validate a wire-format job dict; raises JobValidationError."""
    if not isinstance(data, Mapping):
        raise JobValidationError(f"job must be an object, got {type(data).__name__}")
    job_type = data.get("job")
    cls = _JOB_TYPES.get(job_type)
    if cls is None:
        raise JobValidationError(
            f"unknown job type {job_type!r}; have {sorted(_JOB_TYPES)}"
        )
    kwargs: dict[str, Any] = {}
    try:
        if "workload" in data:
            w = data["workload"]
            if not isinstance(w, Mapping):
                raise JobValidationError("workload must be an object")
            known = {f.name for f in dataclasses.fields(Workload)}
            bad = set(w) - known
            if bad:
                raise JobValidationError(
                    f"unknown workload field(s) {sorted(bad)}; have {sorted(known)}"
                )
            kwargs["workload"] = Workload(**w)
        for f in dataclasses.fields(cls):
            if f.name != "workload" and f.name in data:
                value = data[f.name]
                kwargs[f.name] = tuple(value) if isinstance(f.default, tuple) else value
        spec = cls(**kwargs)
    except JobValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobValidationError(f"malformed job: {exc}") from None
    spec.validate()
    return spec
