"""Device-layer fault overlay: die failures and ECC read retries.

The model sits *behind* the transaction scheduler: it never perturbs
the resource timelines (which stay bit-identical to the fault-free
schedule), it converts injected faults into controller-visible latency
penalties on the affected command's completion time — exactly how a
real SSD surfaces read-retry and die-recovery: the command simply takes
longer.  The penalized completion then flows through the replay loop's
flow-control windows, so faults slow the whole stream realistically.

Two fault classes, both derived from the Table-1 endurance budgets via
:func:`~repro.faults.plan.media_wear_factor`:

* **transient media faults** — with probability ``read_fault_rate x
  wear_factor`` a read command needs ECC retry rounds; round *i* costs
  ``retry_latency_ns * 2**i`` (the controller re-senses with adjusted
  thresholds, backing off).  A command still failing after the retry
  budget is recovered by remap from redundancy (one more ladder step)
  — or raises :class:`TransientMediaFault` in strict mode.
* **die failures** — with probability ``die_failure_rate x wear_factor``
  a die is failed for the whole run; every command touching it pays the
  full recovery ladder (RAIN-style reconstruct), or strict mode raises
  :class:`DieFailure` on first touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..ssd.ftl import FLAT
from .errors import DieFailure, TransientMediaFault
from .plan import FaultEvent, FaultPlan, media_wear_factor

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..nvm.kinds import NVMKind
    from ..ssd.geometry import Geometry

__all__ = ["DeviceFaultModel", "EVENT_LOG_CAP"]

#: recorded FaultEvents are capped (counters keep exact totals)
EVENT_LOG_CAP = 1_000

#: conditional probability one ECC retry round fails again (real
#: read-retry with shifted reference voltages mostly succeeds)
RETRY_RECURRENCE = 0.25


class DeviceFaultModel:
    """Per-device fault state + deterministic injection oracle."""

    def __init__(self, plan: FaultPlan, kind: "NVMKind", geometry: "Geometry") -> None:
        spec = plan.spec
        self.plan = plan
        self.kind_name = kind.name
        wear = media_wear_factor(kind)
        #: per-command read-retry probability, endurance-scaled
        self.read_fault_p = min(0.75, spec.read_fault_rate * wear)
        die_p = min(0.25, spec.die_failure_rate * wear)
        self.failed_dies = frozenset(
            d for d in range(geometry.dies)
            if plan.occurs(die_p, "device", "die", d)
        )
        self.retry_latency_ns = spec.retry_latency_ns
        self.max_retries = spec.max_retries
        self.strict = spec.strict

        # counters (exact, never capped)
        self.faults_injected = 0
        self.retries = 0  # ECC retry rounds issued
        self.read_faults = 0  # commands that needed read-retry
        self.die_fault_hits = 0  # commands that touched a failed die
        self.remapped = 0  # recoveries past the retry budget
        self.penalty_ns = 0
        self.events: list[FaultEvent] = []
        self._events_dropped = 0
        self._seen_failed: set[int] = set()

    # ------------------------------------------------------------------
    def _record(self, event: FaultEvent) -> None:
        self.faults_injected += 1
        if len(self.events) < EVENT_LOG_CAP:
            self.events.append(event)
        else:
            self._events_dropped += 1

    def _ladder_ns(self, rounds: int) -> int:
        """Total latency of ``rounds`` exponential retry rounds."""
        return self.retry_latency_ns * ((1 << rounds) - 1)

    # ------------------------------------------------------------------
    def on_command(
        self,
        seq: int,
        op: str,
        txns: "np.ndarray",
        done: int,
        decode: Callable[[int], tuple],
    ) -> int:
        """Apply injected faults to one completed command.

        ``seq`` is the device-order command sequence number (the
        deterministic site id), ``txns`` the command's transaction
        block (:data:`~repro.ssd.ftl.TXN_COLUMNS`), ``done`` its
        fault-free completion time;
        returns the (possibly penalized) completion.
        """
        plan = self.plan
        penalty = 0

        # -- permanent die failures -------------------------------------
        if self.failed_dies:
            touched = {decode(flat)[2] for flat in txns[:, FLAT].tolist()}
            hit = touched & self.failed_dies
            if hit:
                if self.strict:
                    die = min(hit)
                    raise DieFailure(
                        f"command {seq} touched failed die {die} "
                        f"({self.kind_name})",
                        site=("device", "die", die, seq),
                    )
                self.die_fault_hits += 1
                # full ladder + remap step per failed die touched
                recover = len(hit) * self._ladder_ns(self.max_retries)
                penalty += recover
                self.retries += len(hit) * self.max_retries
                self.remapped += len(hit)
                for die in sorted(hit - self._seen_failed):
                    self._seen_failed.add(die)
                    self._record(FaultEvent(
                        layer="device", kind="die_failure",
                        site=(die, seq), penalty_ns=recover,
                    ))

        # -- transient read faults (ECC retry-with-backoff) -------------
        if op == "read" and plan.occurs(
            self.read_fault_p, "device", "read", seq
        ):
            rounds = 1
            while rounds < self.max_retries and plan.occurs(
                RETRY_RECURRENCE, "device", "ecc", seq, rounds
            ):
                rounds += 1
            recovered = True
            if rounds >= self.max_retries and plan.occurs(
                RETRY_RECURRENCE, "device", "ecc", seq, rounds
            ):
                # budget exhausted and still failing
                if self.strict:
                    raise TransientMediaFault(
                        f"read {seq} uncorrectable after "
                        f"{self.max_retries} retry rounds",
                        site=("device", "read", seq),
                    )
                rounds += 1  # one remap step recovers it
                self.remapped += 1
                recovered = False
            cost = self._ladder_ns(rounds)
            penalty += cost
            self.read_faults += 1
            self.retries += rounds
            self._record(FaultEvent(
                layer="device", kind="transient_media_fault",
                site=(seq,), penalty_ns=cost, recovered=recovered,
            ))

        if penalty:
            self.penalty_ns += penalty
        return done + penalty

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe roll-up carried on results and engine metrics."""
        return {
            "kind": self.kind_name,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "read_faults": self.read_faults,
            "die_fault_hits": self.die_fault_hits,
            "failed_dies": sorted(self.failed_dies),
            "remapped": self.remapped,
            "penalty_ns": self.penalty_ns,
            "events": [e.to_dict() for e in self.events],
            "events_dropped": self._events_dropped,
        }
