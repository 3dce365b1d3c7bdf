"""OBS — observability misuse inside the simulation layers.

The tracer (:mod:`repro.obs.trace`) has two clock domains, and only one
of them is legal inside the determinism-gated directories: ``sim_span``
takes explicit DES timestamps and reads no clock, while ``wall_span`` /
``wall_event`` read ``perf_counter``.  A wall-domain span inside
``sim/``, ``ssd/``, ``nvm/``, ``fs/``, ``cluster/`` or ``faults/``
would thread wall time through code whose outputs must be a pure
function of ``(config, workload, seed)`` — the same hazard DET001
guards against, arriving through the observability API instead of the
``time`` module:

* ``OBS001`` — ``wall_span``/``wall_event`` calls (or imports) in a
  det-gated file; emit ``sim_span`` with DES timestamps there, or move
  the instrumentation up into the experiments/service layer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding
from ..registry import FileChecker, dotted_name, register

__all__ = ["ObsChecker"]

#: wall-clock tracer entry points, matched by attribute/function name
_WALL_APIS = frozenset({"wall_span", "wall_event"})


@register
class ObsChecker(FileChecker):
    codes = {
        "OBS001": "wall-clock span recorded inside a simulation layer",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.det_gated:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail in _WALL_APIS:
                    yield ctx.finding(
                        "OBS001",
                        node,
                        f"`{name}()` records wall-clock time inside a "
                        "simulation layer; sim-domain code must emit "
                        "`sim_span` with explicit DES timestamps "
                        "(wall spans belong in experiments/ or service/)",
                    )
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _WALL_APIS:
                        yield ctx.finding(
                            "OBS001",
                            node,
                            f"importing `{alias.name}` into a simulation "
                            "layer invites wall-clock spans there; use "
                            "`sim_span` with DES timestamps instead",
                        )
