"""Per-layer wall-clock attribution for the traced benchmark run.

The program has no tracing of its own that covers every layer, so the
traced run wraps the public functions each layer exposes, from the
benchmark side.  A wrapper is installed where the *caller* looks the
name up: a function imported by name (``from .metrics import
compute_metrics``) is patched in the importing module, a method is
patched on every class that defines it.  :meth:`LayerTracer.remove`
puts every original back, so untraced passes run unpatched code.

Each call is a span.  A layer's self time is the span's duration minus
the time its child spans (calls into any wrapped layer) cover; spans
nest per thread, so the service workload's executor threads keep
separate stacks.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: (layer, module, attribute path, count hook).  The attribute path is
#: ``name`` for a module-level binding or ``Class.method`` for a method,
#: which is also wrapped on every subclass that overrides it.
SITES: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("fs.translate", "repro.fs.base", "FileSystemModel.translate", None),
    ("batch.plan", "repro.batch.backend", "plan_cell", None),
    ("batch.stack", "repro.batch.backend", "stack_plans", "batch.stacked_rows"),
    ("batch.metrics", "repro.batch.backend", "compute_metrics_batch", None),
    ("batch.pattern_peak", "repro.batch.metrics", "pattern_peak_from_log", None),
    ("ssd.run", "repro.ssd.controller", "SSDevice.run", "ssd.txns"),
    ("ssd.schedule", "repro.ssd.scheduler", "TransactionScheduler.submit", None),
    ("ssd.schedule", "repro.ssd.scheduler", "TransactionScheduler.finish", None),
    ("ssd.translate", "repro.ssd.ftl", "DeviceFTL.translate", None),
    ("ssd.metrics", "repro.ssd.controller", "compute_metrics", None),
    ("lifetime.install_age", "repro.lifetime", "install_age", None),
    ("lifetime.install_age", "repro.lifetime.sweep", "install_age", None),
    ("trace.replay", "repro.trace.replay", "replay", None),
    ("trace.replay", "repro.experiments.runner", "replay", None),
    ("trace.replay", "repro.experiments.sensitivity", "replay", None),
    ("trace.replay", "repro.experiments.future", "replay", None),
    ("trace.replay", "repro.lifetime.sweep", "replay", None),
    ("trace.replay", "repro.netfault.exhibit", "replay", None),
    ("netfault.exhibit", "repro.netfault.exhibit", "netfault_exhibit", None),
    ("experiments.engine", "repro.experiments.parallel", "MatrixEngine.run_cells", None),
    ("experiments.cache_get", "repro.experiments.cache", "ResultCache.get_cell", None),
    ("experiments.cache_get", "repro.experiments.cache", "ResultCache.get_peak", None),
    ("experiments.cache_get", "repro.experiments.cache", "ResultCache.get_lifetime", None),
    ("experiments.cache_put", "repro.experiments.cache", "ResultCache.put_cell", None),
    ("experiments.cache_put", "repro.experiments.cache", "ResultCache.put_peak", None),
    ("experiments.cache_put", "repro.experiments.cache", "ResultCache.put_lifetime", None),
    ("service.execute", "repro.service.executor", "execute_job", None),
    ("lint.paths", "repro.lint.runner", "lint_paths", None),
    ("flow.analysis", "repro.lint.rules.flow", "analyze_contexts", None),
)

#: modules whose import registers the subclasses that override a
#: wrapped method (GPFS/UFS translate, the columnar scheduler)
_SUBCLASS_MODULES = ("repro.fs.registry", "repro.core.ufs", "repro.batch.scheduler")


def _count_of(hook: str, result) -> int:
    if hook == "ssd.txns":
        return len(result.log)
    return int(result)


def _all_subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


class LayerTracer:
    """Installs the :data:`SITES` wrappers and accumulates span times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.total_s.clear()
            self.counts.clear()

    def _wrap(self, layer: str, fn: Callable, hook: Optional[str]) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.total_s[layer] += dt
                    self.self_s[layer] += dt - frame[0]
            if hook is not None:
                n = _count_of(hook, result)
                with self._lock:
                    self.counts[hook] += n
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def _patch(self, owner: object, attr: str, layer: str, hook: Optional[str]) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, hook))

    def install(self) -> None:
        """Wrap every site; raises if already installed."""
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        for name in _SUBCLASS_MODULES:
            importlib.import_module(name)
        for layer, module_name, path, hook in SITES:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                for cls in _all_subclasses(getattr(module, cls_name)):
                    if method in cls.__dict__:
                        self._patch(cls, method, layer, hook)
            else:
                self._patch(module, path, layer, hook)

    def remove(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
