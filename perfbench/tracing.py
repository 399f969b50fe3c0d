"""Outside-in layer timing: wrap public functions of each layer.

The tracer replaces a layer's entry points (module functions, methods)
with timing wrappers while it is installed and puts the originals back
on :meth:`LayerTracer.uninstall`.  Nothing in the program changes; the
wrappers only add host time, which the traced run reports as
``obs.trace_overhead``.

Each thread keeps its own totals, so a serving thread can attribute the
time its own request spent in a layer.  A layer re-entered on the same
thread (a subclass calling ``super()``) is timed once.  Time inside the
outermost wrapped call of a thread is *covered*; the remainder of an
operation's wall time is *unattributed*.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (layer, dotted function path) — every module holding the function
#: under that name gets the wrapper
FUNCTION_HOOKS = (
    ("pattern.plan", "repro.pattern.plan.build_plan"),
    ("codegen.compile", "repro.codegen.compile.compile_kernel"),
    ("core.kernel", "repro.core.kernel.run_kernel"),
    ("parallel.run_shards", "repro.parallel.executor.run_shards"),
    ("dynamic.count_delta", "repro.dynamic.incremental.count_delta"),
)

#: (layer, dotted class path, attribute)
METHOD_HOOKS = (
    ("candidates.compute", "repro.core.candidates.CandidateComputer", "compute_frame"),
    ("candidates.compute", "repro.core.candidates.CandidateComputer", "root_frame"),
    ("candidates.compute", "repro.codegen.computer.CodegenCandidateComputer", "compute_frame"),
    ("candidates.compute", "repro.codegen.computer.CodegenCandidateComputer", "root_frame"),
    ("core.scheduler", "repro.virtgpu.scheduler.EventScheduler", "run"),
    ("scale.replicate", "repro.scale.partition.PartitionedGraph", "replicate"),
    ("dynamic.compact", "repro.dynamic.overlay.OverlayGraph", "compact"),
)


def _resolve(path: str) -> tuple[Any, str] | None:
    """``(owner, attribute)`` of a dotted path, or ``None`` if absent."""
    module_name, _, attr = path.rpartition(".")
    parts = module_name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, attr) if hasattr(owner, attr) else None
    return None


class _ThreadState:
    def __init__(self) -> None:
        self.active: set[str] = set()
        self.depth = 0
        self.covered = 0.0
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.results: dict[str, int] = defaultdict(int)


class LayerTracer:
    """Installs timing wrappers on the hooks above and sums their time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.plans_observed = 0

    # -- per-thread accounting -------------------------------------------

    def _state(self) -> _ThreadState:
        st: _ThreadState | None = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to add its wall time to ``layer``; an integer
        result (the scheduler's step count) is summed as well."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = tracer._state()
            if layer in st.active:
                return fn(*args, **kwargs)
            st.active.add(layer)
            st.depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.depth -= 1
                st.active.discard(layer)
                st.seconds[layer] += dt
                st.calls[layer] += 1
                if st.depth == 0:
                    st.covered += dt
            if isinstance(result, int) and not isinstance(result, bool):
                st.results[layer] += result
            return result

        return wrapper

    def thread_seconds(self, layer: str) -> float:
        """Seconds the calling thread has spent in ``layer`` so far."""
        return self._state().seconds.get(layer, 0.0)

    def snapshot(self) -> dict[str, Any]:
        """Totals over every thread: seconds, calls and summed integer
        results per layer, and the covered seconds."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        results: dict[str, int] = defaultdict(int)
        covered = 0.0
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.seconds.items():
                seconds[k] += v
            for k, n in st.calls.items():
                calls[k] += n
            for k, n in st.results.items():
                results[k] += n
            covered += st.covered
        return {"seconds": dict(seconds), "calls": dict(calls),
                "results": dict(results), "covered": covered,
                "plans_observed": self.plans_observed}

    def mark(self, section: str) -> dict[str, Any]:
        """:meth:`snapshot` tagged as the end of ``section``."""
        return {**self.snapshot(), "section": section}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        # resolve (and so import) every hook before swapping any: a module
        # imported mid-install would bind a wrapper and keep it afterwards
        functions = [(layer, path, _resolve(path)) for layer, path in FUNCTION_HOOKS]
        methods = [(layer, f"{cls_path}.{attr}", _resolve(cls_path), attr)
                   for layer, cls_path, attr in METHOD_HOOKS]
        for layer, path, found in functions:
            self._wrap_function(layer, path, found)
        for layer, path, found, attr in methods:
            self._wrap_method(layer, path, found, attr)
        self._observe_plans(True)

    def uninstall(self) -> None:
        self._observe_plans(False)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap_function(self, layer: str, path: str,
                       found: tuple[Any, str] | None) -> None:
        if found is None:
            self.missing.append(path)
            return
        owner, attr = found
        original = getattr(owner, attr)
        wrapper = self.timed(layer, original)
        # every module that imported the function by name holds its own
        # reference; swap each one
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _wrap_method(self, layer: str, path: str, found: tuple[Any, str] | None,
                     attr: str) -> None:
        if found is None:
            self.missing.append(path)
            return
        owner, name = found
        cls = getattr(owner, name)
        raw = cls.__dict__.get(attr)
        if raw is None:
            return  # inherited: the base class's wrapper covers it
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.timed(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.timed(layer, raw.__func__))
        else:
            patched = self.timed(layer, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def _observe_plans(self, on: bool) -> None:
        found = _resolve("repro.pattern.plan.add_plan_observer")
        if found is None:
            return
        module = found[0]
        if on:
            module.add_plan_observer(self._on_plan)
        elif hasattr(module, "remove_plan_observer"):
            module.remove_plan_observer(self._on_plan)

    def _on_plan(self, plan: Any) -> None:
        with self._lock:
            self.plans_observed += 1


def diff(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """``after - before`` of two :meth:`LayerTracer.snapshot` results."""
    out: dict[str, Any] = {}
    for key in ("seconds", "calls", "results"):
        keys = set(after[key]) | set(before[key])
        out[key] = {k: after[key].get(k, 0) - before[key].get(k, 0) for k in keys}
    out["covered"] = after["covered"] - before["covered"]
    out["plans_observed"] = after["plans_observed"] - before["plans_observed"]
    return out
