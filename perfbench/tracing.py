"""Spans, counters and profiler attribution for the traced run.

A :class:`Tracer` keeps spans (name, start, end, parent) in memory and
writes them out once, as Chrome trace-event JSON, when the run ends.
The untraced run uses :data:`NO_TRACE`, whose ``span`` returns one
shared no-op context, so the measured code paths are the same in both
modes.

:func:`instrument` wraps the library calls that public entry points
make internally (topology build, scheme and LFT construction, route
kernel compile, SM repair steps, snapshot publication, flow-model
compile and store load) for the duration of a traced run, then puts
the originals back.  The wrappers live here; nothing under ``src/``
is changed.

:class:`ModuleProfiler` attributes self time by module with the stdlib
profiler, for the two single calls that hide several layers
(``Subnet.run_measurement`` and the storm's ``engine.run``).
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Modules whose profiler-attributed self time the traced run reports.
PROFILED_MODULES = (
    "sim.wheel",
    "ib.fastpath",
    "ib.link",
    "ib.switch",
    "ib.endnode",
    "traffic",
    "runtime.manager",
    "core.fault_kernel",
    "core.kernel",
)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[i]) / 1e9
        return dict(out)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        t0 = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": 1,
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}))


class _NoTrace:
    """Stand-in for the untraced run: a span costs one call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()


def _wrap(tracer: Tracer, name: str, fn, counter: Optional[str] = None):
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        if counter:
            tracer.count(counter)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the internal layer boundaries in spans, then restore them.

    Each target is patched where the caller looks it up (a module
    global or a class attribute), so objects built inside the block
    report through the tracer.  Build the storm inside the block: the
    SM binds its event handlers when it is armed.
    """
    from repro.core.kernel import RouteKernel
    from repro.experiments import flowlevel, modelstore
    from repro.ib import artifacts, sm, subnet
    from repro.runtime import manager
    from repro.service import snapshot

    saved = []

    def patch(owner, attr, name, counter=None):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            inner = _wrap(tracer, name, original.__func__, counter)
            setattr(owner, attr, classmethod(inner))
        else:
            setattr(owner, attr, _wrap(tracer, name, original, counter))

    for module in (artifacts, subnet, flowlevel):
        patch(module, "FatTree", "topology.build")
        patch(module, "get_scheme", "core.scheme")
    patch(sm.SubnetManager, "configure", "core.scheme")
    patch(RouteKernel, "from_lfts", "core.kernel_compile", "core.kernel_compiles")
    for step in ("_fire", "_resweep", "_program_step", "_finish_record"):
        patch(manager.DynamicSubnetManager, step, "sm.run")
    patch(snapshot.SnapshotPublisher, "publish_now", "service.publish")
    patch(flowlevel, "build_flow_model", "flow.compile")
    patch(modelstore, "load_model", "flow.store_load")
    patch(modelstore, "save_model", "flow.store_save")
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _module_of(filename: str) -> Optional[str]:
    """``.../repro/sim/wheel.py`` -> ``sim.wheel``; the ``traffic``
    package counts as one module."""
    path = Path(filename)
    if "repro" not in path.parts or path.suffix != ".py":
        return None
    parts = path.with_suffix("").parts
    rel = parts[len(parts) - parts[::-1].index("repro"):]
    if rel and rel[0] == "traffic":
        return "traffic"
    return ".".join(rel) or None


class ModuleProfiler:
    """Accumulates stdlib-profiler self time by module over the calls
    it wraps (``with profiler:``); everything else runs unprofiled."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def __enter__(self):
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()

    def self_times(self) -> Dict[str, float]:
        stats = pstats.Stats(self._profile)
        out: Dict[str, float] = defaultdict(float)
        for (filename, _, _), row in stats.stats.items():
            module = _module_of(filename)
            if module is not None:
                out[module] += row[2]  # tottime
        return {m: out.get(m, 0.0) for m in PROFILED_MODULES}

