"""Operation timing scaled to a nominal host speed.

On a shared host the same work can take 20-40% longer for tens of
seconds at a time, because other tenants contend for the cores and
caches.  Medians within a run cannot remove a slowdown that lasts the
whole run, so each timed operation of the packet and storm workloads
is bracketed by a short probe that does the same kind of work and uses
nothing from the package: a pure-Python event loop (heap pops and
pushes over small objects).  An operation's scaled time is its wall
time multiplied by the probe's nominal time over the mean of the
probes taken right before and right after it: the time it would have
taken on a host where the probe takes its nominal time.  On the storm
this cut the run-to-run spread of its time from ~0.25 to ~0.05 of the
median.  A workload whose operations the probe does not track (one
long vectorized call) is timed raw.

A change to the package cannot move the probe as long as the package
leaves nothing running between operations: no thread besides the main
one, no live child process, and the garbage collector's thresholds as
they were when this module was imported.  Each probe first checks that
and records a fault otherwise (``take_faults``), which the benchmark
reports as an unexpected failure.  The raw wall times are printed and
kept next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import threading
import time
from typing import Dict, List, Optional

_PROBE_EVENTS = 25_000
_PROBE_NODES = 256

#: The collector's thresholds the probes are calibrated under.
_GC_THRESHOLD = gc.get_threshold()

#: What was found running at a probe since the last ``take_faults()``
#: (an insertion-ordered set).
_faults: Dict[str, None] = {}


def _check_quiet() -> None:
    """Record a fault if anything could slow the probe besides the host."""
    threads = threading.active_count()
    if threads != 1:
        _faults[f"{threads} threads alive at a timing probe"] = None
    children = multiprocessing.active_children()
    if children:
        _faults[f"{len(children)} child processes alive at a timing probe"] = None
    if gc.get_threshold() != _GC_THRESHOLD:
        message = (
            f"gc thresholds {gc.get_threshold()} at a timing probe, "
            f"calibrated under {_GC_THRESHOLD}"
        )
        _faults[message] = None


def take_faults() -> List[str]:
    """The faults recorded since the last call, in order."""
    faults = list(_faults)
    _faults.clear()
    return faults


class _Node:
    __slots__ = ("id", "recent", "sent", "peer")

    def __init__(self, i: int) -> None:
        self.id = i
        self.recent: List[float] = []
        self.sent = 0
        self.peer: Optional["_Node"] = None


def probe() -> float:
    """Seconds a fixed event loop takes now (garbage collection off):
    the packet simulator's and the SM's kind of work."""
    _check_quiet()
    nodes = [_Node(i) for i in range(_PROBE_NODES)]
    for node in nodes:
        node.peer = nodes[(node.id * 7 + 3) % _PROBE_NODES]
    route = {i: (i * 31) % _PROBE_NODES for i in range(4096)}
    heap = [((i * 0.618) % 1.0, i, nodes[i]) for i in range(_PROBE_NODES)]
    heapq.heapify(heap)
    seq = _PROBE_NODES
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_PROBE_EVENTS):
            now, _, node = heapq.heappop(heap)
            node.recent.append(now)
            node.sent += 1
            if len(node.recent) > 4:
                node.recent.pop(0)
            nxt = nodes[route[(node.id + node.sent) & 4095]]
            seq += 1
            heapq.heappush(heap, (now + 0.5 + (seq % 13) * 0.01, seq, nxt.peer))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


#: Probe time that defines the nominal host speed (the probe's median
#: on the 2-core host the benchmark was written on).
NOMINAL_PROBE_S = 0.027


class OpTimer:
    """Times consecutive operations, raw and scaled.

    ``start()`` collects garbage when ``collect`` is set (untimed, so
    each operation pays only for the collections its own allocations
    trigger) and starts the clock; ``stop()`` records the operation.
    The probe after one operation serves as the probe before the next.
    """

    def __init__(self, scale: bool, collect: bool = True) -> None:
        self.scale = scale
        self.collect = collect
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self._before: Optional[float] = None
        self._t0 = 0.0

    def start(self) -> None:
        if self.collect:
            gc.collect()
        if self.scale and self._before is None:
            self._before = probe()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """Record the operation; returns its raw seconds."""
        raw = time.perf_counter() - self._t0
        self.raw.append(raw)
        if self.scale:
            after = probe()
            self.scaled.append(raw * NOMINAL_PROBE_S * 2 / (self._before + after))
            self._before = after
        else:
            self.scaled.append(raw)
        return raw
