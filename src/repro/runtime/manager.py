"""The dynamic subnet manager: online failure handling in a live run.

:class:`DynamicSubnetManager` wraps a built
:class:`~repro.ib.subnet.Subnet` and a
:class:`~repro.runtime.schedule.FaultSchedule` and drives the full
failure lifecycle *inside* the discrete-event simulation:

1. **Physical event** — at the scheduled time the affected
   :class:`~repro.ib.link.Transmitter` pair is failed (in-flight
   packet lost, buffered packets dropped, stale LFT entries keep
   black-holing traffic into the dead port) or revived (flow control
   restarts from the receiver's actual free slots).
2. **Detection** — the SM learns about the change via the
   :class:`~repro.runtime.detection.TrapDetector`
   (``SimConfig.detection_latency_ns``, optional heartbeat
   quantization).
3. **Re-sweep** — the SM snapshots the fabric's current port state
   (sweep semantics: simultaneous failures coalesce into one repair)
   and computes target tables with the vectorized
   :class:`~repro.core.fault_kernel.FaultRepairKernel` (incremental
   across consecutive sweeps; bit-identical to the offline
   :class:`~repro.core.fault.FaultTolerantTables`, which
   ``use_kernel=False`` swaps back in as the oracle path) — or, when
   every link is back, restores the cached initial sweep tables
   bit-for-bit.
4. **Delta programming** — only switches whose table moved are
   reprogrammed, one ``SimConfig.sm_program_time_ns`` apart, through
   the existing :attr:`SwitchModel.lft` swap path (which re-hoists the
   dense forwarding array into every input unit).  The 0-based
   paper-port → 1-based physical-port conversion is the Subnet
   Manager's own (:meth:`repro.ib.sm.SubnetManager.program_delta`).
5. **Metrics** — each completed re-route appends a
   :class:`ReroutingRecord`; :meth:`DynamicSubnetManager.metrics`
   summarizes time-to-detect, time-to-repair, packets lost, flows
   rerouted and post-repair path-length inflation, traced over the
   changed DLID columns only.

Kernel coherence: the shared
:class:`~repro.ib.artifacts.RoutingArtifacts` cache is never mutated
(other subnets may hold the same instance); instead the manager owns a
*live* :class:`~repro.core.kernel.RouteKernel`, invalidated on every
reprogram and lazily recompiled from the switches' current LFTs by
:meth:`DynamicSubnetManager.live_kernel` — incrementally, re-tracing
only the DLID columns whose entries changed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.fault import FaultSet, FaultTolerantTables, LinkId, link_id
from repro.core.fault_kernel import FaultRepairKernel
from repro.core.kernel import RouteKernel, fabric_arrays, trace_columns
from repro.ib.lft import LinearForwardingTable
from repro.ib.link import Transmitter
from repro.ib.sm import SubnetManager
from repro.ib.subnet import Subnet
from repro.runtime.detection import TrapDetector
from repro.runtime.schedule import FaultEvent, FaultSchedule
from repro.topology.labels import SwitchLabel, format_switch

__all__ = ["DynamicSubnetManager", "FailoverMetrics", "ReroutingRecord"]

#: 0-based tables, one array per switch (``row[lid - 1] -> port``) —
#: the numpy mirror of the RoutingScheme.build_tables() shape.
Tables = Dict[SwitchLabel, np.ndarray]


@dataclass(frozen=True)
class ReroutingRecord:
    """One completed detection → repair cycle."""

    kind: str  # "down" or "up"
    t_event: float  # physical state change
    t_detected: float  # SM awareness
    t_repaired: float  # last delta-programmed switch done
    faults_known: int  # failed links the re-sweep routed around
    switches_programmed: int
    entries_changed: int
    flows_rerouted: int  # (src, dst) pairs whose selected path moved
    path_inflation: float  # mean repaired/minimal hop ratio, 1.0 if none

    @property
    def time_to_detect(self) -> float:
        return self.t_detected - self.t_event

    @property
    def time_to_repair(self) -> float:
        return self.t_repaired - self.t_event

    def to_dict(self) -> dict:
        """Stable, JSON-ready form (telemetry / ``failover --json``)."""
        return {
            "kind": self.kind,
            "t_event_ns": self.t_event,
            "t_detected_ns": self.t_detected,
            "t_repaired_ns": self.t_repaired,
            "time_to_detect_ns": self.time_to_detect,
            "time_to_repair_ns": self.time_to_repair,
            "faults_known": self.faults_known,
            "switches_programmed": self.switches_programmed,
            "entries_changed": self.entries_changed,
            "flows_rerouted": self.flows_rerouted,
            "path_inflation": self.path_inflation,
        }


@dataclass
class FailoverMetrics:
    """The failover metrics bundle of one simulation."""

    records: List[ReroutingRecord] = field(default_factory=list)
    packets_lost: int = 0

    def as_row(self) -> dict:
        """Flat summary row (report / CSV columns)."""
        downs = [r for r in self.records if r.kind == "down"]
        detect = [r.time_to_detect for r in self.records]
        repair = [r.time_to_repair for r in self.records]
        return {
            "reroutes": len(self.records),
            "time_to_detect": max(detect) if detect else math.nan,
            "time_to_repair": max(repair) if repair else math.nan,
            "packets_lost": self.packets_lost,
            "flows_rerouted": max((r.flows_rerouted for r in downs), default=0),
            "entries_changed": sum(r.entries_changed for r in self.records),
            "path_inflation": max(
                (r.path_inflation for r in downs), default=1.0
            ),
        }

    def to_dict(self) -> dict:
        """Stable, JSON-ready form: the :meth:`as_row` summary (NaN
        rendered as ``None``) plus the per-record detail.

        This is the one shape telemetry, the ``failover --json`` CLI
        and the route-query service all emit — consumers parse one
        schema instead of three hand-formatted variants.
        """
        summary = {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in self.as_row().items()
        }
        return {
            "summary": summary,
            "packets_lost": self.packets_lost,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        """:meth:`to_dict` serialized deterministically (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class DynamicSubnetManager:
    """Online SM: failure detection, re-routing and path migration."""

    def __init__(
        self,
        net: Subnet,
        schedule: Optional[FaultSchedule] = None,
        heartbeat_period_ns: Optional[float] = None,
        *,
        use_kernel: bool = True,
    ):
        self.net = net
        self.engine = net.engine
        self.ft = net.ft
        self.scheme = net.scheme
        self.cfg = net.cfg
        self.schedule = schedule if schedule is not None else FaultSchedule(net.ft)
        if self.schedule.ft is not net.ft:
            raise ValueError("schedule was built against a different fabric")
        self.detector = TrapDetector(
            net.engine, net.cfg.detection_latency_ns, heartbeat_period_ns
        )
        self.sm = SubnetManager(net.scheme)
        #: physical state: links currently down.
        self.down_links: Set[LinkId] = set()
        #: the fault set the currently-programmed tables route around.
        self.programmed_faults: frozenset = frozenset()
        self.records: List[ReroutingRecord] = []
        # Re-sweep backend: the vectorized fault-repair kernel (compiled
        # lazily on the first faulty sweep; incremental across sweeps)
        # or the scalar oracle when use_kernel=False.
        self.use_kernel = use_kernel
        self.fault_kernel: Optional[FaultRepairKernel] = None
        # Live tables mirrored in 0-based array form for delta
        # computation; the initial sweep's tables double as the
        # recovery target, so full recovery restores the paper-optimal
        # tables bit-for-bit.
        self._live: Tables = {
            sw: model.lft.as_array() - 1
            for sw, model in net.switches.items()
        }
        self._baseline: Tables = {}
        for sw, table in self._live.items():
            frozen = table.copy()
            frozen.setflags(write=False)
            self._baseline[sw] = frozen
        self._baseline_len: Optional[np.ndarray] = None
        # Every off-diagonal (src, dst) flow in row-major order: the
        # source's leaf row and the selected DLID's column.
        num = self.ft.num_nodes
        src, dst = np.nonzero(~np.eye(num, dtype=bool))
        self._pair_leaf = fabric_arrays(self.ft).attach_leaf[src]
        self._pair_lix = net._dlid.reshape(num, num)[src, dst] - 1
        self._armed = False
        # In-flight delta programming (one sweep at a time; a newer
        # sweep supersedes an unfinished one).
        self._pending_ctx: Optional[dict] = None
        # Live-kernel coherence: bumped on every reprogram.
        self._generation = 0
        self._kernel: Optional[RouteKernel] = None
        self._kernel_generation = -1
        #: Optional observer called as ``on_program(time, sw, table)``
        #: after every live LFT swap (the sharded engine's control
        #: plane records the programming timeline through this).
        self.on_program: Optional[Callable[[float, SwitchLabel, LinearForwardingTable], None]] = None
        #: Optional observer called as ``on_sweep(record)`` after each
        #: detection→repair cycle completes (including zero-delta
        #: sweeps).  Fired from inside the engine's callback, after the
        #: sweep's last table swap — the point where :attr:`generation`
        #: and the live LFTs are mutually consistent, which is what the
        #: route-query service's snapshot publisher
        #: (:class:`repro.service.SnapshotPublisher`) hooks.
        self.on_sweep: Optional[Callable[[ReroutingRecord], None]] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every fault event on the engine; returns the count.

        Call once, before running the simulation past the first event.
        """
        if self._armed:
            raise RuntimeError("schedule already armed")
        self._armed = True
        events = self.schedule.sorted_events()
        for event in events:
            self.engine.schedule(
                event.time,
                lambda ev=event: self._fire(ev),
                label=event.action,
            )
        return len(events)

    def _fire(self, event: FaultEvent) -> None:
        if event.action == "link_down":
            self._link_down(event.link)
        elif event.action == "link_up":
            self._link_up(event.link)
        elif event.action == "switch_down":
            for link in self._switch_links(event.switch):
                self._link_down(link, notice=False)
            self._notice("down")
        else:  # switch_up
            for link in self._switch_links(event.switch):
                self._link_up(link, notice=False)
            self._notice("up")

    def _switch_links(self, sw: SwitchLabel) -> List[LinkId]:
        return [
            link_id(sw, port, ep.switch, ep.port)
            for port, ep in enumerate(self.ft.ports(sw))
            if ep.is_switch
        ]

    # ------------------------------------------------------------------
    # Physical state changes
    # ------------------------------------------------------------------
    def _directions(
        self, link: LinkId
    ) -> List[Tuple[Transmitter, SwitchLabel, int]]:
        """Both (transmitter, receiving switch, receiving port) of a link."""
        (a, ap), (b, bp) = tuple(link)
        return [
            (self.net.switches[a].tx[ap + 1], b, bp + 1),
            (self.net.switches[b].tx[bp + 1], a, ap + 1),
        ]

    def _link_down(self, link: LinkId, notice: bool = True) -> None:
        if link in self.down_links:
            return
        self.down_links.add(link)
        for tx, _, _ in self._directions(link):
            tx.fail()
        if notice:
            self._notice("down")

    def _link_up(self, link: LinkId, notice: bool = True) -> None:
        if link not in self.down_links:
            return
        self.down_links.discard(link)
        for tx, peer, phys in self._directions(link):
            # Link retraining: credits restart from the peer input
            # unit's actual free slots (packets that arrived before the
            # failure may still be queued there).
            rx = self.net.switches[peer].rx[phys]
            tx.revive([buf.free_slots for buf in rx.buffers])
        if notice:
            self._notice("up")

    # ------------------------------------------------------------------
    # Detection → re-sweep → delta programming
    # ------------------------------------------------------------------
    def _notice(self, kind: str) -> None:
        t_event = self.engine.now
        self.detector.notice(
            lambda: self._resweep(kind, t_event), label=f"detect-{kind}"
        )

    def _resweep(self, kind: str, t_event: float) -> None:
        """SM awareness fired: sweep port state, repair, program deltas."""
        t_detected = self.engine.now
        known = frozenset(self.down_links)  # sweep sees the live fabric
        if known == self.programmed_faults:
            # The last sweep — completed or still programming — already
            # targets exactly this fault set (e.g. a second trap for a
            # coalesced multi-link event): detected, zero delta.
            self._finish_record(
                kind, t_event, t_detected, t_detected, known, {}, {}
            )
            return
        self._abort_pending()  # a newer sweep supersedes an unfinished one
        target = self._target_tables(known)
        # _program_step rebinds (never mutates) live rows, so aliasing
        # the current arrays snapshots them.
        before = dict(self._live)
        deltas = self.sm.program_delta(self._live, target)
        self.programmed_faults = known
        if not deltas:
            self._finish_record(
                kind, t_event, t_detected, t_detected, known, {}, before
            )
            return
        # Program switch-by-switch: one MAD round per modified switch,
        # serially (fabric order is deterministic — program_delta
        # guarantees it).
        ctx = {
            "kind": kind,
            "t_event": t_event,
            "t_detected": t_detected,
            "known": known,
            "before": before,
            "items": list(deltas.items()),
            "programmed": 0,
            "events": [],
        }
        self._pending_ctx = ctx
        step = self.cfg.sm_program_time_ns
        for i, (sw, (lft, _changed)) in enumerate(ctx["items"]):
            ctx["events"].append(
                self.engine.schedule(
                    t_detected + (i + 1) * step,
                    lambda c=ctx, s=sw, table=lft: self._program_step(
                        c, s, table
                    ),
                    label="sm-program",
                )
            )

    def _target_tables(self, known: frozenset) -> Tables:
        """0-based tables the SM wants programmed for a fault set."""
        if not known:
            # Full recovery: restore the initial sweep, bit-for-bit.
            return dict(self._baseline)
        faults = FaultSet(links=known)
        if not self.use_kernel:
            ftt = FaultTolerantTables(self.scheme, faults)
            return {
                sw: np.asarray(entries, dtype=np.int64)
                for sw, entries in ftt.tables.items()
            }
        if self.fault_kernel is None:
            self.fault_kernel = FaultRepairKernel(self.scheme)
        return self.fault_kernel.repair(faults).table_rows

    def _program_step(
        self, ctx: dict, sw: SwitchLabel, table: LinearForwardingTable
    ) -> None:
        """One SubnSet: swap the switch's LFT through the normal path."""
        self.net.switches[sw].lft = table
        self._live[sw] = table.as_array() - 1
        self._generation += 1  # live kernel is stale now
        if self.on_program is not None:
            self.on_program(self.engine.now, sw, table)
        ctx["programmed"] += 1
        if ctx["programmed"] == len(ctx["items"]):
            self._pending_ctx = None
            self._complete_record(ctx)

    def _abort_pending(self) -> None:
        """Cancel an unfinished delta program (superseded by a newer
        sweep); the switches it did reach stay programmed and are
        recorded, the rest will be covered by the new sweep's delta."""
        ctx = self._pending_ctx
        if ctx is None:
            return
        for event in ctx["events"]:
            event.cancel()
        self._pending_ctx = None
        self._complete_record(ctx)

    def _complete_record(self, ctx: dict) -> None:
        deltas = dict(ctx["items"][: ctx["programmed"]])
        self._finish_record(
            ctx["kind"],
            ctx["t_event"],
            ctx["t_detected"],
            self.engine.now,
            ctx["known"],
            deltas,
            ctx["before"],
        )

    def _finish_record(
        self,
        kind: str,
        t_event: float,
        t_detected: float,
        t_repaired: float,
        known: frozenset,
        deltas: Dict[SwitchLabel, Tuple[LinearForwardingTable, int]],
        before: Tables,
    ) -> None:
        flows, inflation = (
            self._migration_stats(before, known) if deltas else (0, 1.0)
        )
        record = ReroutingRecord(
            kind=kind,
            t_event=t_event,
            t_detected=t_detected,
            t_repaired=t_repaired,
            faults_known=len(known),
            switches_programmed=len(deltas),
            entries_changed=sum(c for _, c in deltas.values()),
            flows_rerouted=flows,
            path_inflation=inflation,
        )
        self.records.append(record)
        if self.on_sweep is not None:
            self.on_sweep(record)

    # ------------------------------------------------------------------
    # Migration statistics
    # ------------------------------------------------------------------
    def _migration_stats(
        self, before: Tables, known: frozenset
    ) -> Tuple[int, float]:
        """How many flows moved, and how much longer their paths got.

        A *flow* is a (src, dst) pair; its path is the (switch, port)
        sequence of its selected DLID's table walk, undelivered when it
        reaches no node within ``2n + 2·max(1, |known|) + 2`` hops (two
        undelivered walks compare equal).  Only flows whose DLID column
        changed can move, so only those columns are traced, before and
        live.  Inflation compares the new path length against the
        fault-free minimal one (the baseline tables), averaged over
        rerouted, delivered flows in (src, dst) row-major order.
        """
        changed = np.zeros(self.scheme.num_lids, dtype=bool)
        for sw, old in before.items():
            live = self._live[sw]
            if live is not old:
                np.logical_or(changed, old != live, out=changed)
        if not changed.any():
            return 0, 1.0
        cols = np.flatnonzero(changed)
        col_of = np.full(self.scheme.num_lids, -1, np.intp)
        col_of[cols] = np.arange(cols.size)
        need = changed[self._pair_lix]
        leaf = self._pair_leaf[need]
        lix = self._pair_lix[need]
        k = col_of[lix]

        budget = 2 * self.ft.n + 2 * max(1, len(known)) + 2
        old_port, _, old_to = self._walk_columns(before, cols, budget, leaf, k)
        new_port, new_len, new_to = self._walk_columns(
            self._live, cols, budget, leaf, k
        )
        # Both walks of a flow leave the same leaf switch, so their
        # (switch, port) sequences are equal iff their port sequences are.
        same = (old_port == new_port).all(axis=2)
        lost = (old_to < 0) & (new_to < 0)
        moved = ~(same | lost)[leaf, k]
        flows = int(moved.sum())

        landed = moved & (new_to[leaf, k] >= 0)
        if not landed.any():
            return flows, 1.0
        leaf, lix, k = leaf[landed], lix[landed], k[landed]
        base_len = self._baseline_lengths()[leaf, lix]
        if not base_len.all():  # only corrupt baseline tables get here
            i = int(np.argmin(base_len))
            one = slice(i, i + 1)
            self._walk_columns(
                self._baseline, lix[one], budget, leaf[one], np.zeros(1, np.intp)
            )
            raise ValueError(
                f"baseline route from leaf row {leaf[i]} for DLID "
                f"{lix[i] + 1} reaches no node within "
                f"{2 * self.ft.n + 2} hops"
            )
        ratios = (new_len[leaf, k] / base_len).tolist()
        return flows, sum(ratios) / len(ratios)

    def _walk_columns(
        self,
        tables: Tables,
        cols: np.ndarray,
        budget: int,
        leaf: np.ndarray,
        k: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hop ports, lengths, delivered) of the ``cols`` routes through
        ``tables``.  Flow ``i`` walks route ``(leaf[i], k[i])``; the
        first flow whose walk meets an entry outside ``[0, m)`` raises
        a ``ValueError`` naming the switch, the DLID and the port."""
        arrays = fabric_arrays(self.ft)
        port = self._port_matrix(tables)
        trace = trace_columns(arrays, port, cols, budget)
        bad = trace.bad_port[leaf, k]
        if bad.any():
            i = int(np.argmax(bad))
            f, col = int(leaf[i]), int(k[i])
            sw = trace.stop_switch(arrays, f, col)
            lix = int(cols[col])
            label = format_switch(*self.ft.switches[sw])
            raise ValueError(
                f"forwarding table of switch {label} sends DLID {lix + 1} "
                f"to port {int(port[sw, lix])}, outside [0, {self.ft.m})"
            )
        return trace.port, trace.length, trace.delivered

    def _port_matrix(self, tables: Tables) -> np.ndarray:
        """Stack 0-based tables into the (num_switches, num_lids)
        port matrix, rows in fabric switch order."""
        return np.stack([tables[sw] for sw in self.ft.switches])

    def _baseline_lengths(self) -> np.ndarray:
        """(num_leaves, num_lids) baseline route lengths, traced once.
        Baseline routes are minimal, so the fault-free budget ``2n + 2``
        bounds them."""
        if self._baseline_len is None:
            self._baseline_len = trace_columns(
                fabric_arrays(self.ft),
                self._port_matrix(self._baseline),
                None,
                2 * self.ft.n + 2,
            ).length
        return self._baseline_len

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_kernel(self) -> RouteKernel:
        """Route kernel compiled from the *current* switch LFTs.

        Invalidated by every reprogram and recompiled lazily, so static
        analyses stay coherent with what the fabric actually forwards
        with.  The recompile starts from the previous live kernel and
        re-traces only the DLID columns whose entries changed.  The
        shared :mod:`repro.ib.artifacts` cache is left untouched — its
        kernel describes the fault-free tables.

        Note the kernel's hop budget is the fault-free bound
        (``2n + 2``); on deep trees a repaired route that detours past
        it shows up as undelivered rather than raising.
        """
        if self._kernel is None or self._kernel_generation != self._generation:
            self._kernel = RouteKernel.from_lfts(
                self.scheme, self.live_lfts(), base=self._kernel
            )
            self._kernel_generation = self._generation
        return self._kernel

    @property
    def generation(self) -> int:
        """The live forwarding-state generation counter (read-only).

        Consistency contract:

        * starts at 0 (the initial SM sweep) and is bumped **once per
          reprogrammed switch**, so it increases monotonically and
          never repeats;
        * two reads returning the same value bracket a window in which
          no live LFT changed — any table, kernel or snapshot derived
          in between describes exactly what the fabric forwards with;
        * mid-sweep values are observable (delta programming lands
          switch-by-switch); a *sweep-consistent* generation is one
          read inside :attr:`on_sweep`, which fires after the sweep's
          last swap;
        * consumers keying caches or snapshots by this value
          (:meth:`live_kernel`, :class:`repro.service.SnapshotStore`)
          treat an equal generation as "nothing changed" — publishing
          the same generation twice is a no-op by contract.
        """
        return self._generation

    def packets_lost(self) -> int:
        """Packets dropped on dead links so far, fabric-wide."""
        total = sum(
            tx.packets_dropped
            for model in self.net.switches.values()
            for tx in model.tx.values()
        )
        total += sum(node.tx.packets_dropped for node in self.net.endnodes)
        return total

    def metrics(self) -> FailoverMetrics:
        """The metrics bundle accumulated so far."""
        return FailoverMetrics(
            records=list(self.records), packets_lost=self.packets_lost()
        )

    def live_lfts(self) -> Dict[SwitchLabel, LinearForwardingTable]:
        """The LFT instances the switches currently forward with."""
        return {sw: model.lft for sw, model in self.net.switches.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSubnetManager(down={len(self.down_links)}, "
            f"reroutes={len(self.records)}, generation={self._generation})"
        )
