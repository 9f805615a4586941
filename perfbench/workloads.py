"""The four benchmark workloads, driven through the package's public calls.

Every workload has the same shape so one measuring loop serves all:

* ``setup(tracer, timer)`` — the set-up a user pays before the first
  answer, timed by ``timer`` and repeated ``setup_repeats`` times;
* ``run_pass(tracer, profiler)`` — one measured pass of the workload's
  operations (packet points, flow curves, or a storm with its query
  client), returning a :class:`Pass`;
* ``rerun(tracer)`` — the pass again the way a second invocation runs
  it, after the in-process routing caches are cleared;
* ``check(passes, ops)`` — verifies the outputs and counts operations
  attempted and failed.

All library settings are the defaults (engine, ``fold``,
``warm_start``, ``SimConfig`` apart from ``num_vls``, ``jobs=1``), so a
change of default is measured as users get it.  The flow-model store
is always a private, initially empty directory.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro import CentricPattern, SimConfig, UniformPattern, build_subnet
from repro.core.kernel import RouteKernel
from repro.experiments.flowlevel import (
    clear_flow_models,
    evaluate_curve,
    get_flow_model,
)
from repro.ib.artifacts import (
    artifact_cache_info,
    clear_routing_caches,
    get_artifacts,
)
from repro.service import LinkFlapStorm, RouteQueryService, SnapshotStore
from repro.service.snapshot import RouteSnapshot
from speed import OpTimer

REFERENCE_FILE = Path(__file__).with_name("references.json")

#: Seeds the packet references are shipped for.  A workload that ships
#: references fails its ``reference`` check on a seed in this range
#: whose entry is missing; other seeds skip the check.
SHIPPED_SEEDS = range(0, 32)

#: Relative tolerance of a flow point against the same point solved
#: alone: the warm-start band documented for ``evaluate_curve``.
WARM_START_BAND = 0.03

#: Floats in the packet references must match to this relative
#: tolerance (the simulator is bit-deterministic; the slack only
#: admits reordered floating-point sums).
REFERENCE_RTOL = 1e-9


class Ops:
    """Operations attempted/failed, and each check's own counts.

    A failure the benchmark documents as a known defect of the program
    (``known=True``) counts against ``error_rate`` only; any other
    failure also makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, List[int]] = {}
        self.unexpected: List[str] = []

    def op(self, results: List[Tuple[str, bool, bool, str]]) -> None:
        """One operation with its check results (name, ok, known, detail)."""
        self.attempted += 1
        ok_all = True
        for name, ok, known, detail in results:
            counts = self.checks.setdefault(name, [0, 0])
            counts[0] += 1
            if not ok:
                counts[1] += 1
                ok_all = False
                if not known and len(self.unexpected) < 20:
                    self.unexpected.append(f"{name}: {detail}")
        if not ok_all:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.unexpected


@dataclass
class Pass:
    """One measured pass."""

    #: Per-operation times (points, curves or storm chunks) scaled to
    #: the nominal host speed, in a fixed order (see ``speed.py``).
    op_times: List[float]
    #: Comparable outputs: equal across passes of the same code and seed.
    outputs: list
    #: Deterministic work counters of this pass.
    counters: Dict[str, int]
    #: The same operations' raw wall times.
    raw_times: List[float] = field(default_factory=list)
    #: Workload-specific state the checks need.
    detail: dict = field(default_factory=dict)


def _equal(a, b) -> bool:
    """Structural equality with NaN == NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def check_repeats(ops: Ops, first: Pass, others: List[Pass]) -> None:
    """Every later pass must reproduce the first one exactly."""
    for p in others:
        for i, out in enumerate(p.outputs):
            same = i < len(first.outputs) and _equal(out, first.outputs[i])
            ops.op([("repeat", same, False, f"output {i} differs between passes")])
        if p.counters != first.counters:
            ops.unexpected.append(
                f"repeat: counters differ {p.counters} vs {first.counters}"
            )


# ----------------------------------------------------------------------
# Packet workloads: paper sweeps on the event engine
# ----------------------------------------------------------------------

#: Offered loads (bytes/ns/node), low load to past saturation.
PACKET_LOADS = (0.05, 0.2, 0.4, 0.8)


@dataclass(frozen=True)
class PacketSpec:
    name: str
    m: int
    n: int
    pattern: str
    vls: Tuple[int, ...]
    schemes: Tuple[str, ...] = ("slid", "mlid")
    loads: Tuple[float, ...] = PACKET_LOADS
    warmup_ns: float = 8_000.0
    measure_ns: float = 20_000.0
    #: Whether ``references.json`` holds this workload's points.
    references: bool = False


class PacketWorkload:
    setup_repeats = 9
    scale = True
    #: The traced run profiles a pass (run_measurement hides the engine
    #: layers) and re-runs nothing.
    profiled = True
    traced_rerun = False

    def __init__(self, spec: PacketSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.configs = [
            (scheme, SimConfig(num_vls=vls))
            for vls in spec.vls
            for scheme in spec.schemes
        ]

    def _pattern(self, num_nodes: int):
        if self.spec.pattern == "centric":
            return CentricPattern(num_nodes, hot_pid=0, fraction=0.5)
        return UniformPattern(num_nodes)

    def setup(self, tracer, timer: OpTimer) -> None:
        clear_routing_caches()
        timer.start()
        for scheme, cfg in self.configs:
            with tracer.span("ib.artifacts"):
                get_artifacts(self.spec.m, self.spec.n, scheme, cfg)
        timer.stop()

    def run_pass(self, tracer, profiler=None) -> Pass:
        spec = self.spec
        outputs = []
        timer = OpTimer(self.scale)
        counters = Counter()
        pattern = None
        for scheme, cfg in self.configs:
            for load in spec.loads:
                timer.start()
                with tracer.span("ib.artifacts"):
                    art = get_artifacts(spec.m, spec.n, scheme, cfg)
                with tracer.span("ib.build_subnet"):
                    net = build_subnet(
                        spec.m, spec.n, scheme, cfg, seed=self.seed, artifacts=art
                    )
                if pattern is None:
                    pattern = self._pattern(net.num_nodes)
                net.attach_pattern(pattern)
                with tracer.span("sim.run"), (profiler or _NULL):
                    r = net.run_measurement(load, spec.warmup_ns, spec.measure_ns)
                timer.stop()
                counters["sim.events"] += r["events"]
                counters["sim.packets"] += r["packets"]
                outputs.append(
                    {
                        "scheme": scheme,
                        "vls": cfg.num_vls,
                        "load": load,
                        "accepted": r["accepted"],
                        "latency_mean": r["latency_mean"],
                        "latency_p99": r["latency_p99"],
                        "packets": r["packets"],
                        "backlog": r["backlog"],
                        "generated": sum(nd.packets_generated for nd in net.endnodes),
                        "received": sum(nd.packets_received for nd in net.endnodes),
                        "capacity": 2 * cfg.num_vls
                        * (net.ft.num_switches * net.ft.m + net.num_nodes),
                    }
                )
        return Pass(timer.scaled, outputs, dict(counters), timer.raw)

    def rerun(self, tracer) -> Pass:
        clear_routing_caches()
        return self.run_pass(tracer)

    def check(self, passes: List[Pass], ops: Ops) -> None:
        refs = None
        if self.spec.references and self.seed in SHIPPED_SEEDS:
            refs = load_references().get(self.spec.name, {}).get(str(self.seed), [])
        for i, out in enumerate(passes[0].outputs):
            in_fabric = out["generated"] - out["received"] - out["backlog"]
            results = [
                (
                    "conservation",
                    0 <= in_fabric <= out["capacity"],
                    False,
                    f"{_point_id(out)}: {in_fabric} packets in fabric",
                )
            ]
            if refs is not None:
                ref = refs[i] if i < len(refs) else None
                results.append(
                    (
                        "reference",
                        ref is not None and _matches_reference(out, ref),
                        False,
                        f"{_point_id(out)} differs from the shipped reference",
                    )
                )
            ops.op(results)
        check_repeats(ops, passes[0], passes[1:])

    def layer_counters(self) -> Dict[str, float]:
        info = artifact_cache_info()
        return {"ib.artifacts_hits": info["hits"], "ib.artifacts_misses": info["misses"]}

    def close(self) -> None:
        pass


REFERENCE_KEYS = (
    "accepted",
    "latency_mean",
    "latency_p99",
    "packets",
    "backlog",
    "generated",
    "received",
)


def _point_id(out: dict) -> str:
    return f"{out['scheme']} vls={out['vls']} load={out['load']}"


def _close(a, b) -> bool:
    """Equal to ``REFERENCE_RTOL`` (floats, NaN == NaN) or exactly (others)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=REFERENCE_RTOL
        )
    return a == b


def _matches_reference(out: dict, ref: dict) -> bool:
    for key in ("scheme", "vls", "load"):
        if out[key] != ref[key]:
            return False
    return all(_close(out[key], ref[key]) for key in REFERENCE_KEYS)


def load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


# ----------------------------------------------------------------------
# flow-scale: the flow-level model on a fabric beyond packet reach
# ----------------------------------------------------------------------

FLOW_LOADS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.7, 0.85, 1.0)


@dataclass(frozen=True)
class FlowSpec:
    name: str
    m: int
    n: int
    #: (scheme, VL counts) per curve family.
    curves: Tuple[Tuple[str, Tuple[int, ...]], ...]
    pattern: str = "centric"
    hotspot_fraction: float = 0.5
    loads: Tuple[float, ...] = FLOW_LOADS
    #: Schemes whose points are checked against a cold solve made now;
    #: the rest are checked against cold solves stored in the references
    #: (a cold unfolded FT(16,3) curve takes minutes).
    solve_alone_now: Tuple[str, ...] = ("slid", "mlid")
    #: Whether ``references.json`` holds this workload's curves and
    #: points solved alone.
    references: bool = False
    #: (scheme, VLs, load) points documented to leave the warm-start
    #: band; a miss anywhere else makes the run incorrect.
    known_band_misses: FrozenSet[Tuple[str, int, float]] = frozenset()


class FlowWorkload:
    #: One cold compile of the unfolded model takes ~9 s, so three are
    #: what the run's time budget allows.
    setup_repeats = 3
    #: Raw wall time: a curve is one long vectorized call, and no probe
    #: measured here tracked its slowdowns (scaling widened the spread).
    scale = False
    #: The traced run re-runs (the store reload is this workload's
    #: layer) and profiles nothing.
    profiled = False
    traced_rerun = True

    def __init__(self, spec: FlowSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.store: Optional[Path] = None
        # The seed shuffles the load grid and the curve order handed to
        # the solver; results must not depend on either.
        rng = random.Random(seed)
        self.order = [(s, v) for s, vls in spec.curves for v in vls]
        rng.shuffle(self.order)
        self.loads = list(spec.loads)
        rng.shuffle(self.loads)
        self.schemes = [s for s, _ in spec.curves]

    def _model(self, scheme: str):
        s = self.spec
        return get_flow_model(
            s.m, s.n, scheme, s.pattern, s.hotspot_fraction, store=self.store
        )

    def setup(self, tracer, timer: OpTimer) -> None:
        self._drop_store()
        self.store = Path(tempfile.mkdtemp(prefix="flow-store-", dir=self.workdir))
        clear_routing_caches()
        clear_flow_models()
        timer.start()
        for scheme in self.schemes:
            with tracer.span("flow.get_model"):
                self._model(scheme)
        timer.stop()

    def run_pass(self, tracer, profiler=None) -> Pass:
        outputs = []
        timer = OpTimer(self.scale)
        counters = Counter()
        for scheme, vls in self.order:
            timer.start()
            with tracer.span("flow.get_model"):
                model = self._model(scheme)
            with tracer.span("flow.solve"):
                curve = evaluate_curve(model, SimConfig(num_vls=vls), self.loads)
            timer.stop()
            by_load = sorted(zip(self.loads, curve))
            counters["flow.iterations"] += sum(r["iterations"] for r in curve)
            outputs.append(
                {
                    "scheme": scheme,
                    "vls": vls,
                    "points": [
                        [load, r["accepted"], r["latency_mean"], r["latency_p99"]]
                        for load, r in by_load
                    ],
                }
            )
        # Sort so passes compare equal whatever the seeded order.
        outputs.sort(key=lambda o: (o["scheme"], o["vls"]))
        return Pass(timer.scaled, outputs, dict(counters), timer.raw)

    def rerun(self, tracer) -> Pass:
        clear_flow_models()
        return self.run_pass(tracer)

    def check(self, passes: List[Pass], ops: Ops) -> None:
        spec = self.spec
        refs = load_references().get(spec.name, {}) if spec.references else {}
        stored_alone = refs.get("solved_alone", {})
        stored_curves = refs.get("curves", {})
        for out in passes[0].outputs:
            scheme, vls = out["scheme"], out["vls"]
            key = f"{scheme}/{vls}"
            cfg = SimConfig(num_vls=vls)
            ref_alone = stored_alone.get(key, []) if spec.references else None
            ref_curve = stored_curves.get(key, []) if spec.references else None
            if scheme in spec.solve_alone_now:
                alone = [
                    evaluate_curve(self._model(scheme), cfg, [load])[0]["accepted"]
                    for load, *_ in out["points"]
                ]
            else:
                alone = ref_alone
            for j, point in enumerate(out["points"]):
                load, accepted = point[0], point[1]
                pid = f"{key} load={load}"
                sane = math.isfinite(accepted) and 0.0 < accepted <= load * (1 + 1e-12)
                results = [("flow-sanity", sane, False, f"{pid}: accepted {accepted}")]
                if ref_curve is not None:
                    ref = ref_curve[j] if j < len(ref_curve) else None
                    results.append(
                        (
                            "flow-reference",
                            ref is not None
                            and len(ref) == len(point)
                            and all(map(_close, point, ref)),
                            False,
                            f"{pid} differs from the shipped curve",
                        )
                    )
                if ref_alone is not None and scheme in spec.solve_alone_now:
                    ref = ref_alone[j] if j < len(ref_alone) else None
                    results.append(
                        (
                            "solved-alone-reference",
                            ref is not None and _close(alone[j], ref),
                            False,
                            f"{pid} solved alone differs from the shipped value",
                        )
                    )
                if alone is not None:
                    gap = abs(accepted - alone[j]) / alone[j] if j < len(alone) else math.inf
                    results.append(
                        (
                            "warm-start-band",
                            gap <= WARM_START_BAND,
                            (scheme, vls, load) in spec.known_band_misses,
                            f"{pid}: {gap:.2%} from the point solved alone",
                        )
                    )
                ops.op(results)
        check_repeats(ops, passes[0], passes[1:])

    def layer_counters(self) -> Dict[str, float]:
        models = [self._model(s) for s in self.schemes]
        store_bytes = sum(
            f.stat().st_size for f in self.store.rglob("*") if f.is_file()
        )
        return {
            "flow.classes": sum(m.num_classes for m in models),
            "flow.route_codes": sum(len(m.flat_codes) for m in models),
            "flow.store_bytes": store_bytes,
        }

    def _drop_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def close(self) -> None:
        clear_flow_models()
        self._drop_store()


# ----------------------------------------------------------------------
# flap-storm: the SM and the route-query service under link flaps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StormSpec:
    name: str
    m: int
    n: int
    scheme: str = "mlid"
    flap_links: int = 8
    horizon_ns: float = 100_000.0
    #: Queries the closed-loop client issues between engine chunks.
    queries_per_chunk: int = 200
    #: (generation, undeliverable pairs) of the repairs documented to
    #: lose pairs; a loss anywhere else, or a larger one, makes the run
    #: incorrect.
    known_lossy_repairs: Tuple[Tuple[int, int], ...] = ()


#: The error text of the documented ``path`` failure on a pair a repair
#: left undeliverable.
KNOWN_QUERY_ERROR = "kernel/scalar disagreement"

#: The query client's op mix (probabilities).  ``flows`` costs ~2 ms a
#: query, the rest microseconds, so it is kept rare.
QUERY_MIX = (
    ("dlid", 0.50),
    ("path", 0.40),
    ("flows", 0.025),
    ("load", 0.05),
    ("load-top", 0.025),
)


class StormWorkload:
    setup_repeats = 5
    scale = True
    profiled = True
    traced_rerun = False

    def __init__(self, spec: StormSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed

    def _build(self) -> LinkFlapStorm:
        s = self.spec
        return LinkFlapStorm(
            s.m,
            s.n,
            s.scheme,
            flap_links=s.flap_links,
            horizon_ns=s.horizon_ns,
            keep_lfts=True,
        )

    def setup(self, tracer, timer: OpTimer) -> None:
        timer.start()
        with tracer.span("storm.build"):
            self._build()
        timer.stop()

    def _requests(self, storm: LinkFlapStorm) -> List[dict]:
        """The client's whole seeded request sequence."""
        s = self.spec
        ft = storm.net.ft
        rng = np.random.default_rng(self.seed)
        ops = [op for op, _ in QUERY_MIX]
        probs = [p for _, p in QUERY_MIX]
        chunks = int(math.ceil(storm.horizon_ns / storm.chunk_ns))
        total = chunks * s.queries_per_chunk
        kinds = rng.choice(len(ops), size=total, p=probs)
        srcs = rng.integers(0, ft.num_nodes, size=total)
        dsts = rng.integers(0, ft.num_nodes - 1, size=total)
        dsts = dsts + (dsts >= srcs)
        switches = rng.integers(0, ft.num_switches, size=total)
        ports = rng.integers(0, ft.m, size=total)
        requests = []
        for i in range(total):
            op = ops[kinds[i]]
            if op in ("dlid", "path"):
                requests.append({"op": op, "src": int(srcs[i]), "dst": int(dsts[i])})
            elif op == "load-top":
                requests.append({"op": "load", "top": 5})
            else:
                digits, level = ft.switches[int(switches[i])]
                requests.append(
                    {
                        "op": op,
                        "switch": "".join(map(str, digits)),
                        "level": int(level),
                        "port": int(ports[i]),
                    }
                )
        return requests

    def run_pass(self, tracer, profiler=None) -> Pass:
        with tracer.span("storm.build"):
            storm = self._build()
        service = RouteQueryService(storm.store, storm=storm)
        engine = storm.net.engine
        requests = self._requests(storm)
        per_chunk = self.spec.queries_per_chunk
        log, latencies = [], []
        next_request = 0
        # One operation per engine chunk and the query batch after it.
        timer = OpTimer(self.scale, collect=False)
        gc.collect()
        while engine.now < storm.horizon_ns:
            timer.start()
            with tracer.span("storm.engine"), (profiler or _NULL):
                engine.run(until=min(engine.now + storm.chunk_ns, storm.horizon_ns))
            with tracer.span("service.queries"):
                for request in requests[next_request : next_request + per_chunk]:
                    q0 = time.perf_counter()
                    response = service.handle(request)
                    latencies.append(time.perf_counter() - q0)
                    log.append((request, response))
            next_request += per_chunk
            timer.stop()
        timer.start()
        with tracer.span("storm.engine"), (profiler or _NULL):
            engine.run()  # run down to quiescence
        timer.stop()
        records = storm.mgr.metrics().records
        counters = {
            "sm.sweeps": len(records),
            "sm.switches_programmed": sum(r.switches_programmed for r in records),
            "sm.entries_changed": sum(r.entries_changed for r in records),
            "sm.flows_rerouted": sum(r.flows_rerouted for r in records),
            "service.publishes": len(storm.store.generations),
            "service.queries": len(log),
            "service.query_errors": sum(1 for _, resp in log if not resp["ok"]),
        }
        outputs = [resp for _, resp in log] + [r.to_dict() for r in records]
        return Pass(
            timer.scaled,
            outputs,
            counters,
            timer.raw,
            {"storm": storm, "log": log, "latencies": latencies},
        )

    def rerun(self, tracer) -> Pass:
        # Nothing is cached across storms: a second invocation repeats
        # the construction and the storm.
        return self.run_pass(tracer)

    def check(self, passes: List[Pass], ops: Ops) -> None:
        first = passes[0].detail
        storm = first["storm"]
        archive = storm.publisher.lft_archive
        by_generation: Dict[int, list] = {}
        for request, response in first["log"]:
            if response["ok"]:
                by_generation.setdefault(response["generation"], []).append(
                    (request, response)
                )
            else:
                known = request["op"] == "path" and KNOWN_QUERY_ERROR in response["error"]
                ops.op([("query-answered", False, known, f"{request}: {response['error']}")])
        ft = storm.net.ft
        targets = np.arange(ft.num_nodes)[None, :]
        off_diag = ~np.eye(ft.num_nodes, dtype=bool)
        repaired = set(storm.store.generations[1:])
        known_lossy = dict(self.spec.known_lossy_repairs)
        # One kernel per generation, compiled from the archived LFTs and
        # dropped before the next (they are large).
        for generation in sorted(repaired | set(by_generation)):
            kernel = RouteKernel.from_lfts(storm.mgr.scheme, archive[generation])
            store = SnapshotStore()
            store.publish(RouteSnapshot(kernel, generation))
            oracle = RouteQueryService(store)
            # Answered queries must replay identically.
            for request, response in by_generation.get(generation, ()):
                replay = oracle.handle(request)
                ops.op(
                    [
                        ("query-answered", True, True, ""),
                        (
                            "query-replay",
                            _equal(replay, response),
                            False,
                            f"{request} answered {response}, replay {replay}",
                        ),
                    ]
                )
            # A repair must leave every selected (src, dst) route deliverable.
            if generation in repaired:
                reached = kernel.delivered[kernel.attach_leaf[:, None], kernel.selected - 1]
                lost = int(((reached != targets) & off_diag).sum())
                ops.op(
                    [
                        (
                            "repair-delivers",
                            lost == 0,
                            lost <= known_lossy.get(generation, 0),
                            f"generation {generation}: {lost} undeliverable pairs",
                        )
                    ]
                )
        check_repeats(ops, passes[0], passes[1:])

    def layer_counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


#: Stands in for the profiler when none is given.
_NULL = contextlib.nullcontext()


#: Known defects at the commit that added the benchmark (see README.md).
#: The warm-started FT(16,3) centric mlid curves (1 and 4 VLs) and the
#: unfolded mlid-hash curve leave the 3% band from load 0.4 on (4.41-4.46%
#: at 0.4, 3.62-3.67% at 1.0).
FLOW_SCALE_BAND_MISSES = frozenset(
    (scheme, vls, load)
    for scheme, vls in (("mlid", 1), ("mlid", 4), ("mlid-hash", 1))
    for load in (0.4, 0.55, 0.7, 0.85, 1.0)
)
#: Every 8-link storm repairs into these 25 generations that each hold 64
#: undeliverable (src, dst) pairs; the storm does not depend on the seed.
FLAP_STORM_LOSSY_REPAIRS = tuple(
    (generation, 64)
    for generation in (
        49, 55, 61, 97, 103, 109, 145, 151, 157, 193, 199, 205, 241,
        247, 253, 289, 295, 301, 337, 343, 349, 385, 391, 397, 433,
    )
)

WORKLOADS = {
    "paper-uniform": (
        PacketWorkload,
        PacketSpec("paper-uniform", 8, 3, "uniform", vls=(1,), references=True),
    ),
    "paper-centric": (
        PacketWorkload,
        PacketSpec("paper-centric", 8, 3, "centric", vls=(2, 4), references=True),
    ),
    "flow-scale": (
        FlowWorkload,
        FlowSpec(
            "flow-scale",
            16,
            3,
            curves=(("slid", (1, 4)), ("mlid", (1, 4)), ("mlid-hash", (1,))),
            references=True,
            known_band_misses=FLOW_SCALE_BAND_MISSES,
        ),
    ),
    "flap-storm": (
        StormWorkload,
        StormSpec("flap-storm", 8, 3, known_lossy_repairs=FLAP_STORM_LOSSY_REPAIRS),
    ),
}

