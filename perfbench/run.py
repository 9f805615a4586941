"""End-to-end benchmark of the repro package, attributed per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the separate traced run: one untraced pass for
reference, then set-up and one pass with spans around every layer
boundary (written as Chrome trace-event JSON), then, for the packet
and storm workloads, one pass under the stdlib profiler for module
self time.  It reports the per-layer metrics and both overheads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, each check's own
counts, the deterministic work counters and the provenance.  A full
report is written to ``.perfbench_out/`` in the repository root.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Imported before the package so that the collector settings the timing
# probes check against are the interpreter's, not the package's.
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("paper-uniform", "paper-centric", "flow-scale", "flap-storm")

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, reported by every traced run (0 where the
#: workload does not use the layer).
PER_LAYER = (
    ("topology.build_s", "s"),
    ("core.scheme_s", "s"),
    ("ib.artifacts_s", "s"),
    ("ib.artifacts_hits", "count"),
    ("ib.artifacts_misses", "count"),
    ("core.kernel_compile_s", "s"),
    ("core.kernel_compiles", "count"),
    ("ib.build_subnet_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.packets", "count"),
    ("sim.events_per_s", "1/s"),
    ("flow.compile_s", "s"),
    ("flow.classes", "count"),
    ("flow.route_codes", "count"),
    ("flow.solve_s", "s"),
    ("flow.iterations", "count"),
    ("flow.store_load_s", "s"),
    ("flow.store_bytes", "bytes"),
    ("sm.run_s", "s"),
    ("sm.sweeps", "count"),
    ("sm.switches_programmed", "count"),
    ("sm.entries_changed", "count"),
    ("sm.flows_rerouted", "count"),
    ("service.publish_s", "s"),
    ("service.publishes", "count"),
    ("service.queries", "count"),
    ("service.query_errors", "count"),
    ("service.query_us_p50", "us"),
    ("service.query_us_p99", "us"),
    ("prof.sim.wheel_s", "s"),
    ("prof.ib.fastpath_s", "s"),
    ("prof.ib.link_s", "s"),
    ("prof.ib.switch_s", "s"),
    ("prof.ib.endnode_s", "s"),
    ("prof.traffic_s", "s"),
    ("prof.runtime.manager_s", "s"),
    ("prof.core.fault_kernel_s", "s"),
    ("prof.core.kernel_s", "s"),
    ("trace.overhead", "ratio"),
    ("prof.overhead", "ratio"),
)

#: Span names whose self time is a per-layer ``<name>_s`` metric.
SPAN_METRICS = (
    "topology.build",
    "core.scheme",
    "ib.artifacts",
    "core.kernel_compile",
    "ib.build_subnet",
    "sim.run",
    "flow.compile",
    "flow.solve",
    "flow.store_load",
    "sm.run",
    "service.publish",
)

#: Counters that must repeat exactly across runs of one code and seed.
DETERMINISTIC_COUNTERS = (
    "sim.events",
    "sim.packets",
    "flow.iterations",
    "flow.classes",
    "sm.sweeps",
    "sm.entries_changed",
    "service.publishes",
    "service.queries",
    "service.query_errors",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def measure(workload, seconds: float, tracer) -> dict:
    """Set-up samples, then pairs of a measured pass and a re-run while
    another pair fits in ``seconds`` (at least one pair)."""
    setup = speed.OpTimer(workload.scale)
    for _ in range(workload.setup_repeats):
        workload.setup(tracer, setup)
    passes, reruns = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        reruns.append(workload.rerun(tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return {"setup": setup, "passes": passes, "reruns": reruns}


def sweep_seconds(passes, raw: bool = False) -> float:
    """Sum over operations of each operation's median time across passes
    (scaled times, or the raw wall times)."""
    per_op = zip(*(p.raw_times if raw else p.op_times for p in passes))
    return sum(statistics.median(times) for times in per_op)


def run(args) -> dict:
    import numpy as np

    import tracing
    import workloads

    cls, spec = workloads.WORKLOADS[args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    workload = cls(spec, args.seed, workdir)
    ops = workloads.Ops()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
            metrics, counters = traced_run(workload, ops, trace_path)
        else:
            m = measure(workload, args.seconds, tracing.NO_TRACE)
            rss = peak_rss_mb()  # before the checks add their own memory
            workload.check(m["passes"] + m["reruns"], ops)
            first = m["passes"][0]
            counters = dict(first.counters)
            counters.update(workload.layer_counters())
            metrics = {
                "setup_s": statistics.median(m["setup"].scaled),
                "sweep_s": sweep_seconds(m["passes"]),
                "rerun_s": sweep_seconds(m["reruns"]),
            }
            report["raw"] = {
                "setup_s": statistics.median(m["setup"].raw),
                "sweep_s": sweep_seconds(m["passes"], raw=True),
                "rerun_s": sweep_seconds(m["reruns"], raw=True),
            }
            report["samples"] = {
                "setup_s": len(m["setup"].raw),
                "sweep_s": len(m["passes"]),
                "rerun_s": len(m["reruns"]),
            }
            report["op_times_s"] = {
                "setup": [m["setup"].scaled, m["setup"].raw],
                "passes": [[p.op_times, p.raw_times] for p in m["passes"]],
                "reruns": [[p.op_times, p.raw_times] for p in m["reruns"]],
            }
            latencies = first.detail.get("latencies")
            if latencies:
                report["query_latency_us"] = {
                    "p50": float(np.percentile(np.asarray(latencies) * 1e6, 50)),
                    "p99": float(np.percentile(np.asarray(latencies) * 1e6, 99)),
                    "samples": len(latencies),
                }
            metrics["peak_rss_mb"] = rss
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    ops.unexpected.extend(speed.take_faults())
    report.update(
        counters={k: counters.get(k, 0) for k in DETERMINISTIC_COUNTERS},
        checks={k: {"attempted": a, "failed": f} for k, (a, f) in ops.checks.items()},
        unexpected_failures=ops.unexpected,
        attempted=ops.attempted,
        failed=ops.failed,
        correct=ops.correct,
        provenance=provenance(),
    )
    report["metrics"] = metrics
    return report


def traced_run(workload, ops, trace_path: Path):
    """Traced set-up and pass (plus a re-run for the flow store) between
    two untraced passes, then a profiled pass.  Per-layer metrics come
    from the spans, which are written to ``trace_path`` as Chrome
    trace-event JSON; overheads are against the untraced passes' mean."""
    import numpy as np

    import tracing

    workload.setup(tracing.NO_TRACE, speed.OpTimer(workload.scale))
    before = workload.run_pass(tracing.NO_TRACE)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        workload.setup(tracer, speed.OpTimer(workload.scale))
        traced = workload.run_pass(tracer)
        passes = [traced]
        if workload.traced_rerun:
            passes.append(workload.rerun(tracer))
        layer_counters = workload.layer_counters()
    after = workload.run_pass(tracing.NO_TRACE)
    untraced_s = (sum(before.op_times) + sum(after.op_times)) / 2
    workload.check(passes + [before, after], ops)

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    self_times = tracer.self_times()
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = self_times.get(name, 0.0)
    metrics.update(traced.counters)
    metrics.update(layer_counters)
    metrics["core.kernel_compiles"] = tracer.counters["core.kernel_compiles"]
    if metrics["sim.run_s"]:
        metrics["sim.events_per_s"] = metrics["sim.events"] / metrics["sim.run_s"]
    latencies = traced.detail.get("latencies")
    if latencies:
        us = np.asarray(latencies) * 1e6
        metrics["service.query_us_p50"] = float(np.percentile(us, 50))
        metrics["service.query_us_p99"] = float(np.percentile(us, 99))
    metrics["trace.overhead"] = sum(traced.op_times) / untraced_s - 1.0

    if workload.profiled:
        profiler = tracing.ModuleProfiler()
        profiled = workload.run_pass(tracing.NO_TRACE, profiler)
        for module, seconds in profiler.self_times().items():
            metrics[f"prof.{module}_s"] = seconds
        metrics["prof.overhead"] = sum(profiled.op_times) / untraced_s - 1.0

    tracer.write_chrome_trace(trace_path)
    counters = dict(traced.counters)
    counters.update(layer_counters)
    return metrics, counters


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_report(report: dict, metrics: dict) -> None:
    print(
        f"perfbench {report['workload']} seed={report['seed']} "
        f"trace={report['trace']}"
    )
    raw, samples = report.get("raw", {}), report.get("samples", {})
    for name, m in metrics.items():
        line = f"  {name:<28} {m['value']:>16.6g} {m['unit']}"
        if name in raw:
            line += f"  (raw {raw[name]:.6g} {m['unit']}, n={samples[name]})"
        print(line)
    if "query_latency_us" in report:
        q = report["query_latency_us"]
        print(
            f"  query latency: p50 {q['p50']:.1f} us, p99 {q['p99']:.1f} us "
            f"over {q['samples']} queries"
        )
    attempted, failed = report["attempted"], report["failed"]
    print(
        f"  error_rate {failed / attempted:.6f} "
        f"({failed} of {attempted} operations failed)"
    )
    for name, c in sorted(report["checks"].items()):
        print(f"  check {name:<18} {c['attempted']:>7} checked {c['failed']:>6} failed")
    for line in report["unexpected_failures"]:
        print(f"  UNEXPECTED {line}")
    for name, value in report["counters"].items():
        if value:
            print(f"  counter {name:<22} {value}")
    print(f"  provenance {json.dumps(report['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    # One process, few threads, and a private flow-model store: nothing
    # ambient (user cache, BLAS thread pools) may feed the numbers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    TMP_DIR.mkdir(exist_ok=True)
    private_store = Path(tempfile.mkdtemp(prefix="default-store-", dir=TMP_DIR))
    os.environ["REPRO_FLOW_CACHE_DIR"] = str(private_store)
    sys.path.insert(0, str(SRC))
    try:
        report = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(private_store, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit}
        for name, unit in (PER_LAYER if args.trace else END_TO_END)
    }
    print_report(report, metrics)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
