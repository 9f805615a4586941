"""Smoke test of the benchmark: every workload at FT(4, 2) sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

SMOKE = {
    "paper-uniform": workloads.PacketSpec(
        "smoke-uniform", 4, 2, "uniform", vls=(1,), loads=(0.1, 0.6),
        warmup_ns=2_000.0, measure_ns=6_000.0,
    ),
    "paper-centric": workloads.PacketSpec(
        "smoke-centric", 4, 2, "centric", vls=(2, 4), loads=(0.1, 0.6),
        warmup_ns=2_000.0, measure_ns=6_000.0,
    ),
    "flow-scale": workloads.FlowSpec(
        "smoke-flow", 4, 2,
        curves=(("slid", (1, 4)), ("mlid", (1, 4)), ("mlid-hash", (1,))),
        solve_alone_now=("slid", "mlid", "mlid-hash"),
    ),
    "flap-storm": workloads.StormSpec(
        "smoke-storm", 4, 2, flap_links=2, horizon_ns=20_000.0, queries_per_chunk=20,
    ),
}


def _workload(name, seed, tmp_path):
    cls, _ = workloads.WORKLOADS[name]
    return cls(SMOKE[name], seed, tmp_path)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_is_checked_and_repeatable(name, tmp_path):
    workload = _workload(name, 3, tmp_path)
    ops = workloads.Ops()
    try:
        m = run.measure(workload, 0, tracing.NO_TRACE)
        workload.check(m["passes"] + m["reruns"], ops)
    finally:
        workload.close()
    assert len(m["setup"].scaled) == workload.setup_repeats
    assert all(s > 0 for s in m["setup"].scaled + m["setup"].raw)
    assert run.sweep_seconds(m["passes"]) > 0 and run.sweep_seconds(m["reruns"]) > 0
    assert ops.correct, ops.unexpected
    assert speed.take_faults() == []
    assert ops.attempted > 0 and 0 <= ops.failed <= ops.attempted
    assert "repeat" in ops.checks
    assert m["reruns"][0].counters == m["passes"][0].counters


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = _workload(name, 3, tmp_path)
    ops = workloads.Ops()
    trace_path = tmp_path / "trace.json"
    try:
        metrics, counters = run.traced_run(workload, ops, trace_path)
    finally:
        workload.close()
    assert set(metrics) == {n for n, _ in run.PER_LAYER}
    assert ops.correct, ops.unexpected
    events = json.loads(trace_path.read_text())["traceEvents"]
    names = {e["name"] for e in events}
    assert "topology.build" in names and "core.scheme" in names
    expect = {
        "paper-uniform": ("sim.run_s", "ib.build_subnet_s", "prof.sim.wheel_s"),
        "paper-centric": ("sim.run_s", "ib.artifacts_s", "prof.ib.switch_s"),
        "flow-scale": ("flow.compile_s", "flow.solve_s", "flow.store_load_s"),
        "flap-storm": ("sm.run_s", "service.publish_s", "core.kernel_compile_s"),
    }[name]
    for metric in expect:
        assert metrics[metric] > 0, metric


def test_seed_changes_inputs_not_flow_results(tmp_path):
    a = _workload("flow-scale", 1, tmp_path)
    b = _workload("flow-scale", 2, tmp_path)
    try:
        assert a.loads != b.loads or a.order != b.order
        a.setup(tracing.NO_TRACE, speed.OpTimer(a.scale))
        out_a = a.run_pass(tracing.NO_TRACE).outputs
        b.setup(tracing.NO_TRACE, speed.OpTimer(a.scale))
        out_b = b.run_pass(tracing.NO_TRACE).outputs
    finally:
        a.close()
        b.close()
    assert workloads._equal(out_a, out_b)


def _one_pass(name, tmp_path, **spec_changes):
    cls, _ = workloads.WORKLOADS[name]
    workload = cls(dataclasses.replace(SMOKE[name], **spec_changes), 3, tmp_path)
    workload.setup(tracing.NO_TRACE, speed.OpTimer(workload.scale))
    return workload, workload.run_pass(tracing.NO_TRACE)


def test_missing_shipped_reference_is_unexpected(tmp_path):
    workload, first = _one_pass("paper-uniform", tmp_path, references=True)
    assert workload.seed in workloads.SHIPPED_SEEDS
    ops = workloads.Ops()
    workload.check([first], ops)
    assert not ops.correct
    assert ops.checks["reference"] == [len(first.outputs), len(first.outputs)]


def test_only_documented_band_misses_are_known(tmp_path):
    workload, first = _one_pass("flow-scale", tmp_path)
    try:
        # 10% below the point solved alone: every point leaves the band.
        for out in first.outputs:
            for point in out["points"]:
                point[1] *= 0.9
        ops = workloads.Ops()
        workload.check([first], ops)
        assert not ops.correct
        misses = frozenset(
            (out["scheme"], out["vls"], point[0])
            for out in first.outputs
            for point in out["points"]
        )
        known = type(workload)(
            dataclasses.replace(workload.spec, known_band_misses=misses), 3, tmp_path
        )
        known.store = workload.store
        ops = workloads.Ops()
        known.check([first], ops)
        assert ops.correct, ops.unexpected
        assert ops.failed == ops.attempted
    finally:
        workload.close()


def test_only_the_documented_query_error_is_known(tmp_path):
    workload, first = _one_pass("flap-storm", tmp_path)
    log = first.detail["log"]
    path = next(i for i, (request, _) in enumerate(log) if request["op"] == "path")
    dlid = next(i for i, (request, _) in enumerate(log) if request["op"] == "dlid")
    known = {"ok": False, "op": "path", "error": "route x: kernel/scalar disagreement"}
    log[path] = (log[path][0], known)
    ops = workloads.Ops()
    workload.check([first], ops)
    assert ops.correct, ops.unexpected
    assert ops.checks["query-answered"][1] == 1
    log[dlid] = (log[dlid][0], {"ok": False, "op": "dlid", "error": "TypeError: boom"})
    ops = workloads.Ops()
    workload.check([first], ops)
    assert not ops.correct


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
    assert p0 == -1 and p1 == 0
    times = tracer.self_times()
    assert times["outer"] == pytest.approx((e0 - s0 - (e1 - s1)) / 1e9)
    assert times["inner"] == pytest.approx((e1 - s1) / 1e9)


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
