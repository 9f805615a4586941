"""Regenerate ``perfbench/references.json``.

Usage (from the repository root)::

    python3 perfbench/make_references.py

Writes, for every packet workload and every seed in
``workloads.SHIPPED_SEEDS``, the statistics of each point of one pass,
and for ``flow-scale`` each curve as a pass computes it and each of
its points solved alone.  The benchmark compares against these;
regenerate only when a change is meant to alter the simulated or
solved results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import SimConfig  # noqa: E402
from repro.experiments.flowlevel import evaluate_curve  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def packet_references(name: str) -> dict:
    cls, spec = workloads.WORKLOADS[name]
    out = {}
    for seed in workloads.SHIPPED_SEEDS:
        result = cls(spec, seed, HERE).run_pass(tracing.NO_TRACE)
        out[str(seed)] = [
            {k: p[k] for k in ("scheme", "vls", "load") + workloads.REFERENCE_KEYS}
            for p in result.outputs
        ]
        print(f"{name} seed {seed}: {len(result.outputs)} points", flush=True)
    return out


def flow_references() -> dict:
    cls, spec = workloads.WORKLOADS["flow-scale"]
    curves, solved = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        workload = cls(spec, 0, Path(workdir))
        try:
            workload.setup(tracing.NO_TRACE, speed.OpTimer(scale=False))
            for out in workload.run_pass(tracing.NO_TRACE).outputs:
                key = f"{out['scheme']}/{out['vls']}"
                model = workload._model(out["scheme"])
                cfg = SimConfig(num_vls=out["vls"])
                curves[key] = out["points"]
                solved[key] = [
                    evaluate_curve(model, cfg, [load])[0]["accepted"]
                    for load, *_ in out["points"]
                ]
                print(f"flow-scale {key}: curve and points solved alone", flush=True)
        finally:
            workload.close()
    return {"curves": curves, "solved_alone": solved}


def main() -> None:
    refs = {name: packet_references(name) for name in ("paper-uniform", "paper-centric")}
    refs["flow-scale"] = flow_references()
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
