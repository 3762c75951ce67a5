"""The benchmark's use of the package, on shrunken workloads.

`perfbench/` drives the package through the names it imports; a change
that drops one of them (or an argument a workload passes) breaks every
benchmark run.  These tests run each workload's set-up probe, call,
output check and one traced call at mesh_n=6 with at most 20 samples,
and each full workload's seed-0 call against the benchmark's references.
"""
import importlib.util
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


def _shrunk(workload):
    base = replace(workload.base, mesh_n=6, num_samples=min(workload.base.num_samples, 20))
    return replace(workload, base=base, compare_samples=min(workload.compare_samples, 20))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_on_a_small_mesh(name):
    workload = _shrunk(workloads.WORKLOADS[name])
    cfg = workload.config(workloads.DEFAULT_SEED)
    steps = workloads.setup_steps(cfg)
    assert steps["setup_s"] > 0.0
    assert steps["linalg.lu_nnz"] > 0 and steps["assembly.matrix_nnz"] > 0

    out = workloads.call(workload, workload.warmup(cfg))
    assert workloads.check(workload, cfg, out, reference=None) == []

    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracing.instrument(tracer):
        out = workloads.call(workload, cfg)
    wall = time.perf_counter() - t0
    assert workloads.check(workload, cfg, out, reference=None) == []
    metrics = tracing.layer_metrics(tracing.span_totals(tracer.spans), wall)
    assert metrics["trace.spans"] > 0
    assert metrics["linalg.solve_calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_outputs_match_the_benchmark_references(name):
    # The benchmark checks every seed-0 call against reference.json to a
    # relative 1e-9; a change that moves the outputs fails here first.
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(reference["seed"])
    out = workloads.call(workload, cfg)
    assert workloads.check(workload, cfg, out, reference["workloads"][name]) == []
