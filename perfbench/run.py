"""Benchmark of the multi-modes sample loop, the classical baseline and set-up.

Run from the repository root:

    python3 perfbench/run.py --workload modes_n50 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

One run is a closed loop with one client.  It starts worker processes
(``worker.py``) one after another, at least ``MIN_WORKERS`` of them and
more until ``--seconds`` have passed.  Each worker sets up the workload's
operator first in its process, warms up, then makes one timed call and
checks its output.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each worker adds a traced call and
the run reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run, with the machine it ran on, goes
to ``perfbench/results/``.  A failed output check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# workloads first: it puts the package under src/ on the path, or exits.
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

import numpy as np
import scipy
from tracing import wrapper_cost

HERE = Path(__file__).resolve().parent
MIN_WORKERS = 3     # enough for a median of set-ups and of calls


def openblas_info() -> list[dict]:
    """Build string and thread count of every OpenBLAS this process loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
        out.append(entry)
    return out


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "randhelm_threads": 1,
    }


def worker(args) -> dict:
    """One worker process; a failed or unreadable worker is one failed call."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"calls": []}
    if done.returncode != 0 or not result["calls"]:
        result["calls"].append({"traced": False, "failures": [f"worker exited {done.returncode}"]})
    return result


def median(values):
    return float(statistics.median(values))


def quartiles(values):
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q1), float(q3)


def aggregate(workers: list[dict]) -> dict:
    """Every metric the workers' records give, by name."""
    setups = [w["setup"] for w in workers if "setup" in w]
    calls = [c for w in workers for c in w["calls"] if "wall_s" in c]
    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    values = {}
    if setups:
        for key in setups[0]:
            values[key] = median(s[key] for s in setups)
        values["linalg.solve_factor_bytes_computed"] = 16.0 * values["linalg.lu_nnz"]
    if plain:
        values["wall_s"] = median(c["wall_s"] for c in plain)
        values["peak_rss_mb"] = median(w["peak_rss_mb"] for w in workers if "peak_rss_mb" in w)
        values["rel_l2_vs_classical"] = median(c["rel_l2"] for c in plain)
        ratios = [c["classical_s"] / c["multimodes_s"] for c in plain if "classical_s" in c]
        values["classical.cost_ratio"] = median(ratios) if ratios else 0.0
        q1, q3 = quartiles(ratios) if ratios else (0.0, 0.0)
        values["classical.cost_ratio_q1"], values["classical.cost_ratio_q3"] = q1, q3
    if traced:
        for key in traced[0]["layers"]:
            values[key] = median(c["layers"][key] for c in traced)
        # Untraced and traced call of the same worker, so that the speed
        # differences between processes cancel.
        pairs = [w["calls"] for w in workers if all("wall_s" in c for c in w["calls"])]
        if pairs:
            values["trace.overhead_s"] = median(c[1]["wall_s"] - c[0]["wall_s"] for c in pairs)
        values["trace.wrapper_cost_s"] = values["trace.spans"] * wrapper_cost()
    return values


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_info()
    workers = []
    start = time.perf_counter()
    while len(workers) < MIN_WORKERS or time.perf_counter() - start < args.seconds:
        workers.append(worker(args))

    calls = [c for w in workers for c in w["calls"]]
    failures = [f for c in calls for f in c["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    values = aggregate(workers)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in section if m["name"] in values
    }
    correct = not failures and len(metrics) == len(section)

    workload = WORKLOADS[args.workload]
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "config": repr(workload.config(args.seed))},
        "args": vars(args),
        "machine": machine,
        "workers": workers,
        "values": values,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = HERE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    try:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, default=str))
    except OSError as exc:
        print(f"could not write the run record: {exc}", file=sys.stderr)

    blas = ", ".join(f"{b.get('config', b['library'])} x{b.get('threads', '?')}"
                     for b in machine["openblas"])
    print(f"# {workload.name} seed={args.seed}: {machine['cpu_model']}, nproc={machine['nproc']}, "
          f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, {blas}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c["failures"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each as its own run; a table of every metric."""
    status, rows = 0, []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        status |= done.returncode
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 1 if status else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
