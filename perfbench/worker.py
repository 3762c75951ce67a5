"""One benchmark worker process: cold set-up, warm-up, timed calls, checks.

    python3 perfbench/worker.py --workload modes_n50 --seed 0 --trace 0

``run.py`` starts workers one after another and aggregates them, so that
no single process's state sets a run's figures.  The worker first sets up
the operator (the first set-up of its process, so a cold one), then makes
a short warm-up call, then one timed call followed by its output checks.
With ``--trace 1`` a traced call and its checks follow.  It prints one
JSON line.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# workloads first: it puts the package under src/ on the path, or exits.
from workloads import DEFAULT_SEED, WORKLOADS, call, check, setup_steps

from tracing import Tracer, instrument, layer_metrics, span_totals

HERE = Path(__file__).resolve().parent


def steal_s() -> float:
    """Machine-wide CPU seconds the hypervisor gave to other guests."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def timed_call(workload, cfg, reference, traced: bool) -> dict:
    tracer = Tracer()
    gc.collect()
    steal0, t0 = steal_s(), time.perf_counter()
    if traced:
        with instrument(tracer):
            out = call(workload, cfg)
    else:
        out = call(workload, cfg)
    wall = time.perf_counter() - t0
    steal = steal_s() - steal0
    record = {"traced": traced, "wall_s": wall, "steal_s": steal}
    record["failures"] = check(workload, cfg, out, reference)
    record.update({k: v for k, v in out.items() if k != "result"})
    if traced:
        record["layers"] = layer_metrics(span_totals(tracer.spans), wall)
        record["spans"] = [(s.name, s.start - t0, s.end - t0, s.parent) for s in tracer.spans]
        if abs(record["layers"]["trace.span_sum_ratio"] - 1.0) > 0.05:
            record["failures"].append("spans do not sum to the traced call's wall within 5%")
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())["workloads"][workload.name]

    result = {"setup": setup_steps(cfg), "calls": []}
    try:
        call(workload, workload.warmup(cfg))
        for traced in (False, True) if args.trace else (False,):
            result["calls"].append(timed_call(workload, cfg, reference, traced))
            if len(result["calls"]) == 1:
                # After one call the high-water mark covers set-up, warm-up and
                # one whole call with its checks.
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # a raising call is a failed call
        traceback.print_exc()
        result["calls"].append({"traced": False, "failures": ["raised"]})
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
