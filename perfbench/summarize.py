"""Spread of the benchmark's figures over several runs.

    python3 perfbench/summarize.py                      # every record in perfbench/results
    python3 perfbench/summarize.py perfbench/results/compare_n50-*.json

For each workload and metric it prints the run count, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  For
``compare_n50`` it adds the per-call classical/multi-modes cost ratios.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(paths) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = defaultdict(lambda: defaultdict(list))
    ratios = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        name = record["workload"]["name"]
        for metric, value in record["values"].items():
            if metric in wanted:
                values[name][metric].append(value)
        ratios[name] += [
            c["classical_s"] / c["multimodes_s"]
            for w in record["workers"] for c in w["calls"]
            if "classical_s" in c and not c["traced"]
        ]
    for name in sorted(values):
        print(name)
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:36s} n={len(vals):2d} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.3f}")
        if len(ratios[name]) >= 2:
            q1, med, q3 = statistics.quantiles(ratios[name], n=4)
            print(f"  classical/multi-modes cost ratio over {len(ratios[name])} calls: "
                  f"median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
                  f"range {min(ratios[name]):.3f}-{max(ratios[name]):.3f}")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted((HERE / "results").glob("*.json")))
