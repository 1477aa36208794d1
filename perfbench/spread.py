"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload dense_generic --seeds 1-10

Runs the workload once per seed, each in a fresh process for the
run_seconds of BENCHMARK.json, and prints for every
end-to-end metric its median and the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  Exits 1 when a spread
exceeds its bound, or when a run is not correct.
"""

import argparse
import json
import statistics
import sys

from summary import ROOT, run


def seed_range(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    results = []
    for seed in args.seeds:
        result, _ = run(args.workload, seed, seconds, 0)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    ok = all(r["correct"] for r in results)
    print(f"\n{'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}  values")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
        if verdict == "OVER":
            ok = False
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:22s} {median:12.5g} {spread:8.4f} {bound:6.2f}  {verdict:4s} {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
