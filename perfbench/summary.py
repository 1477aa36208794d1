"""Every workload, end to end and layer by layer, with the steadiness checks.

    python3 perfbench/summary.py [--seed 1]

For each workload, in fresh processes of BENCHMARK.json's run_seconds: one
untraced run and two traced runs of the same seed.  Prints every end-to-end metric with its unit, the failed
ratio, per-kind latency medians with sample counts, the per-layer metrics,
and the tracing overhead (traced against untraced per-kind medians).  Then
checks that
  * every output passed its check in every run,
  * the operation counts (calls, spectral calls, errors, iterations) and the
    failed ratio repeat exactly across runs,
  * traced and untraced runs wrote the same outputs (timing blocks excluded),
  * the traced runs confirm the per-workload predictions in README.md.
Exits 1 when a check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense_generic", "dense_singular", "diagonal_longtail")
# Per-layer counts that must repeat exactly for one seed (output bytes do not:
# the CLI's timing block changes length).
REPEATING = (".calls", ".spectral_calls", ".errors")


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report


def per_request(bucket: dict, key: str) -> float:
    return bucket.get(key, 0.0) / bucket["requests"]


def predictions(workload: str, report: dict) -> list:
    """(claim, holds) pairs checked on one traced run."""
    trace = report["trace"]
    out = []
    if workload == "dense_generic":
        self_times = {}
        for bucket in trace.values():
            for key, value in bucket.items():
                if key.endswith(".s"):
                    self_times[key] = self_times.get(key, 0.0) + value
        top = max(self_times, key=self_times.get)
        share = self_times[top] / sum(self_times.values())
        out.append((f"largest self-time share is {top} ({share:.0%})",
                    top == "lebesgue.ac_part_iterative.s"))
        calls = per_request(trace["decompose"], "lebesgue.decompose.calls")
        out.append((f"lebesgue.decompose.calls per CLI decompose = {calls:g}", calls == 2))
    if workload == "dense_singular":
        for kind in ("decompose", "converge-report", "check-unique"):
            bucket = trace[kind]
            steps = bucket.get("lebesgue.iterations", 0.0)
            returns = bucket.get("lebesgue.ac_part_iterative.returns", 0.0)
            out.append((f"unit-scale {kind}: {steps:g} steps in {returns:g} iterations",
                        returns > 0 and steps == returns))
    if workload == "diagonal_longtail":
        spectral = sum(value for bucket in trace.values() for key, value in bucket.items()
                       if key.endswith(".spectral_calls"))
        out.append((f"dense spectral calls = {spectral:g}", spectral == 0))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    counts = [m["name"] for m in spec["per_layer"]
              if m["name"].endswith(REPEATING) or m["name"] == "lebesgue.iterations"]
    problems = []

    for workload in WORKLOADS:
        plain, plain_report = run(workload, args.seed, seconds, 0)
        traced = [run(workload, args.seed, seconds, 1) for _ in range(2)]
        env = plain_report["environment"]
        print(f"\n=== {workload}  seed {args.seed}  commit {env['commit'][:12]}  "
              f"{env['cpu']} x{env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
              f"{env['blas']}")
        print(f"periods {plain_report['periods']} x {plain_report['period_requests']} requests, "
              f"attempted {plain['attempted']}, failed {plain['failed']}, "
              f"failed_ratio {plain_report['failed_ratio']:.4f}")
        for name, metric in plain["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
        print("  per kind: samples, failed, p50 untraced -> traced (overhead)")
        for kind, row in plain_report["kinds"].items():
            p50, p50_traced = row["p50_s"], traced[0][1]["kinds"][kind]["p50_s"]
            overhead = (f"{p50_traced / p50 - 1:+.1%}" if p50 and p50_traced else "n/a")
            print(f"    {kind:22s} {row['samples']:4d} {row['failed']:4d} "
                  f"{p50 if p50 is None else round(p50, 4)!s:>10} -> "
                  f"{p50_traced if p50_traced is None else round(p50_traced, 4)!s:>10} "
                  f"({overhead})")
        for name, metric in traced[0][0]["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")

        results = [plain] + [result for result, _ in traced]
        reports = [plain_report] + [report for _, report in traced]
        if not all(result["correct"] for result in results):
            problems.append(f"{workload}: an output failed its check")
        if len({report["outputs_sha256"] for report in reports}) != 1:
            problems.append(f"{workload}: traced and untraced runs wrote different outputs")
        if len({report["failed_ratio"] for report in reports}) != 1:
            problems.append(f"{workload}: failed_ratio differs between runs")
        for name in counts:
            values = {result[0]["metrics"][name]["value"] for result in traced}
            if len(values) != 1:
                problems.append(f"{workload}: {name} differs between traced runs: {values}")
        for claim, holds in predictions(workload, traced[0][1]):
            print(f"  prediction: {claim}: {'confirmed' if holds else 'NOT CONFIRMED'}")
            if not holds:
                problems.append(f"{workload}: prediction not confirmed: {claim}")

    print("\nsteadiness and correctness: " + ("all checks passed" if not problems else ""))
    for problem in problems:
        print(f"  FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
