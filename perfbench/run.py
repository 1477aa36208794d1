"""oplebesgue benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload dense_generic --seed 1 --seconds 30 --trace 0

One client in one process issues one request at a time, with BLAS pinned to
one thread.  CLI requests call ``oplebesgue.cli.main`` in-process; the
library request calls ``functionals.functional_lebesgue`` directly.  The run
repeats the workload's period of requests (see workloads.py), ending at the
period boundary nearest to ``--seconds``, then checks every output against
references that share no route with the program (see check.py).

The last line of stdout is the result,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
holding the end-to-end metrics of BENCHMARK.json under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.  The line before it starts with
``report`` and holds the details: environment, per-kind latencies with their
sample counts, failures, the digest of all outputs and, when traced, the
per-kind trace breakdown.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMING_BLOCK = re.compile(rb'"timing": \{[^{}]*\}')
UNSTABLE = "output differs between periods"


@dataclass
class Attempt:
    request: object
    rc: object  # exit code, or None when an exception escaped
    latency: float
    digest: str = ""
    nbytes: int = 0
    error: str = ""
    solved: bool = False


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(np, args) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _git_commit(),
    }


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _setup_seconds(warmup) -> float:
    """Median over fresh interpreters of import + one warm-up request."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "oplebesgue", "--quiet", *warmup], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
                              check=False)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode().strip()}")
    return statistics.median(samples)


def _bucket(request) -> str:
    """Trace bucket of a request: its kind, plus the rescaling if any."""
    if request.scale == (1.0, 1.0):
        return request.kind
    return f"{request.kind} x({request.scale[0]:g},{request.scale[1]:g})"


class Harness:
    def __init__(self, cli, functionals, workload, tracer):
        self.cli, self.functionals = cli, functionals
        self.workload, self.tracer = workload, tracer
        self.kept = {}  # slot -> (digest, output kept for the check)
        self.attempts = []

    def issue(self, request) -> Attempt:
        if request.out is not None and request.out.exists():
            request.out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.start_request(_bucket(request))
        result, error = None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if request.argv is None:
                    g, f = self.workload.operands[(request.case, request.scale)]
                    result = self.functionals.functional_lebesgue(g, f)
                    rc = 0
                else:
                    rc = self.cli.main(["--quiet", *request.argv])
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        attempt = Attempt(request, rc, latency, error=error or stderr.getvalue().strip())
        if rc != 0:
            return attempt
        if result is not None:
            kept = tuple(part.rep.array for part in result)
            data = b"".join(a.tobytes() for a in kept)
        elif request.out is not None:
            data = request.out.read_bytes()
            kept = request.out.with_name(f"kept{request.slot}{request.out.suffix}")
        else:
            data = kept = stdout.getvalue().encode()
        attempt.nbytes = len(data)
        attempt.digest = hashlib.sha256(TIMING_BLOCK.sub(b"", data)).hexdigest()
        if request.slot not in self.kept:
            if isinstance(kept, Path):
                request.out.replace(kept)
            self.kept[request.slot] = (attempt.digest, kept)
        return attempt

    def run(self, seconds: float) -> int:
        """Issue whole periods, ending at the period boundary nearest to
        ``seconds``; return the period count."""
        started, periods = time.perf_counter(), 0
        while True:
            period_start = time.perf_counter()
            for request in self.workload.period:
                self.attempts.append(self.issue(request))
            periods += 1
            now = time.perf_counter()
            if now - started + (now - period_start) / 2 >= seconds:
                return periods


def _check_slot(check, workload, request, kept, refs) -> list:
    if isinstance(kept, tuple):
        ac, sing = kept
        return check.check_split(ac, sing, refs(request.case), request.scale[0])
    text = kept.read_text(encoding="utf-8") if isinstance(kept, Path) else kept.decode()
    if workload.pairs:
        alpha, beta = request.scale
        route = {"decompose": check.check_decompose_matrix,
                 "check-unique": check.check_unique_matrix,
                 "converge-report": check.check_converge_report}[request.kind]
        return route(text, refs(request.case), alpha, beta)
    companion, index = request.case
    lam = workload.sequences[("lam", index)]
    if request.kind == "counterexample":
        return check.check_counterexample(text, lam)
    seq = workload.sequences[(companion, index)]
    if request.kind == "decompose":
        return check.check_decompose_sequence(text, seq, lam)
    return check.check_unique_sequence(text, seq, lam)


def _verify(check, workload, harness) -> dict:
    """Check each slot's kept output once; every attempt of the slot must
    have produced the same output (timing block excluded)."""
    references = {}

    def refs(pair):
        if pair not in references:
            references[pair] = check.shorted_reference(*workload.pairs[pair])
        return references[pair]

    problems = {}
    for slot, (digest, kept) in harness.kept.items():
        request = workload.period[slot]
        try:
            found = _check_slot(check, workload, request, kept, refs)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"output cannot be read: {type(exc).__name__}: {exc}"]
        problems[slot] = found
    for attempt in harness.attempts:
        if attempt.rc != 0:
            continue
        slot = attempt.request.slot
        if attempt.digest != harness.kept[slot][0]:
            problems[slot] = problems[slot] + [UNSTABLE]
        attempt.solved = not problems[slot]
    return problems


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _layer_metrics(names, totals, attempted):
    out = {}
    for name in names:
        if name == "lebesgue.iterations":
            returns = totals.get("lebesgue.ac_part_iterative.returns", 0)
            out[name] = totals.get(name, 0) / returns if returns else 0.0
        elif name.endswith(".self_s"):
            out[name] = totals.get(name[: -len("self_s")] + "s", 0.0) / attempted
        else:
            out[name] = totals.get(name, 0.0) / attempted
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy is first imported, here or by the modules below
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "oplebesgue" / "__init__.py").is_file():
        return _fail(f"no oplebesgue sources under {SRC}")
    try:
        spec = _load_spec()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import check
    import spans
    import workloads
    from oplebesgue import cli, functionals, psd_core

    if Path(cli.__file__).resolve().parent != SRC / "oplebesgue":
        return _fail(f"imported oplebesgue from {cli.__file__}, not from {SRC}")
    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        def run_cli(cli_argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(["--quiet", *cli_argv])
            if rc != 0:
                raise RuntimeError(f"untimed request {cli_argv[0]} exited {rc}: "
                                   f"{err.getvalue().strip()}")

        def build_operands(s, t):
            return (functionals.NormalFunctional(psd_core.PsdMatrix(s)),
                    functionals.NormalFunctional(psd_core.PsdMatrix(t)))

        self_test = check.self_test(run_cli, work)
        if self_test:
            return _fail("output check self-test failed: " + "; ".join(self_test))
        workload = workloads.build(args.workload, args.seed, work, run_cli, build_operands)
        setup_s = _setup_seconds(workload.warmup) if args.trace == 0 else None
        run_cli(workload.warmup)

        tracer = spans.Tracer() if args.trace else None
        harness = Harness(cli, functionals, workload, tracer)
        with tracer if tracer is not None else contextlib.nullcontext():
            periods = harness.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = _verify(check, workload, harness)
        attempts = harness.attempts
        attempted = len(attempts)
        solved = sum(a.solved for a in attempts)
        busy = sum(a.latency for a in attempts)
        by_kind = defaultdict(list)
        for a in attempts:
            by_kind[a.request.kind].append(a)
        p50 = {kind: statistics.median([a.latency if a.solved else math.inf for a in group])
               for kind, group in by_kind.items()}

        if args.trace:
            buckets = {key: dict(bucket) for key, bucket in tracer.buckets.items()}
            for a in attempts:
                bucket = buckets.setdefault(_bucket(a.request), {})
                bucket["requests"] = bucket.get("requests", 0) + 1
                bucket["cli.output_bytes"] = bucket.get("cli.output_bytes", 0) + a.nbytes
            totals = defaultdict(float)
            for bucket in buckets.values():
                for key, value in bucket.items():
                    totals[key] += value
            wanted = spec["per_layer"]
            values = _layer_metrics([m["name"] for m in wanted], totals, attempted)
        else:
            buckets = None
            values = {
                "decompose_p50_s": p50["decompose"],
                "check_unique_p50_s": p50["check-unique"],
                "solved_per_s": solved / busy,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            return _fail(f"BENCHMARK.json names metrics this run does not compute: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

        slot_digests = "".join(f"{slot}:{harness.kept.get(slot, ('-',))[0]}\n"
                               for slot in range(len(workload.period)))
        failures = [
            {"request": a.request.label, "rc": a.rc, "error": a.error.splitlines()[-1][:300]
             if a.error else "", "check": problems.get(a.request.slot, [])}
            for a in attempts[: len(workload.period)] if not a.solved
        ]
        report = {
            "environment": _environment(np, args),
            "period_requests": len(workload.period),
            "periods": periods,
            "failed_ratio": (attempted - solved) / attempted,
            "kinds": {kind: {"samples": len(group),
                             "failed": sum(not a.solved for a in group),
                             "p50_s": _finite(p50[kind])}
                      for kind, group in sorted(by_kind.items())},
            "outputs_sha256": hashlib.sha256(slot_digests.encode()).hexdigest(),
            "failures_first_period": failures,
            "trace": buckets,
        }
        # Rescaled requests probe the open scale fault: an output of theirs
        # that fails its check is a failed request, like a non-zero exit.  A
        # failed check on a unit-scale output, or an output that changes
        # between periods, makes the run incorrect.
        correct = not any(found and (workload.period[slot].scale == (1.0, 1.0)
                                     or UNSTABLE in found)
                          for slot, found in problems.items())
        for name, metric in metrics.items():
            print(f"{name:42s} {metric['value']!r:>24} {metric['unit']}")
        print(f"{'failed_ratio':42s} {report['failed_ratio']!r:>24} ratio")
        print("report " + json.dumps(report, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": attempted - solved, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
