#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of crosscap.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; crosscap is imported from ``src/``.  One
client sends one request at a time and waits for it.  Each workload runs in
its own child process with one BLAS/OpenMP thread.  The child warms up on
requests from a separate seed stream, then times requests for ``--seconds``
seconds of request time, checking every outcome against the oracle outside
the timed region.  ``setup_s`` launches fresh interpreters that import
``crosscap.cli`` and takes the median.

With ``--trace 1`` the child wraps each layer's entry points (see
tracer.py), reports the per-layer metrics, then runs the same requests
again untraced to measure the tracing overhead.

The last line of standard output is one JSON object: ``correct`` (no
request failed other than by the known precision drift), ``attempted``,
``failed`` (every request whose outcome differs from the oracle) and
``metrics``.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("germs", "search", "plot")
SETUP_LAUNCHES = 7
WARMUP_REQUESTS = 2
CHILD_TIMEOUT_S = 165
# one fixed tail percentile, so that runs of a faster or slower program
# compare the same quantile; results record how many requests lie beyond it
TAIL_PERCENTILE = 75

E2E_UNITS = {
    "setup_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters until ``import crosscap.cli`` returns."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import crosscap.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def run_child(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- child ------------------------------------------------------------------------------


def _guarded(execute):
    """Run one request.  The requests handle the package's own errors, so
    any exception that reaches here is a failed request; the loop goes on."""
    try:
        return True, execute()
    except Exception:  # the loop must survive any failure of the program
        return False, traceback.format_exc()


def _loop(stream, cycle: int, seconds: float, tracer=None) -> list[dict]:
    """Closed loop over whole cycles of strata until ``seconds`` of request
    time have been spent; each outcome is judged right after its request,
    outside the timed region."""
    records = []
    busy = 0.0
    while busy < seconds or len(records) % cycle:
        request = next(stream)
        index = len(records)
        if tracer is None:
            start = time.perf_counter()
            finished, outcome = _guarded(request.execute)
            latency = time.perf_counter() - start
        else:
            start = time.perf_counter()
            finished, outcome = tracer.request_span(
                index, lambda: _guarded(request.execute)
            )
            latency = time.perf_counter() - start
        busy += latency
        records.append(_judge(request, latency, finished, outcome))
    return records


def _judge(request, latency: float, finished: bool, outcome) -> dict:
    if finished:
        verdict = request.check(outcome)
    else:
        verdict = oracle.Verdict()
        verdict.add("hard", f"crashed: {outcome.strip().splitlines()[-1]}")
    kinds = {kind for kind, _ in verdict.problems}
    return {
        "request": request,
        "stratum": request.stratum,
        "latency": latency,
        "status": "hard" if "hard" in kinds else ("drift" if kinds else "ok"),
        "problems": [message for _, message in verdict.problems[:3]],
        "stats": dict(verdict.stats, order=request.order),
    }


def hd_quantile(values: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics with Beta(p(n+1), (1-p)(n+1))
    weights; on a few dozen requests it is steadier than any single order
    statistic.  The weights are integrated with the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    logs = []
    for i in range(n):
        for j in range(steps):
            t = (i * steps + j + 0.5) / (n * steps)
            logs.append((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))
    top = max(logs)
    weights = [
        sum(math.exp(x - top) for x in logs[i * steps:(i + 1) * steps]) for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def child(args) -> int:
    import numpy as np

    import crosscap

    if Path(crosscap.__file__).resolve().parent != (SRC / "crosscap").resolve():
        print(f"crosscap imported from {crosscap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    environment = {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
    }
    files = workloads.RequestFiles(OUT / f"requests-{os.getpid()}")
    make = workloads.WORKLOADS[args.workload]
    cycle = workloads.CYCLES[args.workload]
    try:
        warm = make(random.Random(f"warmup-{args.seed}"), files)
        for _ in range(WARMUP_REQUESTS):
            request = next(warm)
            finished, outcome = _guarded(request.execute)
            if finished:
                request.check(outcome)
        stream = make(random.Random(f"timed-{args.seed}"), files)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                judged = _loop(stream, cycle, args.seconds, tracer)
            finally:
                tracer.uninstall()
            untraced = 0.0
            for record in judged:
                start = time.perf_counter()
                _guarded(record["request"].execute)
                untraced += time.perf_counter() - start
        else:
            judged = _loop(stream, cycle, args.seconds)
    finally:
        files.remove()

    latencies = [r["latency"] for r in judged]
    busy = sum(latencies)
    ok = sum(1 for r in judged if r["status"] == "ok")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": dict(environment, loadavg_end=os.getloadavg()),
        "attempted": len(judged),
        "failed": len(judged) - ok,
        "hard": sum(1 for r in judged if r["status"] == "hard"),
        "drift": sum(1 for r in judged if r["status"] == "drift"),
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": [
            {"stratum": r["stratum"], "status": r["status"], "problems": r["problems"]}
            for r in judged
            if r["status"] != "ok"
        ],
    }
    if args.trace:
        result["layers"] = tracer.metrics(len(judged), [r["stats"] for r in judged])
        result["layers"]["trace.overhead"] = busy / untraced - 1.0
        result["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        result.update(
            req_p50_s=statistics.median(latencies),
            req_tail_s=hd_quantile(latencies, TAIL_PERCENTILE / 100.0),
            tail_percentile=TAIL_PERCENTILE,
            tail_beyond=len(latencies) - math.ceil(TAIL_PERCENTILE / 100.0 * len(latencies)),
            req_per_s=ok / busy,
            error_rate=(len(judged) - ok) / len(judged),
            requests=[[r["stratum"], r["latency"], r["status"]] for r in judged],
        )
    print(json.dumps(result))
    return 0


# -- parent -----------------------------------------------------------------------------


def _top_layers(layers: dict) -> list[str]:
    shares = {n: layers.get(f"{n}.self_s", 0.0) for n in tracing.LAYERS + ("other",)}
    return sorted(shares, key=shares.get, reverse=True)[:2]


def report(workload: str, seed: int, trace: int, setup: list[float], child_result: dict) -> dict:
    """Print the human summary, write the results file, return the contract line."""
    n = child_result["attempted"]
    summary = {"workload": workload, "seed": seed, "trace": trace, "setup_runs_s": setup}
    summary.update(child_result)
    if trace:
        metrics = {
            name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in child_result["layers"].items()
        }
        predictions = json.loads((HERE / "predictions.json").read_text())
        predicted = predictions["top_layers"][workload]
        measured = _top_layers(child_result["layers"])
        summary["top_layers"] = {"measured": measured, "predicted": predicted,
                                 "agree": measured == predicted}
        print(f"[{workload}] traced, {n} requests; overhead "
              f"{child_result['layers']['trace.overhead']:+.3f}")
        for name, item in metrics.items():
            print(f"  {name:44s} {item['value']:.6g} {item['unit']}")
        print(f"  top layers by self time: measured {measured}, predicted {predicted}")
        if child_result["absent"]:
            print(f"  absent entry points: {child_result['absent']}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "req_p50_s": child_result["req_p50_s"],
            "req_tail_s": child_result["req_tail_s"],
            "req_per_s": child_result["req_per_s"],
            "peak_rss_mb": child_result["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}
        counts = {
            "setup_s": len(setup),
            "req_tail_s": n,
            "req_p50_s": n,
            "req_per_s": n,
            "peak_rss_mb": 1,
        }
        env = child_result["environment"]
        print(f"[{workload}] seed {seed}: {n} requests, {child_result['busy_s']:.2f} s of "
              f"request time; nproc {env['nproc']}, load {env['loadavg_start'][0]:.2f}, "
              f"Python {env['python']}, numpy {env['numpy']}, longdouble "
              f"{env['longdouble_mantissa_bits']} mantissa bits")
        for name, item in metrics.items():
            extra = ""
            if name == "req_tail_s":
                extra = (f" (p{child_result['tail_percentile']}, "
                         f"{child_result['tail_beyond']} beyond)")
            print(f"  {name:12s} {item['value']:.6g} {item['unit']}  n={counts[name]}{extra}")
        print(f"  {'error_rate':12s} {child_result['error_rate']:.6g} ratio  n={n} "
              f"({child_result['drift']} precision drift, {child_result['hard']} other)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return {
        "correct": child_result["hard"] == 0,
        "attempted": n,
        "failed": child_result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "crosscap" / "__init__.py").is_file():
        print(f"no crosscap sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    env = _child_env()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in names:
        setup = measure_setup(env)
        result = run_child(workload, args.seed, args.seconds, args.trace, env)
        lines[workload] = report(workload, args.seed, args.trace, setup, result)
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items()
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
