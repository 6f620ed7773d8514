"""The cyclealg benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload explicit_towers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter importing ``cyclealg.cli`` (median of several), then the
workload's closed loop in its own fresh process.  ``--trace 1`` runs one
traced pass and reports the per-layer metrics.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate, materialize  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 11
#: numpy here links a 64-thread OpenBLAS; one client means one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150


def child_env(root):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_seconds(env):
    """Median time from spawning a fresh interpreter until ``import cyclealg.cli`` is done."""
    code = "import cyclealg.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=60)
        if line != "ready\n" or proc.returncode:
            raise SystemExit("a fresh interpreter could not import cyclealg.cli")
        if i:  # the first start compiles bytecode once; users do not pay it per run
            samples.append(ready - start)
    return statistics.median(samples)


def run_worker(root, env, ops_path, seconds, trace, spans_path):
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(seconds),
           str(trace), str(spans_path)]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(summary, setup_s):
    lat_ms = [x * 1e3 for x in summary["latencies_s"]]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat_ms) / summary["loop_s"], "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": summary["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def run_workload(root, workload, seed, seconds, trace):
    env = child_env(root)
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops = materialize(generate(workload, seed), work)
        ops_path = work / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        setup_s = None if trace else setup_seconds(env)
        summary = run_worker(root, env, ops_path, seconds, trace, work.parent / f"spans-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = summary["per_layer"] if trace else end_to_end(summary, setup_s)
    return summary, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "cyclealg" / "cli.py").is_file():
        sys.stderr.write("run from the repository root: src/cyclealg/cli.py is missing\n")
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    merged = {}
    for workload in selected:
        summary, metrics = run_workload(root, workload, args.seed, args.seconds, args.trace)
        attempted += summary["attempted"]
        failed += summary["failed"]
        for index, reason in summary["failures"].items():
            print(f"{workload} FAILED op {index}: {reason}")
        print(f"{workload}: {summary['attempted']} ops attempted, {summary['failed']} failed")
        rows = dict(metrics)
        if not args.trace:
            rows["fail_share"] = {"value": summary["failed"] / summary["attempted"], "unit": "ratio"}
        for name, metric in rows.items():
            print(f"  {name:58s} {metric['value']:>16.6g} {metric['unit']}")
        for name, metric in metrics.items():
            merged[name if len(selected) == 1 else f"{workload}.{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
