"""Benchmark entry point for nfgdual.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Untraced (--trace 0), the workload's set-up runs in SETUP_PROBES short
processes and once more in the measured process, which then times
operations for S seconds; set-up time is the median over these processes.
Traced (--trace 1), one process runs with timing wrappers around the
library's layers and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
# the keys of workloads.WORKLOADS, repeated so this process never imports numpy
WORKLOADS = ("bp_torus", "mcmc_torus", "exact_small", "gmrf_chains")
SETUP_PROBES = 2
PROCESS_TIMEOUT = 170.0  # seconds for all processes of one run together

# One BLAS thread: the benchmark starts no threads of its own, and on a
# small shared machine a BLAS thread pool only adds noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args, deadline, extra):
    """Launch worker.py; return (launch time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    env = dict(os.environ, **THREAD_ENV)
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nfgdual" / "__init__.py").is_file():
        print(f"no nfgdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + PROCESS_TIMEOUT

    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
            _, res = _worker(args, deadline, ["--seconds", str(args.seconds), "--trace",
                                              "--trace-out", str(trace_file)])
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in res["layers"].items()}
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                launched, probe = _worker(args, deadline, ["--probe"])
                setups.append(probe["first_op"] - launched)
            launched, res = _worker(args, deadline, ["--seconds", str(args.seconds)])
            setups.append(res["first_op"] - launched)
            ops = res["op_seconds"]
            metrics = {
                "estimates_per_s": {"value": len(ops) / sum(ops), "unit": "1/s"},
                "estimate_p50_ms": {"value": 1e3 * statistics.median(ops), "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
