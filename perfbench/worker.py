"""One workload in one process: set-up, a timed phase, output checks.

Run by `run.py`, which times this process from its launch. Prints one JSON
object on its last line of standard output:

  first_op   time.monotonic() when the first timed operation started
  attempted, failed, correct, failures, op_seconds, peak_rss_kb
  layers     per-layer metrics (with --trace)

With --probe the process stops once set-up is done and reports first_op only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import nfgdual from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import nfgdual

    if Path(nfgdual.__file__).resolve().parent != SRC / "nfgdual":
        raise ImportError(f"nfgdual was imported from {nfgdual.__file__}, not from {SRC}")
    return nfgdual


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    package = _import_program()
    import tracing
    import workloads

    # Without --trace the tracer wraps nothing, and setting its op is inert.
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(package)
    tracer.op = "setup"
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.prepare(None)
    for i in range(workloads.PREBUILT):
        work.prepare(i)
    tracer.op = "warmup"
    work.run(work.take(None))
    tracer.op = None

    first_op = time.monotonic()
    if args.probe:
        print(json.dumps({"first_op": first_op}))
        return 0

    op_seconds, failures, failed = [], [], 0  # failures: messages of failed checks
    elapsed, index = 0.0, 0
    while elapsed < args.seconds or index % work.round_size:
        inp = work.take(index)
        tracer.op = index
        t0 = time.perf_counter()
        try:
            out = work.run(inp)
        except Exception:  # an operation that raises counts as failed
            out = None
            failed += 1
            print(f"operation {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
        dt = time.perf_counter() - t0
        tracer.op = None
        elapsed += dt
        if out is not None:
            op_seconds.append(dt)
            failures.extend(f"operation {index}: {msg}" for msg in work.check(inp, out))
        index += 1

    result = {
        "first_op": first_op,
        "attempted": index,
        "failed": failed,
        "correct": not failures,
        "failures": failures[:20],
        "op_seconds": op_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer, index)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
