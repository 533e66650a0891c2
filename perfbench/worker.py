"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints "ready" once the first job can start (cycleforge imported, inputs
built), then runs the job set pass after pass until S seconds have gone
by, and prints one JSON line with every job time, the check outcome and
peak RSS.  A round that would end after S seconds is not started.  With
--trace 1 a round is a traced pass then an untraced one, after a first
untraced pass; traced passes add per-layer figures.  --setup-only stops
after "ready", so the parent can time set-up in fresh interpreters.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_pass(workload, tracer=None) -> dict:
    jobs = []
    outputs = []
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for job in workload.jobs:
            ts = time.perf_counter()
            try:
                out = job.call()
                err = None
            except Exception as e:  # a failing job is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - ts
            if err is None:
                err = job.check(out)
            jobs.append([job.label, dt, err])
            outputs.append(out)
        for i, reason in workload.check_pass(outputs):
            jobs[i][2] = jobs[i][2] or reason
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"traced": tracer is not None,
            "wall_s": time.perf_counter() - t0, "jobs": jobs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import cycleforge.cli  # noqa: F401  (the import every CLI call pays)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.small)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        # the CLI writes reports to --out files; keep our stdout for results
        with contextlib.redirect_stdout(sys.stderr):
            passes = [run_pass(workload)]
            layers = []
            while True:
                # stop before a round that would end past the deadline; a
                # traced run gets one round, so that each traced pass sits
                # between two untraced ones
                round_s = passes[-1]["wall_s"] * (1 if tracer is None else 2)
                if time.perf_counter() + round_s > deadline and (
                        tracer is None or layers):
                    break
                if tracer is not None:
                    tracer.reset()
                    passes.append(run_pass(workload, tracer))
                    layers.append(tracer.summary())
                passes.append(run_pass(workload))
        if tracer is not None:
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"passes": passes, "layers": layers,
                          "peak_rss_mb": rss_kb / 1024}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
