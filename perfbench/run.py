"""cycleforge benchmark.

    python3 perfbench/run.py --workload focus|configs|returnmap|all \
        --seed N --seconds S --trace 0|1 [--small]

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded interpreter as a closed loop with one client: the next
job starts when the previous one has finished, and every output is
checked.  Set-up is timed in several more fresh interpreters.  The
script prints every metric by name with its unit, then one JSON line:
with --trace 0 the end-to-end metrics named in BENCHMARK.json, with
--trace 1 its per-layer metrics.  --small shrinks the job sets for the
harness test.  perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from statistics import median, quantiles

from tracer import stat_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("focus", "configs", "returnmap")
TIME_LIMIT_S = 170.0
SETUP_PROBES = 6

# the heavy focus cases, by metric name -> job label
FOCUS_HEAVY = {
    "lyap_P5_N5_s": "lyap-P5-N5",
    "lyap_P4_N6_s": "lyap-P4-N6",
    "eliminate_P4_N5_s": "eliminate-P4-N5",
}


class BenchError(Exception):
    pass


def _worker(argv: list, deadline: float):
    """Start a worker; return (seconds until it was ready, its result line)."""
    t0 = time.perf_counter()
    # one process, no extra threads: numpy's BLAS pool is kept to one thread
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker {argv} did not get ready")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker {argv} exited with status {proc.returncode}")
        return setup_s, out
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()


def measure(workload: str, seed: int, seconds: float, trace: int,
            small: bool, deadline: float):
    """Run one workload; return (attempted, failed, errors, metrics) where
    metrics maps name -> (value, unit, note)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if small:
        base.append("--small")
    # set-up probes go half before and half after the measured run, so that
    # a slow spell of a shared machine does not hit all of them
    probes = 0 if trace else 1 if small else SETUP_PROBES
    setups = [_worker(base + ["--setup-only"], deadline)[0]
              for _ in range(probes // 2)]
    setup_s, out = _worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(setup_s)
    setups += [_worker(base + ["--setup-only"], deadline)[0]
               for _ in range(probes - probes // 2)]
    result = json.loads(out.strip().splitlines()[-1])

    passes = result["passes"]
    jobs = [j for p in passes for j in p["jobs"]]
    errors = [f"{label}: {err}" for label, _, err in jobs if err]
    untraced = [p for p in passes if not p["traced"]]
    times = sorted(j[1] for p in untraced for j in p["jobs"])
    n_pass = f"median of {len(untraced)} passes"
    m = {
        "setup_s": (median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "wall_s": (median([p["wall_s"] for p in untraced]), "s", n_pass),
        "job_s.p50": (median(times), "s", f"{len(times)} jobs"),
    }
    # the highest percentile reported keeps at least 10 samples beyond it
    if len(times) >= 100:
        m["job_s.p90"] = (quantiles(times, n=10)[-1], "s",
                          f"{len(times)} jobs")
    if workload == "focus":
        for name, label in FOCUS_HEAVY.items():
            m[name] = (median([j[1] for p in untraced for j in p["jobs"]
                                if j[0] == label]), "s", n_pass)
    if workload == "returnmap":
        m["bracket_s.p50"] = (median(times), "s", f"{len(times)} brackets")
    m["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "worker process")
    m["fail_ratio"] = (len(errors) / len(jobs), "1", f"{len(errors)}/{len(jobs)} jobs")

    layers = result["layers"]
    if layers:
        traced_wall = median([p["wall_s"] for p in passes if p["traced"]])
        for name, value in layers[0].items():
            stat = name.rsplit(".", 1)[1]
            if stat == "self_s":
                value = median([lay[name] for lay in layers])
                m[name] = (value, "s", f"median of {len(layers)} traced passes")
            else:
                m[name] = (value, stat_unit(stat), "")
        if any(lay[k] != layers[0][k] for lay in layers for k in lay
               if not k.endswith("self_s")):
            raise BenchError("per-layer counts differ between traced passes")
        m["trace.overhead_ratio"] = (traced_wall / m["wall_s"][0], "1",
                                     "traced wall_s / untraced wall_s")
    return len(jobs), len(errors), errors, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    # on SIGTERM, unwind so that _worker stops and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "cycleforge", "cli.py")):
        sys.stderr.write(f"error: no cycleforge sources under {ROOT}/src\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = [x["name"] for x in spec["per_layer" if args.trace else "end_to_end"]]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    final = {}
    for w in workloads:
        try:
            a, f, errors, metrics = measure(w, args.seed, args.seconds,
                                            args.trace, args.small, deadline)
        except BenchError as e:
            sys.stderr.write(f"error: {w}: {e}\n")
            return 1
        attempted += a
        failed += f
        print(f"# workload {w}, seed {args.seed}: {a} jobs, {f} failed")
        for err in errors[:10]:
            print(f"#   FAIL {err}")
        for name, (value, unit, note) in metrics.items():
            print(f"{w:<10} {name:<46} {value:>14.6g} {unit:<5} {note}")
        missing = [n for n in reported if n not in metrics]
        if missing:
            sys.stderr.write(f"error: {w}: no value for {missing}\n")
            return 1
        prefix = f"{w}." if len(workloads) > 1 else ""
        for n in reported:
            final[prefix + n] = {"value": metrics[n][0], "unit": metrics[n][1]}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
