"""The carlitzbases benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed job list again and again, each time in a fresh
interpreter (bench/worker.py, one at a time, one thread each) so the
library's caches start cold as they do for a user's CLI call, until the
next repetition would end after S seconds.  At least one repetition runs.
The last line of standard output is one JSON object:

* ``--trace 0``: ``wall_s`` (job list, set-up excluded), ``setup_s``
  (interpreter start, import, job-list and FieldConfig construction) and
  ``peak_rss_mb`` (``ru_maxrss`` of the worker).  Both times are scaled to
  a reference host speed by the speed probe that runs inside the worker
  (``worker.SpeedProbe``), with the probe's own time taken out; the
  unscaled job-list times go to stderr.  ``setup_s`` is the median over
  every repetition's set-up and over the extra workers that only set up,
  ``peak_rss_mb`` the median over the repetitions, and ``wall_s`` the first
  quartile over the repetitions, because load from other tenants that the
  probe misses only ever slows a repetition down.
* ``--trace 1``: untraced and traced repetitions alternate; the per-layer
  metrics are medians over the traced ones, and ``trace.overhead`` is the
  median traced ``wall_s`` over the median untraced ``wall_s``.  Spans of
  the last traced repetition go to ``.bench_out/``.

``attempted`` and ``failed`` count jobs over all repetitions; a job fails
when it raises, exits non-zero, returns a verdict other than ``verified``
or does not match its reference.  Exits without a result, non-zero, when
the checkout has no library source, the arguments are bad or a worker
process dies.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-tower", "series-voloch", "verify-sweep")
# Every worker is killed at this point, so a run ends well inside 180 s.
HARD_LIMIT_S = 170.0
# Workers started after each repetition only to time set-up again: set-up
# lasts a fraction of a second, so one sample per repetition is too few.
EXTRA_SETUPS = 3


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, deadline, *flags):
    """One worker; returns (unscaled setup_s, job count, result dict)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *flags]
    t0 = time.perf_counter()
    # Unbuffered, so readline takes no more than the ready line and
    # communicate, which reads the pipe itself, gets all that follows.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        ready = proc.stdout.readline().decode().split()
        setup = time.perf_counter() - t0
        if len(ready) != 2 or ready[0] != "ready":
            raise WorkerFailed(f"worker did not start: {ready}")
        tail, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker killed at the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not tail.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return setup, int(ready[1]), json.loads(tail.decode().strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "carlitzbases", "__init__.py")):
        print(f"error: no carlitzbases source under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    plain, traced, setups = [], [], []
    attempted = failed = 0
    longest = {False: 0.0, True: 0.0}
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        if plain and (not args.trace or traced):
            left = args.seconds - (time.perf_counter() - start)
            if longest[trace] > left:
                break
        t0 = time.perf_counter()
        try:
            setup, jobs, res = run_worker(args.workload, args.seed, deadline,
                                          *(["--trace"] if trace else []))
            # Every set-up is scaled by the host speed of this repetition.
            scale = res["speed_scale"]
            setups.append((setup - res["setup_probe_s"]) * scale)
            for _ in range(EXTRA_SETUPS):
                setup, _, extra = run_worker(args.workload, args.seed, deadline,
                                             "--setup-only")
                setups.append((setup - extra["setup_probe_s"]) * scale)
        except WorkerFailed as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            return 1
        longest[trace] = max(longest[trace], time.perf_counter() - t0)
        attempted += jobs
        failed += res["failed"]
        for name, reason in res["failures"].items():
            print(f"failed job {name!r}: {reason}", file=sys.stderr)
        (traced if trace else plain).append(res)

    def lower_quartile(values):
        values = list(values)
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=4, method="inclusive")[0]

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        for r in traced:
            r["per_layer"]["trace.overhead"] = r["wall_s"] / med(plain, "wall_s")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": statistics.median(
            r["per_layer"][m["name"]] for r in traced), "unit": m["unit"]}
            for m in declared}
    else:
        metrics = {
            "wall_s": {"value": lower_quartile(r["wall_s"] for r in plain),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": med(plain, "peak_rss_mb"), "unit": "MB"},
        }
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions; untraced wall_s {[round(r['wall_s'], 3) for r in plain]}, "
          f"unscaled {[round(r['raw_wall_s'], 3) for r in plain]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
