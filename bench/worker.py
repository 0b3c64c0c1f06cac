"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace | --setup-only]

Prints ``ready <job count>`` once the library is imported and the job list
(with every FieldConfig and seeded input) is built, then runs the jobs in
order, checks their outputs and prints one JSON line with the results.
The parent process times the interval up to ``ready`` as set-up; with
``--setup-only`` the worker stops there and prints only the probe's share
of set-up.  A traced run also writes its spans to ``.bench_out/`` at the
root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SPAN_DIR = os.path.join(ROOT, ".bench_out")
# The probe kernel's time on a host that nothing else loads; the worker's
# times are reported scaled to that host speed.
PROBE_REF_S = 1e-3
_PROBE_ADD = [[(a + b) % 5 for b in range(5)] for a in range(5)]
_PROBE_MUL = [[(a * b) % 5 for b in range(5)] for a in range(5)]
_PROBE_A = [(i * 7 + 3) % 5 for i in range(12)]
_PROBE_B = [(i * i + 1) % 5 for i in range(12)]


class SpeedProbe:
    """Times a fixed pure-Python kernel every 50 ms while the worker runs.

    On a shared host the speed of one core changes by up to 1.7x from one
    second to the next and drifts over minutes, and the worker's times move
    with it.  The kernel (schoolbook products of two 12-term polynomials
    over F_5 by table lookup, about 1 ms) runs from a timer signal between
    the worker's bytecodes, so its mean time over a repetition is the host
    speed that repetition saw; a shorter kernel tracks the host worse,
    because its cold start weighs more.  The probe costs about 2% of the
    worker's time, which is taken out again.  It uses no library code: a
    change to the library does not change the probe.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples = []

    @staticmethod
    def kernel():
        add, mul, A, B = _PROBE_ADD, _PROBE_MUL, _PROBE_A, _PROBE_B
        for _ in range(80):
            out = [0] * (len(A) + len(B) - 1)
            for i, a in enumerate(A):
                if a:
                    row = mul[a]
                    for j, b in enumerate(B):
                        if b:
                            out[i + j] = add[out[i + j]][row[b]]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:        # a worker faster than one period
            self._tick(None, None)

    def busy(self):
        """Seconds spent in the probe so far."""
        return sum(self.samples)

    def scale(self):
        """Factor that takes a time seen here to the reference host speed."""
        return PROBE_REF_S / statistics.fmean(self.samples)


def import_library():
    """Import carlitzbases from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import carlitzbases
    if not os.path.abspath(carlitzbases.__file__).startswith(SRC + os.sep):
        raise ImportError(f"carlitzbases imported from {carlitzbases.__file__}, "
                          f"not from {SRC}")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_jobs(jobs, on_job=None):
    """Run the jobs in order; returns (outputs, errors, seconds).

    A job that raises gets output None and its traceback in errors.
    """
    outputs, errors = [], {}
    clock = time.perf_counter
    elapsed = 0.0
    for k, job in enumerate(jobs):
        if on_job is not None:
            on_job(k)
        t0 = clock()
        try:
            out = job.execute()
        except Exception:
            out = None
            errors[job.name] = traceback.format_exc(limit=3)
        elapsed += clock() - t0
        outputs.append(out)
    return outputs, errors, elapsed


def check_jobs(jobs, outputs, errors, reference):
    """Failure reason by job name, for every job that failed."""
    failures = {}
    for job, out in zip(jobs, outputs):
        if job.name in errors:
            failures[job.name] = "raised: " + errors[job.name].strip().splitlines()[-1]
            continue
        try:
            reason = job.check(out, reference)
        except Exception as exc:  # a malformed output counts against the job
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[job.name] = reason
    return failures


def output_bytes(outputs):
    from workloads import CliOutput
    return sum(len(out.stdout.encode()) for out in outputs
               if isinstance(out, CliOutput))


def main(argv=None):
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_library()
    import workloads
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    # Table building belongs to set-up; the CLI jobs build their own
    # FieldConfig again inside the timed region, as a CLI call does.
    for q in workloads.FIELDS:
        workloads.field(q)
    setup_probe_s = probe.busy()
    proto = sys.stdout
    proto.write(f"ready {len(jobs)}\n")
    proto.flush()
    if args.setup_only:
        probe.stop()
        proto.write(json.dumps({"setup_probe_s": setup_probe_s}) + "\n")
        return 0

    recorder = cached = None
    on_job = None
    if args.trace:
        import tracing
        from carlitzbases import carlitz
        cached = tracing.cache_callables(carlitz)
        recorder = tracing.SpanRecorder()
        recorder.install()

        def on_job(k):
            recorder.current_job = k

    jobs_probe_s = probe.busy()
    outputs, errors, wall = run_jobs(jobs, on_job)
    jobs_probe_s = probe.busy() - jobs_probe_s
    probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The parent times set-up and scales it with the same factor.
    result = {"wall_s": (wall - jobs_probe_s) * probe.scale(),
              "raw_wall_s": wall, "speed_scale": probe.scale(),
              "setup_probe_s": setup_probe_s,
              "peak_rss_mb": peak_kb / 1024.0, "attempted": len(jobs)}
    if recorder is not None:
        recorder.uninstall()
        result["per_layer"] = tracing.layer_metrics(recorder, cached,
                                                    output_bytes(outputs))
        recorder.write(SPAN_DIR, f"spans-{args.workload}",
                       [job.name for job in jobs])
    failures = check_jobs(jobs, outputs, errors, load_reference())
    result["failed"] = len(failures)
    result["failures"] = failures
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
