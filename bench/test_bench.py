"""Tests of the benchmark itself: failure counting, the oracle, the tracer.

    python3 -m pytest bench -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from carlitzbases import TruncSeries, carlitz, identities, transforms  # noqa: E402

REFERENCE = worker.load_reference()


def _series(q, prec, seed=5):
    cfg = workloads.field(q)
    digits = [(seed * 7 + 3 * i * i) % q for i in range(prec)]
    return cfg, TruncSeries(cfg, 0, digits, prec)


def _corrupt(execute):
    def run():
        out = execute()
        out.stdout = out.stdout.replace("1", "0", 1)
        return out
    return run


def test_fail_frac_counts_raise_verdict_and_corrupted_output():
    cfg, x = _series(2, 40)
    _, short = _series(2, 5)
    good = workloads.WORKLOADS["verify-sweep"](0)[1]       # ortho q3 n2
    assert good.name == "ortho q3 n2"
    jobs = [
        good,
        # E_3 needs input precision > 7: the evaluator raises.
        workloads.series_job("raises", cfg, short, range(1, 4), (3,), (3,)),
        # The budget admits too few polynomials: verdict budget_exhausted.
        workloads.Job("budget", lambda: workloads.run_cli(
            ["--q", "4", "--budget", "4", "verify", "--suite", "ortho", "--n", "2"]),
            workloads.check_verdicts("budget")),
        # Output bytes altered after the CLI wrote them.
        workloads.Job("corrupted", _corrupt(good.execute), good.check),
        workloads.series_job("series ok", cfg, x, range(1, 3), (3, 5), (3, 5)),
    ]
    outputs, errors, _ = worker.run_jobs(jobs)
    failures = worker.check_jobs(jobs, outputs, errors, REFERENCE)
    assert sorted(failures) == ["budget", "corrupted", "raises"]
    assert failures["raises"].startswith("raised: ")
    assert "PrecisionError" in failures["raises"]
    assert "budget_exhausted" in outputs[2].stdout
    assert "digest" in failures["corrupted"]
    assert len(failures) / len(jobs) == 3 / 5


def test_verdict_other_than_verified_fails_even_with_exit_zero():
    out = workloads.CliOutput(0, json.dumps({"reports": [
        {"status": "verified"}, {"status": "falsified"}]}))
    reason = workloads.check_verdicts("x")(out, {"report_counts": {"x": 2}})
    assert reason and "falsified" in reason


def test_corrupted_series_digit_is_caught_by_the_oracle():
    cfg, x = _series(3, 60)
    job = workloads.series_job("s", cfg, x, range(1, 3), (4, 8), (5,))
    outputs = job.execute()
    assert job.check(outputs, REFERENCE) is None
    kind, idx, out = outputs[-1]
    coeffs = list(out.coeffs)
    coeffs[2] = (coeffs[2] + 1) % cfg.q
    outputs[-1] = (kind, idx, TruncSeries(cfg, out.v, coeffs, out.prec))
    assert "D_5 differs" in job.check(outputs, REFERENCE)


def test_oracle_accepts_a_higher_output_precision():
    # An exact input is its own truncation, so every digit must agree.
    cfg, x = _series(2, 30)
    exact = TruncSeries(cfg, 0, x.coeffs, 80)
    job = workloads.series_job("s", cfg, exact, range(1, 4), (5,), (3,))
    assert job.check(job.execute(), REFERENCE) is None


def test_expansion_check_follows_the_seeded_scalars():
    import random
    job = workloads.seeded_expand_job("expand E q2", 2, "E", 8, ("E:6", "D:3"),
                                      random.Random(11))
    out = job.execute()
    assert job.check(out, REFERENCE) is None
    out.stdout = out.stdout.replace('"0"', '"T"', 1)
    assert job.check(out, REFERENCE) is not None


def test_self_time_subtracts_direct_children():
    rec = tracing.SpanRecorder()
    inner = rec.wrap(lambda: time.sleep(0.02), "inner")

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = rec.wrap(outer_body, "outer")
    outer()
    spans = rec.reduce()
    assert spans["inner"][0] == 2 and spans["outer"][0] == 1
    assert 0.035 < spans["inner"][1] < 0.1
    assert 0.008 < spans["outer"][1] < 0.03
    total = rec.end[0] - rec.start[0]
    assert abs(spans["inner"][1] + spans["outer"][1] - total) < 1e-9


def test_install_rebinds_every_module_binding_and_restores_it():
    original = carlitz.eval_E
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        assert transforms.eval_E is carlitz.eval_E is identities.eval_E
        assert carlitz.eval_E is not original
        cfg, x = _series(2, 20)
        transforms.E_func(cfg, 2)(x)
        workloads.series_job("s", cfg, x, (1,), (3,), (2,)).execute()
        spans = rec.reduce()
        assert spans["carlitz.eval_E"][0] == 1 + 1 + 2    # G_3 = E_0 * E_1
        assert spans["carlitz.eval_G"][0] == 1
        assert spans["hasse.eval_D"][0] == 1
        assert spans["algebra.series_mul"][0] > 0
    finally:
        rec.uninstall()
    assert carlitz.eval_E is original and transforms.eval_E is original


def test_runner_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-tower", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_speed_probe_samples_while_busy_and_stops_its_timer():
    import signal
    probe = worker.SpeedProbe()
    probe.start()
    end = time.perf_counter() + 0.4
    while time.perf_counter() < end:
        sum(range(100))
    probe.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert abs(probe.busy() - sum(probe.samples)) < 1e-12
    mean = sum(probe.samples) / len(probe.samples)
    assert abs(probe.scale() - worker.PROBE_REF_S / mean) < 1e-9


def test_setup_only_worker_result_survives_the_ready_line():
    # The result follows the ready line at once; reading one must not
    # swallow the other.
    for _ in range(5):
        _, jobs, res = run.run_worker("exact-tower", 1, time.perf_counter() + 60,
                                      "--setup-only")
        assert jobs == 9
        assert 0 <= res["setup_probe_s"] < 0.1
