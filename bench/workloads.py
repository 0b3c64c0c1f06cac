"""The benchmark's workloads: fixed job lists whose inputs come from the seed.

Each workload is an ordered list of jobs run in one fresh interpreter, so
the library's module-level caches start cold and later jobs read what
earlier ones cached.  Job order is part of the workload: the ``reduced``
jobs of exact-tower cost almost nothing because the ``inverse`` jobs before
them cached every E_n(T^j) they read.

Jobs go through ``cli.main(argv)`` wherever the CLI can express them.  The
seed sets ``--seed`` for the suites that sample (addition, linearity,
power), the polynomial scalars in the function specs, and the random
series inputs of the library jobs.  Sizes are fixed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from carlitzbases import (FieldConfig, Poly, TruncSeries, carlitz, cli, hasse,
                          parse_poly)

from oracle import SeriesOracle, base_q_digits, series_mismatch


@dataclass
class Job:
    """One unit of work: ``execute`` is timed, ``check`` is not.

    ``check(output, reference)`` returns None when the output is correct
    and a one-line reason otherwise.  ``make_reference()`` recomputes the
    job's entries of reference.json from the current code.
    """

    name: str
    execute: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    make_reference: Callable[[], dict] = lambda: {}


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    rc: int
    stdout: str
    stderr: str = ""


def run_cli(argv: List[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliOutput(rc, out.getvalue(), err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exit_ok(out: CliOutput) -> Optional[str]:
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
    return None


def check_digest(name):
    """Seed-free output: the bytes must match the stored digest."""
    def check(out: CliOutput, ref: dict) -> Optional[str]:
        bad = _exit_ok(out)
        if bad:
            return bad
        if digest(out.stdout) != ref["digests"].get(name):
            return "output bytes differ from the reference digest"
        return None
    return check


def check_verdicts(name):
    """Seeded suite: every report verified, and as many reports as stored."""
    def check(out: CliOutput, ref: dict) -> Optional[str]:
        bad = _exit_ok(out)
        if bad:
            return bad
        reports = json.loads(out.stdout)["reports"]
        statuses = sorted({r["status"] for r in reports})
        if statuses != ["verified"]:
            return f"verdicts {statuses}, expected only 'verified'"
        if len(reports) != ref["report_counts"].get(name):
            return (f"{len(reports)} reports, reference has "
                    f"{ref['report_counts'].get(name)}")
        return None
    return check


def expansion_key(q: int, basis: str, terms: int, func: str) -> str:
    return f"q{q} {basis} {terms} {func}"


def check_expansion(cfg: FieldConfig, basis: str, terms: int,
                    parts: List[Tuple[Poly, str]]):
    """Seeded linear combination: coefficient recovery is F_q[T]-linear in f,
    so the entries must equal sum(scalar * reference expansion of each part).
    """
    def check(out: CliOutput, ref: dict) -> Optional[str]:
        bad = _exit_ok(out)
        if bad:
            return bad
        expected = [Poly.zero(cfg)] * terms
        for scalar, func in parts:
            entries = ref["expansions"][expansion_key(cfg.q, basis, terms, func)]
            expected = [acc + scalar * parse_poly(cfg, e)
                        for acc, e in zip(expected, entries)]
        got = json.loads(out.stdout)["entries"]
        if got != [str(e) for e in expected]:
            return "expansion entries differ from the linear combination"
        return None
    return check


def cli_text(argv: List[str]) -> str:
    """Output of a CLI call that must succeed (for building references)."""
    out = run_cli(argv)
    if out.rc != 0:
        raise RuntimeError(f"{argv} exited {out.rc}: {out.stderr}")
    return out.stdout


def cli_json(argv: List[str]) -> dict:
    return json.loads(cli_text(argv))


def _seeded_scalar(cfg: FieldConfig, rng: random.Random) -> Poly:
    while True:
        s = Poly(cfg, [rng.randrange(cfg.p) for _ in range(3)])
        if not s.is_zero:
            return s


def seeded_expand_job(name: str, q: int, basis: str, terms: int,
                      funcs: Tuple[str, ...], rng: random.Random) -> Job:
    """``expand`` of sum(s_i * f_i) with seeded scalars of degree <= 2.

    The spec grammar splits on '+', so each scalar is written as one
    monomial term per nonzero coefficient.
    """
    cfg = field(q)
    parts = [(_seeded_scalar(cfg, rng), f) for f in funcs]
    spec = "+".join(f"{c}*T^{k}*{f}" for s, f in parts
                    for k, c in enumerate(s.coeffs) if c)

    def argv(f):
        return ["--q", str(q), "expand", "--f", f, "--basis", basis,
                "--terms", str(terms)]

    def make_reference():
        return {"expansions": {expansion_key(q, basis, terms, f):
                               cli_json(argv(f))["entries"] for f in funcs}}

    return Job(name, lambda: run_cli(argv(spec)),
               check_expansion(cfg, basis, terms, parts), make_reference)


# ---------------------------------------------------------------------------
# Library jobs on truncated series (the CLI cannot express these)
# ---------------------------------------------------------------------------

# q, input precisions, E_n orders, G_j indices, D_j indices.
SERIES_PLAN = (
    (2, (256, 224, 192, 160, 128, 96), range(1, 7), (3, 5, 7, 13, 22, 45, 90),
     (3, 7, 12, 20, 45, 90)),
    (3, (192, 160, 128, 96), range(1, 5), (4, 8, 13, 26, 50), (5, 13, 20, 26, 50)),
    (4, (128, 112, 96), range(1, 4), (5, 9, 21, 42), (5, 9, 21, 42)),
    (5, (160, 128, 96), range(1, 4), (6, 12, 24, 48), (6, 12, 24, 48)),
)


def series_job(name, cfg, x: TruncSeries, ns, gs, ds) -> Job:
    calls = ([("E", n) for n in ns] + [("G", j) for j in gs]
             + [("D", j) for j in ds])
    # Highest E_n the oracle needs: the top E order, or the top base-q digit
    # position of a G index.
    n_max = max(max(ns), max(len(base_q_digits(j, cfg.q)) - 1 for j in gs))
    # Looked up on the module at call time, so a traced run sees these calls.
    evaluators = {"E": (carlitz, "eval_E"), "G": (carlitz, "eval_G"),
                  "D": (hasse, "eval_D")}

    def execute():
        return [(kind, idx, getattr(*evaluators[kind])(cfg, idx, x))
                for kind, idx in calls]

    def check(outputs, ref) -> Optional[str]:
        P = max(int(out.prec) for _, _, out in outputs)
        digits = [x.coeff(i) for i in range(int(x.prec))]
        oracle = SeriesOracle(cfg, digits, n_max, P)
        for kind, idx, out in outputs:
            i = series_mismatch(out, oracle.value(kind, idx))
            if i is not None:
                return f"{kind}_{idx} differs from the exact value at T^{i}"
        return None

    return Job(name, execute, check)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _fixed(name: str, argv: List[str]) -> Job:
    return Job(name, lambda: run_cli(argv), check_digest(name),
               lambda: {"digests": {name: digest(cli_text(argv))}})


def _seeded_verify(name: str, argv: List[str]) -> Job:
    return Job(name, lambda: run_cli(argv), check_verdicts(name),
               lambda: {"report_counts": {name: len(cli_json(argv)["reports"])}})


def exact_tower(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = [_fixed(f"inverse q{q} size {s}",
                   ["--q", str(q), "matrix", "--which", "inverse", "--size", str(s)])
            for q, s in ((2, 9), (3, 7), (4, 6), (5, 5))]
    jobs += [_fixed(f"reduced q{q}", ["--q", str(q), "verify", "--suite", "reduced"])
             for q in (3, 4)]
    jobs.append(_fixed("distance q3 n4",
                       ["--q", "3", "verify", "--suite", "distance", "--n", "4"]))
    jobs.append(seeded_expand_job("expand E q2", 2, "E", 8, ("E:6", "D:3"), rng))
    jobs.append(seeded_expand_job("expand E q3", 3, "E", 6, ("E:4", "D:3"), rng))
    return jobs


def series_voloch(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = [_fixed(f"voloch q{q} size {s} prec {p}",
                   ["--q", str(q), "matrix", "--which", "voloch", "--size", str(s),
                    "--prec", str(p)])
            for q, s, p in ((2, 12, 96), (2, 13, 64), (3, 12, 128))]
    for q, precs, ns, gs, ds in SERIES_PLAN:
        cfg = field(q)
        for prec in precs:
            x = TruncSeries(cfg, 0, [rng.randrange(q) for _ in range(prec)], prec)
            jobs.append(series_job(f"series q{q} prec {prec}", cfg, x, ns, gs, ds))
    return jobs


def verify_sweep(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = [_fixed(f"ortho q{q} n{n}",
                   ["--q", str(q), "verify", "--suite", "ortho", "--n", str(n)])
            for q, n in ((2, 5), (3, 2), (4, 2), (5, 2))]
    for suite, qs in (("addition", (3, 4)), ("linearity", (2, 3, 4)), ("power", (5,))):
        jobs += [_seeded_verify(f"{suite} q{q}",
                                ["--q", str(q), "--seed", str(seed), "verify",
                                 "--suite", suite])
                 for q in qs]
    jobs.append(seeded_expand_job("expand G q3", 3, "G", 27, ("G:5", "Dj:7"), rng))
    jobs.append(seeded_expand_job("expand D q2", 2, "D", 32, ("G:5", "Dj:7"), rng))
    return jobs


# Every workload uses these fields; set-up builds a FieldConfig for each.
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def field(q: int) -> FieldConfig:
    return FieldConfig(*FIELDS[q])


WORKLOADS = {
    "exact-tower": exact_tower,
    "series-voloch": series_voloch,
    "verify-sweep": verify_sweep,
}
