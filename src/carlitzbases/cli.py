"""Command-line front end: expansions, basis matrices, identity verification.

Exit status contract: 0 verified / success, 1 falsified, 2 budget,
configuration or out-of-memory error.  All sampling randomness comes from
the --seed flag, so identical configurations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .algebra import (
    BudgetError,
    DomainError,
    FieldConfig,
    PrecisionError,
    parse_poly,
)
from . import identities, transforms
from .transforms import (
    Basis,
    D_func,
    Dj_func,
    E_func,
    G_func,
    LinearFunc,
    add_func,
    frobenius_func,
    identity_func,
    monomial_func,
    scale_func,
)


@dataclass
class RunConfig:
    p: int = 2
    e: int = 1
    modulus: Optional[str] = None
    prec: int = 24
    budget: int = transforms.DEFAULT_BUDGET
    seed: int = 0
    format: str = "json"

    def to_text(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))

    def field(self) -> FieldConfig:
        if self.modulus is None:
            return FieldConfig(self.p, self.e)
        tmp = FieldConfig(self.p)
        mod = parse_poly(tmp, self.modulus)
        return FieldConfig(self.p, self.e, tuple(mod.coeffs))


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise DomainError("q must be a prime power")
            return p, e
    raise DomainError("q must be a prime power")


def _resolve_field(p, e, q):
    """(p, e) from the --p/--e/--q flags: --q must agree with any --p or
    --e given beside it; unset flags default to p = 2, e = 1."""
    if q is None:
        return (2 if p is None else p), (1 if e is None else e)
    qp, qe = _factor_prime_power(q)
    if p not in (None, qp) or e not in (None, qe):
        flags = " ".join(f"--{name} {v}" for name, v in (("p", p), ("e", e))
                         if v is not None)
        raise DomainError(f"--q {q} means p = {qp}, e = {qe}; "
                          f"it disagrees with {flags}")
    return qp, qe


FUNC_GRAMMAR = """function spec grammar: terms joined by '+', each term
NAME[:INDEX] optionally prefixed by a polynomial scalar 'POLY*' or '(POLY)*'.
Names: identity | monomial:k | frobenius:m | E:n | D:n | G:j | Dj:j
(D is the hyper-derivative, Dj the digit derivative).
Examples: 'D:1', 'frobenius:1', 'T*E:1+D:2', '(T+1)*E:1', 'G:3'."""


def _split_terms(spec: str) -> list:
    """``spec`` split on the '+' signs outside parentheses."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "+" and depth == 0:
            terms.append(spec[start:i])
            start = i + 1
    if depth:
        raise DomainError(f"unbalanced parentheses in function spec {spec!r}")
    return terms + [spec[start:]]


def parse_func(cfg: FieldConfig, spec: str) -> LinearFunc:
    terms = []
    for term in _split_terms(spec):
        raw = term.strip()
        scalar = None
        if "*" in raw:
            head, _, raw = raw.rpartition("*")
            head = head.strip()
            if head.startswith("(") and head.endswith(")"):
                head = head[1:-1]
            try:
                scalar = parse_poly(cfg, head)
            except ValueError:
                raise DomainError(f"cannot read the scalar of term {term!r}; "
                                  f"{FUNC_GRAMMAR}") from None
        name, _, idx = raw.partition(":")
        builders = {
            "identity": lambda i: identity_func(cfg),
            "monomial": lambda i: monomial_func(cfg, i),
            "frobenius": lambda i: frobenius_func(cfg, i),
            "E": lambda i: E_func(cfg, i),
            "D": lambda i: D_func(cfg, i),
            "G": lambda i: G_func(cfg, i),
            "Dj": lambda i: Dj_func(cfg, i),
        }
        if name not in builders:
            raise DomainError(f"unknown function name {name!r}; {FUNC_GRAMMAR}")
        try:
            index = int(idx) if idx else 0
        except ValueError:
            raise DomainError(f"cannot read the index of term {term!r}; "
                              f"{FUNC_GRAMMAR}") from None
        f = builders[name](index)
        if scalar is not None:
            f = scale_func(scalar, f)
        terms.append(f)
    out = terms[0]
    for t in terms[1:]:
        out = add_func(out, t)
    out.name = spec
    return out


def cmd_expand(run: RunConfig, args) -> int:
    cfg = run.field()
    f = parse_func(cfg, args.f)
    try:
        basis = Basis(args.basis)
    except ValueError:
        raise DomainError(f"unknown basis {args.basis!r}; choose from "
                          f"{sorted(b.value for b in Basis)}") from None
    for flag, value, readers in (
            ("--level", args.level, (Basis.CARLITZ_G, Basis.DIGIT_D)),
            ("--m", args.m, (Basis.POWERED_D,))):
        if value is not None and basis not in readers:
            raise DomainError(f"{flag} is not read by the {args.basis} basis, "
                              f"only by {' and '.join(b.value for b in readers)}")
    if basis in (Basis.LINEAR_E, Basis.LINEAR_D, Basis.POWERED_D):
        if not f.linear:
            raise DomainError(f"function {f.name!r} is not F_q-linear; "
                              f"use the G or D basis")
        if basis is Basis.LINEAR_E:
            exp = transforms.wagner_coeffs(f, args.terms)
        elif basis is Basis.LINEAR_D:
            exp = transforms.digit_coeffs_linear(f, args.terms)
        else:
            m = 1 if args.m is None else args.m
            exp = transforms.powered_digit_coeffs(f, m, args.terms)
    else:
        analyze = (transforms.carlitz_coeffs if basis is Basis.CARLITZ_G
                   else transforms.digit_coeffs)
        exp = analyze(f, args.terms, cfg, level=args.level, budget=run.budget)
    payload = exp.to_json()
    payload["function"] = args.f
    payload["run_config"] = run.to_text()
    _emit(run, args, payload, csv=lambda: _expansion_csv(exp))
    return 0


def _expansion_csv(exp) -> str:
    lines = ["index,entry"]
    for j, c in enumerate(exp.coeffs):
        lines.append(f"{j},{c}")
    return "\n".join(lines) + "\n"


def cmd_matrix(run: RunConfig, args) -> int:
    cfg = run.field()
    if args.which == "voloch":
        prec = args.mat_prec if args.mat_prec is not None else run.prec
        mat = transforms.voloch_matrix(cfg, args.size, prec)
    elif args.which == "inverse":
        if args.mat_prec is not None:
            raise DomainError("--prec sets the voloch matrix's entry precision; "
                              "the inverse matrix is exact")
        mat = transforms.inverse_matrix(cfg, args.size)
    else:
        raise DomainError(f"unknown matrix {args.which!r}")
    payload = mat.to_json()
    payload["run_config"] = run.to_text()
    _emit(run, args, payload, csv=mat.to_csv)
    return 0


def cmd_verify(run: RunConfig, args) -> int:
    cfg = run.field()
    selector = args.suite
    if selector != "all" and selector not in identities.SUITES:
        raise DomainError(f"unknown suite {selector!r}; choose from "
                          f"{('all',) + identities.SUITES}")
    if args.n is not None and selector not in ("ortho", "distance", "all"):
        raise DomainError(f"--n is not read by the {selector} suite, "
                          "only by ortho, distance and all")
    reports = identities.run_suite(cfg, selector, n=2 if args.n is None else args.n,
                                   budget=run.budget, seed=run.seed)
    payload = {
        "schema": transforms.SCHEMA,
        "kind": "verification",
        "suite": selector,
        "run_config": run.to_text(),
        "reports": [r.to_json() for r in reports],
        "summary": {s: sum(1 for r in reports if r.status == s)
                    for s in (identities.VERIFIED, identities.FALSIFIED,
                              identities.BUDGET_EXHAUSTED)},
    }
    _emit(run, args, payload, csv=lambda: identities.reports_to_csv(reports))
    falsified = [r for r in reports if r.status == identities.FALSIFIED]
    if falsified:
        for r in falsified:
            print(f"falsified: {r.identity} {r.config} witness={r.witness}",
                  file=sys.stderr)
        return 1
    if any(r.status == identities.BUDGET_EXHAUSTED for r in reports):
        return 2
    return 0


def cmd_info(run: RunConfig, args) -> int:
    cfg = run.field()
    payload = {
        "schema": transforms.SCHEMA,
        "kind": "info",
        "p": cfg.p,
        "e": cfg.e,
        "q": cfg.q,
        "modulus": None if cfg.modulus is None else list(cfg.modulus),
        "run_config": run.to_text(),
    }
    _emit(run, args, payload, csv=None)
    return 0


def _emit(run: RunConfig, args, payload: dict,
          csv: Optional[Callable[[], str]]):
    """Write ``payload`` in the run's format; ``csv`` builds the CSV text,
    called only for --format csv (None: the command has no CSV form)."""
    if run.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif run.format == "csv":
        if csv is None:
            raise DomainError("this command has no CSV form")
        text = csv()
    elif run.format == "text":
        text = _as_text(payload)
    else:
        raise DomainError(f"unknown output format {run.format!r}")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload: dict) -> str:
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, list):
            lines.append(f"{key}:")
            for item in val:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitzbases",
        description="Carlitz-polynomial and digit-derivative bases on F_q[[T]]")
    ap.add_argument("--p", type=int, default=None,
                    help="field characteristic (default 2)")
    ap.add_argument("--e", type=int, default=None,
                    help="extension degree (default 1)")
    ap.add_argument("--q", type=int, default=None,
                    help="field size shorthand (prime power; must agree with "
                         "--p/--e when they are given)")
    ap.add_argument("--modulus", default=None,
                    help="irreducible modulus over F_p, e.g. 'u^2+u+1'")
    ap.add_argument("--prec", type=int, default=24, help="series precision")
    ap.add_argument("--budget", type=int, default=transforms.DEFAULT_BUDGET,
                    help="enumeration budget (polynomial count)")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed")
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap.add_argument("--out", default=None, help="write output to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", help="expand a built-in function in a basis",
                           epilog=FUNC_GRAMMAR)
    p_exp.add_argument("--f", required=True, help="function spec")
    p_exp.add_argument("--basis", required=True,
                       help="E | linear-D | G | D | powered-D")
    p_exp.add_argument("--terms", type=int, default=8,
                       help="number of coefficients to recover")
    p_exp.add_argument("--level", type=int, default=None,
                       help="enumeration level n for the G/D bases")
    p_exp.add_argument("--m", type=int, default=None,
                       help="power exponent for the powered-D basis (default 1)")
    p_exp.set_defaults(run=cmd_expand)

    p_mat = sub.add_parser("matrix", help="emit a basis-change matrix")
    p_mat.add_argument("--which", required=True, help="voloch | inverse")
    p_mat.add_argument("--size", type=int, default=6)
    p_mat.add_argument("--prec", type=int, default=None, dest="mat_prec",
                       help="entry precision for the voloch matrix")
    p_mat.set_defaults(run=cmd_matrix)

    p_ver = sub.add_parser("verify", help="run identity verification suites")
    p_ver.add_argument("--suite", required=True,
                       help="ortho | addition | linearity | distance | power "
                            "| reduced | all")
    p_ver.add_argument("--n", type=int, default=None,
                       help="level of the ortho and distance suites (default 2)")
    p_ver.set_defaults(run=cmd_verify)

    p_info = sub.add_parser("info", help="print the resolved field configuration")
    p_info.set_defaults(run=cmd_info)
    return ap


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:  # built once per process, on first use
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        p, e = _resolve_field(args.p, args.e, args.q)
        run = RunConfig(p=p, e=e, modulus=args.modulus,
                        prec=args.prec, budget=args.budget, seed=args.seed,
                        format=args.format)
        return args.run(run, args)
    except (DomainError, BudgetError, PrecisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the run ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
