#!/usr/bin/env python3
"""Run every identity-verification suite across a range of field sizes.

Prints one status line per (q, suite) pair and a final summary; optionally
writes the full reports as JSON or CSV.  Exit status follows the library
contract: 0 all verified, 1 any falsified, 2 any budget exhaustion.  A
suite that raises BudgetError or DomainError prints a FAILED line naming
the error, counts as budget exhaustion, and the next suite runs.

Example:
    python scripts/run_verification.py --q 2 3 4 --n 2 --out reports.json
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carlitzbases import BudgetError, DomainError, FieldConfig, cli
from carlitzbases.identities import (
    BUDGET_EXHAUSTED,
    FALSIFIED,
    SUITES,
    reports_to_csv,
    reports_to_json_text,
    run_suite,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="+", default=[2, 3, 4],
                    help="field sizes to test (prime powers)")
    ap.add_argument("--n", type=int, default=2, help="enumeration level")
    ap.add_argument("--budget", type=int, default=512,
                    help="enumeration budget (polynomial count)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--i-max", type=int, default=50,
                    help="monomial range for norm-distance certification")
    ap.add_argument("--out", default=None,
                    help="write all reports to a .json or .csv file")
    args = ap.parse_args(argv)

    all_reports = []
    worst = 0
    for q in args.q:
        cfg = FieldConfig(*cli._factor_prime_power(q))
        for suite in SUITES:
            t0 = time.time()
            error = None
            try:
                reports = run_suite(cfg, suite, n=args.n, budget=args.budget,
                                    seed=args.seed, i_max=args.i_max)
            except (BudgetError, DomainError) as exc:
                reports, error = [], f"{type(exc).__name__}: {exc}"
                worst = 2
            dt = time.time() - t0
            bad = [r for r in reports if r.status != "verified"]
            tag = "ok" if not (bad or error) else "FAILED"
            print(f"q={q:<3} suite={suite:<9} checks={len(reports):<4} "
                  f"{dt:6.2f}s  {tag}")
            if error:
                print(f"    {error}")
            for r in bad:
                print(f"    {r.status}: {r.identity} {r.config} "
                      f"witness={r.witness}")
                worst = max(worst, 2 if r.status == BUDGET_EXHAUSTED else 1)
            all_reports.extend(reports)

    verified = sum(1 for r in all_reports if r.status == "verified")
    print(f"\n{verified}/{len(all_reports)} checks verified")

    if args.out:
        path = Path(args.out)
        text = (reports_to_csv(all_reports) if path.suffix == ".csv"
                else reports_to_json_text(all_reports))
        path.write_text(text)
        print(f"wrote {path}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
