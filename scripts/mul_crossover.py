#!/usr/bin/env python3
"""Time schoolbook against Kronecker single products: the crossover of algebra._mul.

For every field q and every (shorter length, longer length, density) of a
grid, both paths of the multiplication kernel (``algebra._mul_schoolbook``
and ``algebra._mul_kronecker``) multiply the same seeded random operands,
density being the share of nonzero coefficients; the shorter operand comes
first and neither is longer than the product size, as ``algebra._mul``
passes them.  The script asserts that
the two give the same coefficients, for the full product and for one cut
to the longer length, as a truncated series product is.  Each cell prints
its ratio

    nonzero(shorter) * len(longer) / ((2e - 1) * (len a + len b)),

the schoolbook work over the packed slot count, with both times.  The
kernel takes the Kronecker path when that ratio exceeds a constant, one
for e = 1 and one for e > 1 (``algebra.KRONECKER_CROSSOVER``).  The
measured constant of each class is the threshold c for which the rule
"Kronecker iff ratio > c" is the least slower, on the mean over the
class's cells, than the faster path of each cell; it is printed with the
range of thresholds within one percentage point of it, beside the
kernel's constant and its slowdown.  Timings are best-of-5 per cell and
vary with the host; the equality assertions do not.

Example:
    python scripts/mul_crossover.py --grid small
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carlitzbases import FieldConfig
from carlitzbases.algebra import (
    KRONECKER_CROSSOVER,
    _mul_kronecker,
    _mul_schoolbook,
)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}

# (shorter lengths, longer length as multiples of the shorter, densities)
GRIDS = {
    "small": ((8, 32), (1, 4), (0.25, 1.0)),
    "full": ((8, 16, 32, 64, 128), (1, 2, 4), (0.15, 0.3, 0.6, 1.0)),
}


def operand(cfg: FieldConfig, rng: random.Random, length: int, density: float):
    """``length`` coefficients, round(density * length) of them nonzero."""
    out = [0] * length
    for i in rng.sample(range(length), round(density * length)):
        out[i] = rng.randrange(1, cfg.q)
    return tuple(out)


def best_time(fn, *args, repeat: int = 5, min_s: float = 0.005) -> float:
    """Seconds per call: best of ``repeat`` loops of at least ``min_s``."""
    number = 1
    while True:
        t = time.perf_counter()
        for _ in range(number):
            fn(*args)
        elapsed = time.perf_counter() - t
        if elapsed >= min_s:
            break
        number *= 2
    best = elapsed
    for _ in range(repeat - 1):
        t = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, time.perf_counter() - t)
    return best / number


def slowdown(cells, c: float) -> float:
    """Mean over ``cells`` of (ratio, school s, kron s) of the time the rule
    "Kronecker iff ratio > c" takes over the faster path's time, minus 1."""
    return sum((k if r > c else s) / min(s, k) for r, s, k in cells) / len(cells) - 1


def measured_constant(cells, tolerance: float = 0.01):
    """The threshold c of least ``slowdown`` over ``cells``, and the range
    of thresholds within ``tolerance`` of it; thresholds are midpoints
    between neighbouring cell ratios."""
    ratios = sorted({r for r, _, _ in cells})
    candidates = [(low + high) / 2 for low, high in zip([0.0] + ratios, ratios)]
    losses = [(slowdown(cells, c), c) for c in candidates]
    best, c = min(losses)
    near = [x for loss, x in losses if loss <= best + tolerance]
    return c, best, min(near), max(near)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", choices=sorted(GRIDS), default="full")
    args = ap.parse_args(argv)
    shorter_lengths, multiples, densities = GRIDS[args.grid]
    rng = random.Random(0)
    cells = {False: [], True: []}
    print(f"{'q':>3} {'short':>5} {'long':>5} {'dens':>5} {'ratio':>7} "
          f"{'school_us':>10} {'kron_us':>10} {'faster':>9}")
    for q, (p, e) in FIELDS.items():
        cfg = FieldConfig(p, e)
        for ls in shorter_lengths:
            for mult in multiples:
                ll = ls * mult
                for density in densities:
                    a = operand(cfg, rng, ls, density)
                    b = operand(cfg, rng, ll, density)
                    full = ls + ll - 1
                    for size in (full, ll):
                        school = _mul_schoolbook(cfg, a, b, size)
                        kron = _mul_kronecker(cfg, a, b, size)
                        assert school == kron, (q, ls, ll, density, size)
                    nonzero = ls - a.count(0)
                    ratio = nonzero * ll / ((2 * cfg.e - 1) * (ls + ll))
                    ts = best_time(_mul_schoolbook, cfg, a, b, full)
                    tk = best_time(_mul_kronecker, cfg, a, b, full)
                    cells[cfg.e > 1].append((ratio, ts, tk))
                    faster = "kronecker" if tk < ts else "schoolbook"
                    print(f"{q:>3} {ls:>5} {ll:>5} {density:>5.2f} {ratio:>7.2f} "
                          f"{ts * 1e6:>10.1f} {tk * 1e6:>10.1f} {faster:>9}")
    print("all products equal on both paths")
    for ext, label in ((False, "e = 1"), (True, "e > 1")):
        if not cells[ext]:
            continue
        c, best, low, high = measured_constant(cells[ext])
        kernel = KRONECKER_CROSSOVER[ext]
        print(f"{label}: measured constant {c:.2f} ({best:.1%} over the faster "
              f"path; within 1 point of that: {low:.2f}-{high:.2f}); kernel uses "
              f"{kernel} ({slowdown(cells[ext], kernel):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
