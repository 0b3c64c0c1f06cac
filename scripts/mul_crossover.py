#!/usr/bin/env python3
"""Time loop against Kronecker single products: the crossover of algebra._mul.

For every field q and every (shorter length, longer length, density) of a
grid, the loop path of the multiplication kernel (``algebra._mul_rows``
for p = 2, ``algebra._mul_schoolbook`` for odd p) and its Kronecker path
(``algebra._mul_kronecker``) multiply the same seeded random operands,
density being the share of nonzero coefficients; the shorter operand comes
first and neither is longer than the product size, as ``algebra._mul``
passes them.  The script asserts that the paths give the same
coefficients (for p = 2 the schoolbook loop too, on shorter lengths up to
128), for the full product and for one cut to the longer length, as a
truncated series product is.  Each cell prints its ratio

    nonzero(shorter) * len(longer) / ((2e - 1) * (len a + len b)),

the loop work over the packed slot count, with both times.  The kernel
takes the Kronecker path when that ratio exceeds a constant, one per class
(p == 2, e > 1) (``algebra.KRONECKER_CROSSOVER``).  The measured constant
of each class is the threshold c for which the rule "Kronecker iff ratio >
c" is the least slower, on the mean over the class's cells, than the
faster path of each cell; c = inf (never Kronecker) is a candidate.  It is
printed with the range of thresholds within one percentage point of it,
beside the kernel's constant and its slowdown.  Timings are best-of-5 per
cell and vary with the host; the equality assertions do not.  The p = 2
fields take longer operands on the full grid, where the row kernel's
quadratic work meets Kronecker's subquadratic product; the full grid runs
for several minutes.

Example:
    python scripts/mul_crossover.py --grid small
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carlitzbases import FieldConfig
from carlitzbases.algebra import (
    KRONECKER_CROSSOVER,
    _mul_kronecker,
    _mul_rows,
    _mul_schoolbook,
)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2),
          16: (2, 4), 256: (2, 8)}

# (shorter lengths for odd p, for p = 2, longer length as multiples of the
# shorter, densities)
GRIDS = {
    "small": ((8, 32), (8, 32), (1, 4), (0.25, 1.0)),
    "full": ((8, 16, 32, 64, 128), (8, 16, 32, 64, 128, 512, 2048, 8192),
             (1, 2, 4), (0.15, 0.3, 0.6, 1.0)),
}

CLASSES = {(False, False): "odd p, e = 1", (False, True): "odd p, e > 1",
           (True, False): "p = 2, e = 1", (True, True): "p = 2, e > 1"}


def operand(cfg: FieldConfig, rng: random.Random, length: int, density: float):
    """``length`` coefficients, round(density * length) of them nonzero."""
    out = bytearray(length)
    for i in rng.sample(range(length), round(density * length)):
        out[i] = rng.randrange(1, cfg.q)
    return bytes(out)


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
    between neighbouring cell ratios, and inf."""
    ratios = sorted({r for r, _, _ in cells})
    candidates = [(low + high) / 2 for low, high in zip([0.0] + ratios, ratios)]
    candidates.append(math.inf)
    losses = [(slowdown(cells, c), c) for c in candidates]
    best, c = min(losses)
    near = [x for loss, x in losses if loss <= best + tolerance]
    return c, best, min(near), max(near)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", choices=sorted(GRIDS), default="full")
    args = ap.parse_args(argv)
    odd_lengths, char2_lengths, multiples, densities = GRIDS[args.grid]
    rng = random.Random(0)
    cells = {key: [] for key in CLASSES}
    print(f"{'q':>3} {'short':>5} {'long':>5} {'dens':>5} {'ratio':>7} "
          f"{'loop_us':>10} {'kron_us':>10} {'faster':>9}")
    for q, (p, e) in FIELDS.items():
        cfg = FieldConfig(p, e)
        loop = _mul_rows if p == 2 else _mul_schoolbook
        for ls in char2_lengths if p == 2 else odd_lengths:
            paths = [loop, _mul_kronecker]
            if p == 2 and ls <= 128:
                paths.append(_mul_schoolbook)
            for mult in multiples:
                ll = ls * mult
                for density in densities:
                    a = operand(cfg, rng, ls, density)
                    b = operand(cfg, rng, ll, density)
                    full = ls + ll - 1
                    for size in (full, ll):
                        got = {path(cfg, a, b, size) for path in paths}
                        assert len(got) == 1, (q, ls, ll, density, size)
                    nonzero = ls - a.count(0)
                    ratio = nonzero * ll / ((2 * cfg.e - 1) * (ls + ll))
                    tl = best_time(loop, cfg, a, b, full)
                    tk = best_time(_mul_kronecker, cfg, a, b, full)
                    cells[p == 2, e > 1].append((ratio, tl, tk))
                    faster = "kronecker" if tk < tl else loop.__name__[5:]
                    print(f"{q:>3} {ls:>5} {ll:>5} {density:>5.2f} {ratio:>7.2f} "
                          f"{tl * 1e6:>10.1f} {tk * 1e6:>10.1f} {faster:>9}")
    print("all products equal on every path")
    for key, label in CLASSES.items():
        c, best, low, high = measured_constant(cells[key])
        kernel = KRONECKER_CROSSOVER[key]
        print(f"{label}: measured constant {c:.2f} ({best:.1%} over the faster "
              f"path; within 1 point of that: {low:.2f}-{high:.2f}); kernel uses "
              f"{kernel} ({slowdown(cells[key], kernel):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
