"""Coefficient recovery in the five bases, basis-change matrices, synthesis.

Functions are represented by evaluators that accept exact polynomials
(and usually truncated series as well).  Each value has one production
path here; the textbook formulas behind them (triangular solves, literal
operator iteration, the subset sums of the Voloch matrix, the per-pair
enumeration sums, the term-by-term closed sums) are the test suite's
oracles, not second paths.  The values delta^(n) f(x), n < N, come from
one difference table with N evaluations of f (the tower of closures makes
2**N - 1).  The G and D enumerations sum out the digits of m one at a
time.  The weights D_i(T**n)**(q**m) = C(n, i) T**((n-i) q**m) of the
closed sums are scaled powers of T, so each D-basis, inverse-matrix (f =
E_n) and powered-D coefficient is one shifted sum (``_digit_sums``), and
every product by T**k a shift (``algebra._shift``).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, List, Optional

from .algebra import (
    EXACT,
    BudgetError,
    DomainError,
    FieldConfig,
    Poly,
    PrecisionError,
    TruncSeries,
    Value,
    lucas_binom,
    pack,
    packed_sums,
    poly_enumerate,
    slot_width,
    unpack,
    _shift,
    _spread,
)
from .carlitz import DigitIndex, _over_budget, bracket, eval_E, eval_G
from .hasse import _binomial_row, eval_D, hasse_derivative, powered_D

DEFAULT_BUDGET = 256

SCHEMA = "carlitzbases/v1"


class Basis(Enum):
    CARLITZ_G = "G"
    LINEAR_E = "E"
    DIGIT_D = "D"
    LINEAR_D = "linear-D"
    POWERED_D = "powered-D"


# ---------------------------------------------------------------------------
# Continuous F_q-linear functions as evaluators
# ---------------------------------------------------------------------------

@dataclass
class LinearFunc:
    """A continuous function O -> K given by an evaluator.

    ``linear`` asserts F_q-linearity; operations that require it (the
    difference calculus) refuse nonlinear functions.
    """

    cfg: FieldConfig
    eval_at: Callable[[Value], Value]
    linear: bool = True
    name: str = ""

    def __call__(self, x: Value) -> Value:
        return self.eval_at(x)


def identity_func(cfg) -> LinearFunc:
    return LinearFunc(cfg, lambda x: x, name="identity")


def E_func(cfg, n: int) -> LinearFunc:
    return LinearFunc(cfg, lambda x: eval_E(cfg, n, x), name=f"E:{n}")


def D_func(cfg, n: int) -> LinearFunc:
    return LinearFunc(cfg, lambda x: hasse_derivative(cfg, n, x), name=f"D:{n}")


def powered_D_func(cfg, n: int, m: int) -> LinearFunc:
    return LinearFunc(cfg, lambda x: powered_D(cfg, n, m, x),
                      name=f"Dpow:{n}:{m}")


def frobenius_func(cfg, m: int) -> LinearFunc:
    return LinearFunc(cfg, lambda x: x.frobenius(m), name=f"frobenius:{m}")


def G_func(cfg, j: int, primed: bool = False) -> LinearFunc:
    linear = _is_q_power(j, cfg.q)
    tag = "Gp" if primed else "G"
    return LinearFunc(cfg, lambda x: eval_G(cfg, j, x, primed),
                      linear=linear and not primed, name=f"{tag}:{j}")


def Dj_func(cfg, j: int, primed: bool = False) -> LinearFunc:
    linear = _is_q_power(j, cfg.q)
    tag = "Djp" if primed else "Dj"
    return LinearFunc(cfg, lambda x: eval_D(cfg, j, x, primed),
                      linear=linear and not primed, name=f"{tag}:{j}")


def monomial_func(cfg, k: int) -> LinearFunc:
    # x -> x**k; F_q-linear exactly when k is a power of q.
    return LinearFunc(cfg, lambda x: x ** k, linear=_is_q_power(k, cfg.q),
                      name=f"monomial:{k}")


def constant_func(cfg, c: Poly) -> LinearFunc:
    return LinearFunc(cfg, lambda x: c, linear=c.is_zero, name=f"const:{c}")


def scale_func(c: Value, f: LinearFunc) -> LinearFunc:
    return LinearFunc(f.cfg, lambda x: c * f(x), linear=f.linear,
                      name=f"({c})*{f.name}")


def add_func(f: LinearFunc, g: LinearFunc) -> LinearFunc:
    return LinearFunc(f.cfg, lambda x: f(x) + g(x),
                      linear=f.linear and g.linear, name=f"{f.name}+{g.name}")


def _is_q_power(k: int, q: int) -> bool:
    if k < 1:
        return False
    while k % q == 0:
        k //= q
    return k == 1


# ---------------------------------------------------------------------------
# Expansions and matrices
# ---------------------------------------------------------------------------

@dataclass
class BasisExpansion:
    """A truncated coefficient sequence in a named basis.

    ``tail_bound`` is the sup of the dropped |coefficients| when known
    (0 for finite constructed expansions, None when unreported).
    """

    cfg: FieldConfig
    basis: Basis
    coeffs: List[Value]
    m: int = 0  # only meaningful for POWERED_D
    tail_bound: Optional[Fraction] = None

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> Value:
        if j < len(self.coeffs):
            return self.coeffs[j]
        return Poly.zero(self.cfg)

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "kind": "expansion",
            "basis": self.basis.value,
            "q": self.cfg.q,
            "trunc": self.trunc,
            "entries": [str(c) for c in self.coeffs],
            "tail_bound": None if self.tail_bound is None else str(self.tail_bound),
        }
        if self.basis is Basis.POWERED_D:
            out["m"] = self.m
        return out


@dataclass
class BasisMatrix:
    """Basis-change matrix between the E and D linear bases."""

    cfg: FieldConfig
    kind: str            # "voloch" (A) or "inverse" (B)
    size: int
    entries: List[List[Value]]
    prec: Optional[int] = None  # None for exact entries

    def entry(self, i: int, j: int) -> Value:
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": f"matrix-{self.kind}",
            "q": self.cfg.q,
            "size": self.size,
            "prec": self.prec,
            "triangular": "lower" if self.kind == "voloch" else "upper",
            "unit_diagonal": True,
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        lines = ["row,col,entry"]
        for i in range(self.size):
            for j in range(self.size):
                lines.append(f"{i},{j},{self.entries[i][j]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def delta(f: LinearFunc) -> LinearFunc:
    """The Carlitz difference operator (delta f)(x) = f(Tx) - T f(x): the
    first step of ``delta_upper``."""
    return delta_upper(1, f)


def delta_upper(n: int, f: LinearFunc) -> LinearFunc:
    """The recursive operator with the q-power twist:

    (delta^(n) f)(x) = (delta^(n-1) f)(Tx) - T**(q**(n-1)) (delta^(n-1) f)(x).
    Distinct from the n-fold iterate of delta for n >= 2; value n of
    ``_delta_values``.
    """
    if not f.linear:
        raise DomainError("the difference operator requires an F_q-linear function")
    if n < 0:
        raise DomainError(f"the difference operator needs n >= 0, got {n}")
    return LinearFunc(f.cfg, lambda x: next(islice(_delta_values(f, x), n, None)),
                      name=f"delta^({n})({f.name})")


def _delta_values(f: LinearFunc, x: Value):
    """(delta^(0) f)(x), (delta^(1) f)(x), ... by the difference table: step n
    evaluates f once, at T**n x, and extends the diagonal
    (delta^(k) f)(T**(n-k) x), k <= n, by the definition's subtraction, each
    product by T**(q**k) or T a shift (``_shift``), so N values cost N
    evaluations of f and N(N-1)/2 steps."""
    q, diagonal = f.cfg.q, []  # (delta^(k) f)(T**(n-1-k) x), k < n
    while True:
        row = [f(x)]
        for k, prev in enumerate(diagonal):
            row.append(row[-1] - _shift(prev, q ** k))
        yield row[-1]
        diagonal = row
        x = _shift(x, 1)


# ---------------------------------------------------------------------------
# Coefficient recovery
# ---------------------------------------------------------------------------

def _check_terms(N: int) -> None:
    if N < 1:
        raise DomainError(f"an expansion needs at least 1 term, got {N}")


def wagner_coeffs(f: LinearFunc, N: int) -> BasisExpansion:
    """Coefficients a_n of f = sum a_n E_n, via a_n = (delta^(n) f)(1)."""
    if not f.linear:
        raise DomainError("E-basis expansion requires an F_q-linear function")
    _check_terms(N)
    coeffs = []
    try:
        for a in islice(_delta_values(f, Poly.one(f.cfg)), N):
            coeffs.append(a)
    except PrecisionError as exc:
        raise PrecisionError(
            f"precision exhausted at level {len(coeffs)}: {exc}") from exc
    return BasisExpansion(f.cfg, Basis.LINEAR_E, coeffs)


def digit_coeffs_linear(f: LinearFunc, N: int) -> BasisExpansion:
    """Coefficients b_n of f = sum b_n D_n by the closed sum

    b_n = sum_{i<=n} (-1)**(n-i) f(T**i) D_i(T**n).
    """
    if not f.linear:
        raise DomainError("D-basis expansion requires an F_q-linear function")
    _check_terms(N)
    return BasisExpansion(f.cfg, Basis.LINEAR_D, _digit_sums(f.cfg, [f], N)[0])


def _digit_sums(cfg: FieldConfig, fs, N: int, m: int = 0) -> List[List[Value]]:
    """The coefficients n < N of each f in ``fs`` in the basis {D_n**(q**m)},
    b_n = sum_{i<=n} (-1)**(n-i) C(n, i) T**((n-i) s) f(T**i), s = q**m: one
    ``_shifted_sums`` sum of the f(T**i), held from their common valuation
    (``_held``), of precision the least prec f(T**i) + (n-i) s over its terms."""
    s, p = cfg.q ** m, cfg.p
    binomials = [_binomial_row(i, p, N - i) for i in range(N)]  # C(i + k, i) mod p
    rows = [[(i, (n - i) * s, p - c if (n - i) % 2 else c) for i in range(n + 1)
             if (c := binomials[i][n - i])] for n in range(N)]
    terms, out = max(map(len, rows)), []
    for f in fs:
        fvals = [f(Poly.monomial(cfg, i)) for i in range(N)]
        v, codes, series = _held(fvals)
        precs = [getattr(x, "prec", EXACT) for x in fvals]
        total = _shifted_sums(cfg, codes, terms)
        out.append([_sum_value(cfg, series, v, total(row),
                               min(precs[i] + k for i, k, _ in row)) for row in rows])
    return out


def _shifted_sums(cfg: FieldConfig, codes, terms: int):
    """The map from weights [(i, k, w), ...], w in [1, p), to the codes of
    sum w T**k codes[i], no product formed: for p = 2 an XOR of the codes'
    ints shifted by k bytes; for odd p a sum of the codes, packed once at
    the ``slot_width`` of ``terms`` weights, shifted by k slots, unpacked once."""
    if cfg.p == 2:
        ints = [int.from_bytes(c, "little") for c in codes]

        def xor_sum(weights):
            acc = 0
            for i, k, _ in weights:
                acc ^= ints[i] << 8 * k
            return acc.to_bytes((acc.bit_length() + 7) // 8, "little")
        return xor_sum
    width = slot_width(cfg, terms, 1)
    step, packed = (2 * cfg.e - 1) * width, [pack(cfg, c, width) for c in codes]
    return lambda weights: unpack(
        cfg, sum(w * packed[i] << step * k for i, k, w in weights), width)


def powered_digit_coeffs(f: LinearFunc, m: int, N: int) -> BasisExpansion:
    """Coefficients of f in the q**m-power digit basis {D_n**(q**m)}, one
    ``_digit_sums``: beta_n = ((delta - [m] I)**n f)(1), and delta - [m] I
    maps g to g(Tx) - T**(q**m) g(x).  A series beta_n knows the least
    prec f(T**i) + (n-i) q**m over the i with C(n, i) != 0 mod p.  q**m
    past DEGREE_BUDGET raises BudgetError first (``carlitz._over_budget``).
    """
    if not f.linear:
        raise DomainError("powered-D expansion requires an F_q-linear function")
    if m < 0:
        raise DomainError("m must be non-negative")
    _check_terms(N)
    if _over_budget(f.cfg.q, m):
        raise BudgetError(f"deg T**(q**m) = q**{m} exceeds the degree budget")
    return BasisExpansion(f.cfg, Basis.POWERED_D, _digit_sums(f.cfg, [f], N, m)[0], m=m)


def default_level(cfg: FieldConfig, J: int) -> int:
    """Smallest n with q**n >= J, i.e. q**n > every expanded index j < J."""
    n = 0
    while cfg.q ** n < J:
        n += 1
    return n


def carlitz_coeffs(f: Callable[[Poly], Value], J: int, cfg: FieldConfig,
                   level: int = None, budget: int = DEFAULT_BUDGET) -> BasisExpansion:
    """Coefficients A_j of f = sum A_j G_j, by the finite enumeration formula

    A_j = (-1)**n * sum over deg(m) < n of G'_{q**n - 1 - j}(m) f(m),
    valid for any level n with q**n > j for every recovered index.
    """
    return _enumeration_coeffs([f], J, cfg, level, budget, Basis.CARLITZ_G)[0]


def digit_coeffs(f: Callable[[Poly], Value], J: int, cfg: FieldConfig,
                 level: int = None, budget: int = DEFAULT_BUDGET) -> BasisExpansion:
    """Coefficients B_j of f = sum B_j D_j, by the same enumeration with D'."""
    return _enumeration_coeffs([f], J, cfg, level, budget, Basis.DIGIT_D)[0]


def _enumeration_coeffs(fs, J, cfg, level, budget, basis) -> List[BasisExpansion]:
    """The expansion of each f in ``fs`` in ``basis`` (G or D): coeff_j is
    (-1)**n H(q**n - 1 - j), H(K) = sum over deg(m) < n of F'_K(m) f(m),
    F = G or D.  F'_K(m) is the product over t of the one-digit values
    F'_{K_t q**t}(m), which read only the digits c_t, c_{t+1}, ... of m (the
    digit principle), so H is summed out one digit at a time from H_0 = f:
    H_{t+1}(a_0..a_t; c_{t+1}..) = sum over c_t of H_t(a_0..a_{t-1}; c_t,
    c_{t+1}..) F'_{a_t q**t}(c_t T**t + ...), a_t over the digit box of the
    needed K (``_digit_box``), one fibre sum per suffix (``_fibre_sums``),
    F'_0 = 1 unread: sum over t of |box_{<t}| |box_t| q**(n-t) <= n q**(n+1)
    products per function, not J q**n, the a_t = 0 row an XOR for p = 2.
    A series sum's precision, the least prec f(m) + v(F'_K(m)) over its
    nonzero terms, is summed out alike, by min and +.
    """
    _check_terms(J)
    q = cfg.q
    n = default_level(cfg, J) if level is None else level
    if q ** n < J:
        raise DomainError(f"level n = {n} too small: q**n must cover all j < {J}")
    polys = poly_enumerate(cfg, n, "deg_lt", budget=budget)
    evaluate = eval_G if basis is Basis.CARLITZ_G else eval_D
    boxes, places = _digit_box(q, range(q ** n - 1, q ** n - 1 - J, -1))
    values = [[f(m) for m in polys] for f in fs]
    lows, columns, series = zip(*map(_held, values))
    blocks = list(zip(*columns))  # per point, one entry per function
    precs = [[getattr(x, "prec", EXACT) for x in block] for block in zip(*values)]
    track = any(p != EXACT for block in precs for p in block)
    one = Poly.one(cfg)
    for t, box in enumerate(boxes):
        unit, stepped, held = q ** t, [], []
        for s in range(0, len(blocks), q):
            weights = [[evaluate(cfg, a * unit, polys[(s + c) * unit], primed=True)
                        if a else one for c in range(q)] for a in box]
            stepped.append(_fibre_sums(cfg, weights, blocks[s:s + q]))
            held.append(track and [
                min((p[e] + w.valuation for p, w in zip(precs[s:s + q], row)
                     if w.coeffs), default=EXACT)
                for row in weights for e in range(len(blocks[s]))])
        blocks, precs = stepped, held
    count, sign = len(fs), cfg.sign(n)
    return [BasisExpansion(cfg, basis, [
        _sum_value(cfg, is_series, v, blocks[0][i + count * place],
                   precs[0][i + count * place] if track else EXACT).scalar_mul(sign)
        for place in places]) for i, (is_series, v) in enumerate(zip(series, lows))]


def _digit_box(q: int, indices):
    """The smallest digit box covering ``indices`` (per position, the
    ascending digits they have there) and each index's place in its row."""
    digits = [DigitIndex.of(k, q).digits for k in indices]
    boxes = [sorted({d[t] if t < len(d) else 0 for d in digits})
             for t in range(max(map(len, digits), default=0))]
    row = [0]
    for t, box in enumerate(boxes):
        row = [low + a * q ** t for a in box for low in row]
    place = {k: i for i, k in enumerate(row)}
    return boxes, [place[k] for k in indices]


def _fibre_sums(cfg: FieldConfig, weights, fibre) -> List[bytes]:
    """The codes of sum over c of weights[a][c] * fibre[c][e] for each row
    a of the exact ``weights`` and each entry e of the equal-length lists
    of codes fibre[c], a-major: one packed sum per row (an XOR for unit rows
    if p = 2), the lists laid end to end so a slot meets one entry only."""
    rows = [[w.coeffs for w in row] for row in weights]
    products = [row for row in rows if cfg.p != 2 or row != [b"\1"] * len(fibre)]
    longest = max(map(len, chain.from_iterable(fibre)))
    wide = max((len(c) for row in products for c in row), default=1)
    count, stride = len(fibre[0]), max(longest + wide - 1, longest, 1)
    lines = [b"".join(x.ljust(stride, b"\0") for x in block) for block in fibre]
    sums = packed_sums(cfg, products, [lines], length=min(longest, wide))
    plain = lambda: sum((Poly(cfg, line) for line in lines), Poly.zero(cfg)).coeffs
    return [total[i:i + stride].rstrip(b"\0")
            for total in (next(sums) if row in products else plain() for row in rows)
            for i in range(0, count * stride, stride)]


def _held(fvals):
    """A function's values held for a sum: the least valuation v of its
    nonzero series values (else 0), their codes from T**v, and if any is one."""
    starts = [x.v if isinstance(x, TruncSeries) else 0 for x in fvals]
    v = min((s for s, x in zip(starts, fvals) if x.coeffs), default=0)
    codes = [bytes(s - v) + x.coeffs if x.coeffs else b"" for s, x in zip(starts, fvals)]
    return v, codes, any(isinstance(x, TruncSeries) for x in fvals)


def _sum_value(cfg: FieldConfig, series: bool, v: int, digits: bytes, prec) -> Value:
    """A sum of held values (``_held``), of precision ``prec`` if a series."""
    return TruncSeries(cfg, v, digits, prec) if series else Poly(cfg, digits)


# ---------------------------------------------------------------------------
# Basis-change matrices
# ---------------------------------------------------------------------------

def recip_bracket(cfg: FieldConfig, i: int, prec: int) -> TruncSeries:
    """1/[i] expanded from [i] = -T (1 - T**(q**i - 1)) as a geometric series:
    -T**(k s - 1) for every k with k s - 1 < prec, s = q**i - 1."""
    step = cfg.q ** i - 1
    terms = (prec + step) // step
    return TruncSeries(cfg, -1, _spread([cfg.neg_one] * terms, step), prec)


def bracket_series(cfg: FieldConfig, i: int, prec: int) -> TruncSeries:
    """[i] = -T + T**(q**i) to precision prec, never built past T**prec."""
    coeffs = [cfg.neg_one]
    if cfg.q ** i < prec:
        coeffs += [0] * (cfg.q ** i - 2) + [1]
    return TruncSeries(cfg, 1, coeffs, prec)


def voloch_matrix(cfg: FieldConfig, size: int, prec: int) -> BasisMatrix:
    """The matrix A with D_m = sum_n A[n][m] E_n (Voloch, J. Number Theory 71, 1998):

    A[n][m] = (-1)**(n+m) L_{n-1} e_{m-1}(1/[1], ..., 1/[n-1]) for 0 < m < n,
    A[n][n] = 1, and A[n][m] = 0 for m = 0 < n and for m > n, where e_k is
    the k-th elementary symmetric function (e_0 = 1, so column 1 is
    (-1)**(n-1) L_{n-1}).

    Row by row, L_n = L_{n-1} [n] and, over x_r = 1/[r],
    e_k(x_1..x_r) = e_k(x_1..x_{r-1}) + x_r e_{k-1}(x_1..x_{r-1}):
    O(size**2) series products, where the subset sums take 2**(n-1) in
    row n.  No exact L_n or [n], of degree about q**n, is formed.

    Precision contract: size >= 1 and prec >= 1, and every entry is known
    exactly below T**prec and reported as O(T**prec).  It suffices to carry
    [n] and 1/[n] to precision prec: L_{n-1} then has valuation n-1 and
    precision prec + n - 2, e_{m-1} has valuation >= 1-m and precision
    >= prec - m + 2, so their product is known to prec + n - m - 1 >= prec.
    """
    if size < 1 or prec < 1:
        raise DomainError(f"voloch matrix needs size >= 1 and prec >= 1, "
                          f"got size {size}, prec {prec}")
    zero = TruncSeries.zero(cfg, prec)
    one = Poly.one(cfg).to_series(prec)
    entries = [[zero] * size for _ in range(size)]
    L = e0 = TruncSeries.monomial(cfg, 0)
    e = [e0]  # e_0 .. e_{n-1} of x_1 .. x_{n-1}, entering row n >= 1
    for n in range(size):
        entries[n][n] = one
        for m in range(1, n):
            entries[n][m] = (L * e[m - 1]).truncate(prec).scalar_mul(cfg.sign(n + m))
        if 1 <= n < size - 1:
            x = recip_bracket(cfg, n, prec)
            L = bracket_series(cfg, n, prec) * L
            e = [e0] + [e[k] + x * e[k - 1] for k in range(1, n)] + [x * e[n - 1]]
    return BasisMatrix(cfg, "voloch", size, entries, prec=prec)


def inverse_matrix(cfg: FieldConfig, size: int) -> BasisMatrix:
    """The exact inverse matrix B with E_n = sum_m B[m][n] D_m: column n is
    the D-basis expansion of E_n, all columns one weighted sum with the
    ``digit_coeffs_linear`` weights (``_digit_sums``),

    B[m][n] = sum_{i<=m} (-1)**(m-i) D_i(T**m) E_n(T**i); zero for m < n,
    unit diagonal, and T divides every entry below the diagonal.
    """
    if size < 1:
        raise DomainError(f"inverse matrix needs size >= 1, got {size}")
    columns = _digit_sums(cfg, [E_func(cfg, n) for n in range(size)], size)
    return BasisMatrix(cfg, "inverse", size, [list(row) for row in zip(*columns)])


def matrix_product_block(A: BasisMatrix, B: BasisMatrix, k: int) -> List[List[Value]]:
    """Top-left k x k block of the matrix product A * B."""
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = None
            for l in range(min(A.size, B.size)):
                term = A.entry(i, l) * B.entry(l, j)
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def convert_powered(cfg: FieldConfig, n: int, m: int, count: int,
                    direction: str) -> List[Poly]:
    """Conversion coefficients between D_n**(q**m) and the plain D_{i+n}:

    to_plain:   D_n**(q**m) = sum_i [m]**i  C(i+n, n) D_{i+n}
    to_powered: D_n         = sum_i (-[m])**i C(i+n, n) D_{i+n}**(q**m)
    """
    if m < 1:
        raise DomainError("conversion needs m >= 1")
    br = bracket(cfg, m)
    if direction == "to_powered":
        br = -br
    elif direction != "to_plain":
        raise DomainError(f"unknown direction {direction!r}")
    out = []
    power = Poly.one(cfg)
    for i in range(count):
        c = lucas_binom(i + n, n, cfg.p)
        out.append(power.scalar_mul(c))
        power = power * br
    return out


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

_BASIS_FUNCS = {Basis.CARLITZ_G: G_func, Basis.LINEAR_E: E_func,
                Basis.DIGIT_D: Dj_func, Basis.LINEAR_D: D_func,
                Basis.POWERED_D: powered_D_func}


def basis_function(cfg: FieldConfig, basis: Basis, j: int, m: int = 0) -> LinearFunc:
    """The j-th function of ``basis``; D_j**(q**m) for the powered-D basis."""
    make = _BASIS_FUNCS.get(basis)
    if make is None:
        raise DomainError(f"unknown basis {basis!r}")
    return make(cfg, j, m) if basis is Basis.POWERED_D else make(cfg, j)


def synthesize(exp: BasisExpansion, x: Value):
    """Partial sum of coeff_j * basis_j(x) over the retained terms.

    Returns (value, tail_bound) where tail_bound is the expansion's
    declared bound on the dropped coefficients (the ultrametric synthesis
    error), or None when the expansion does not state one.
    """
    if isinstance(x, TruncSeries) and x.coeffs and x.v < 0:
        raise DomainError("synthesis is defined on O (v >= 0)")
    cfg = exp.cfg
    acc = None
    for j, c in enumerate(exp.coeffs):
        if isinstance(c, Poly) and c.is_zero:
            continue
        bval = basis_function(cfg, exp.basis, j, exp.m)(x)
        term = c * bval
        acc = term if acc is None else acc + term
    if acc is None:
        acc = Poly.zero(cfg) if isinstance(x, Poly) else TruncSeries.zero(cfg)
    return acc, exp.tail_bound
