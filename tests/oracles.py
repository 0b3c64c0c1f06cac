"""Textbook formulas kept as test oracles, one per production path.

Each function computes a value the library computes faster another way:
products by the full schoolbook double loop, sums, negation, scaling and
Frobenius one digit at a time, the Voloch matrix by its
defining subset sums, the E- and D-basis coefficients by triangular solve
and by literal operator iteration, delta^(n) f by its tower of closures,
one step of the E_n recurrence by
subtraction and a digit-by-digit prefix sum (and E_n by n such steps),
D_n one Lucas binomial per digit, (delta - [m] I) f as a
closure and ((delta - [m] I)**n f)(x) by its closed double sum, the
distance certificates on exact values, the orthogonality sums one (k, l) pair at a time, the
digit products G_j and D_j one digit at a time, and the G- and D-basis
enumeration coefficients one (j, m) pair at a time, the addition law's
convolutions one product at a time, Kronecker packing one slot at a
time, and the F_q tables and the modulus search by F_p digit-list
arithmetic and by Poly products over F_p.
The tests compare the production results with these.
"""
import sys
from array import array
from itertools import combinations, product
from typing import List

from carlitzbases import (
    Basis,
    DigitIndex,
    BasisExpansion,
    BasisMatrix,
    BudgetError,
    FieldConfig,
    InexactDivisionError,
    Poly,
    TruncSeries,
    bracket,
    eval_D,
    eval_E,
    eval_G,
    lucas_binom,
    poly_enumerate,
)
from carlitzbases.algebra import EXACT, Value, as_series, valuation_norm
from carlitzbases.hasse import hasse_on_monomial
from carlitzbases import identities
from carlitzbases.identities import (
    BUDGET_EXHAUSTED,
    FALSIFIED,
    VERIFIED,
    VerdictReport,
)
from carlitzbases.transforms import (
    DEFAULT_BUDGET,
    LinearFunc,
    default_level,
    delta,
)


# The fields of the differential tests, by q, as (p, e).
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


def schoolbook_mul(a: Value, b: Value) -> Value:
    """a * b by every coefficient pair, digits past the precision dropped last.

    A truncated factor's unknown digits start at T**prec, so they reach the
    product from T**(prec + low) on, where low is the other factor's
    valuation, or its precision when it is zero to precision.
    """
    cfg = a.cfg
    exact = isinstance(a, Poly) and isinstance(b, Poly)
    a, b = as_series(a), as_series(b)
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.v + b.v + i + j
            out[k] = cfg.add(out.get(k, 0), cfg.mul(x, y))
    low_a = a.v if a.coeffs else a.prec
    low_b = b.v if b.coeffs else b.prec
    prec = min(a.prec + low_b, b.prec + low_a)
    return _from_digits(cfg, out, prec, exact)


def _from_digits(cfg, out: dict, prec, exact: bool) -> Value:
    """The value with digit out[k] at T**k for k < prec: a Poly when exact."""
    known = sorted(k for k in out if k < prec)
    lo = known[0] if known else 0
    digits = [out.get(k, 0) for k in range(lo, known[-1] + 1)] if known else []
    if exact:
        return Poly(cfg, [0] * lo + digits)
    return TruncSeries(cfg, lo, digits, prec)


def digitwise(op, *values: Value) -> Value:
    """op applied exponent by exponent: the digit of T**k in the result is
    op of the digits of T**k in the values, known below their least
    precision; a Poly when every value is one."""
    cfg = values[0].cfg
    exact = all(isinstance(x, Poly) for x in values)
    series = [as_series(x) for x in values]
    prec = min(x.prec for x in series)
    exps = set().union(*(range(x.v, x.v + len(x.coeffs)) for x in series))
    out = {k: op(*(x.coeff(k) for x in series)) for k in exps if k < prec}
    return _from_digits(cfg, out, prec, exact)


def frobenius_by_digits(x: Value, m: int) -> Value:
    """x**(q**m) as the digit of T**k moved to T**(k q**m)."""
    s = x.cfg.q ** m
    y = as_series(x)
    out = {(y.v + i) * s: c for i, c in enumerate(y.coeffs)}
    return _from_digits(x.cfg, out, y.prec * s, isinstance(x, Poly))


def _bracket_mod(cfg, i: int, P: int) -> Poly:
    """[i] = T**(q**i) - T reduced mod T**P, as an exact polynomial."""
    coeffs = [0, cfg.neg_one]
    if cfg.q ** i < P:
        coeffs += [0] * (cfg.q ** i - 2) + [1]
    return Poly(cfg, coeffs)


def _L_mod(cfg, n: int, P: int) -> TruncSeries:
    """L_n = [n] ... [1] to precision P, by exact products reduced mod T**P."""
    out = Poly.one(cfg)
    for i in range(1, n + 1):
        out = Poly(cfg, (out * _bracket_mod(cfg, i, P)).coeffs[:P])
    return out.to_series(P)


def voloch_matrix_by_subsets(cfg, size: int, prec: int) -> BasisMatrix:
    """The Voloch matrix from its definition, one subset sum per entry:

    A[n][m] = (-1)**(n+m) L_{n-1} * sum over 0 < i_1 < ... < i_{m-1} < n
    of 1/([i_1] ... [i_{m-1}]), with 1/[i] by series inversion.  Costs
    2**(n-1) subset products in row n.
    """
    work = prec + size + 2
    recip = {i: _bracket_mod(cfg, i, work + 2).to_series(work + 2).invert_unit()
             for i in range(1, size)}
    zero = TruncSeries.zero(cfg, prec)
    entries = [[zero for _ in range(size)] for _ in range(size)]
    one = Poly.one(cfg).to_series(prec)
    for n in range(size):
        for m in range(n + 1):
            if m == n:
                entries[n][m] = one
            elif m == 0:
                continue  # D_0 = E_0 exactly; off-diagonal column is zero
            else:
                acc = TruncSeries.zero(cfg, work)
                for combo in combinations(range(1, n), m - 1):
                    prod = TruncSeries.monomial(cfg, 0, 1, work)
                    for idx in combo:
                        prod = prod * recip[idx]
                    acc = acc + prod
                entry = (_L_mod(cfg, n - 1, work + size) * acc).scalar_mul(cfg.sign(n + m))
                entries[n][m] = entry.truncate(prec)
    return BasisMatrix(cfg, "voloch", size, entries, prec=prec)


def wagner_coeffs_by_solve(f: LinearFunc, N: int) -> BasisExpansion:
    """Solve the triangular system E_n(T^i) against f(T^i)."""
    cfg = f.cfg
    # E_n(T^i) = 0 for i < n and E_i(T^i) = 1, so forward substitution works.
    evals = [[eval_E(cfg, n, Poly.monomial(cfg, i)) for n in range(N)]
             for i in range(N)]
    coeffs: List[Value] = []
    for i in range(N):
        acc = f(Poly.monomial(cfg, i))
        for n in range(i):
            acc = acc - coeffs[n] * evals[i][n]
        coeffs.append(acc)  # E_i(T^i) = 1
    return BasisExpansion(cfg, Basis.LINEAR_E, coeffs)


def delta_upper_by_closures(n: int, f: LinearFunc) -> LinearFunc:
    """delta^(n) f as the definition's tower of closures: step k + 1 maps g
    to x -> g(T x) - T**(q**k) g(x), so every node evaluates the one below
    twice and (delta^(n) f)(x) costs 2**n evaluations of f."""
    cfg = f.cfg
    T = Poly.T(cfg)

    def step(g, mult):
        return LinearFunc(cfg, lambda x: g(T * x) - mult * g(x))

    for k in range(n):
        f = step(f, Poly.monomial(cfg, cfg.q ** k))
    return f


def digit_coeffs_linear_by_iteration(f: LinearFunc, N: int) -> BasisExpansion:
    """Literal n-fold delta iteration evaluated at 1."""
    cfg = f.cfg
    one = Poly.one(cfg)
    coeffs = []
    g = f
    for _ in range(N):
        coeffs.append(g(one))
        g = delta(g)
    return BasisExpansion(cfg, Basis.LINEAR_D, coeffs)


def powered_digit_coeffs_by_iteration(f: LinearFunc, m: int, N: int) -> BasisExpansion:
    """Literal iteration of (delta - [m] I), evaluated at 1."""
    cfg = f.cfg
    one = Poly.one(cfg)
    coeffs = []
    g = f
    for _ in range(N):
        coeffs.append(g(one))
        g = delta_minus(g, m)
    return BasisExpansion(cfg, Basis.POWERED_D, coeffs, m=m)


def delta_minus(f: LinearFunc, m: int) -> LinearFunc:
    """(delta - [m] I) f, with [0] read as the zero polynomial."""
    cfg = f.cfg
    g = delta(f)
    if m == 0:
        return g
    br = bracket(cfg, m)
    return LinearFunc(cfg, lambda x: g(x) - br * f(x),
                      name=f"(delta-[{m}])({f.name})")


def delta_minus_power_at(f: LinearFunc, m: int, n: int, x: Value) -> Value:
    """Closed double sum for ((delta - [m] I)**n f)(x):

    sum_{i<=j<=n} (-1)**(n-i) C(n,j) [m]**(n-j) f(T**i x) D_i(T**j).
    """
    cfg = f.cfg
    br = bracket(cfg, m) if m >= 1 else Poly.zero(cfg)
    acc = None
    for j in range(n + 1):
        cnj = lucas_binom(n, j, cfg.p)
        if cnj == 0:
            continue
        if n - j > 0 and br.is_zero:
            continue
        brpow = (br ** (n - j)).scalar_mul(cnj)
        for i in range(j + 1):
            w = hasse_on_monomial(cfg, i, j)
            if w.is_zero:
                continue
            term = f(Poly.monomial(cfg, i) * x) * w * brpow
            if (n - i) % 2:
                term = -term
            acc = term if acc is None else acc + term
    if acc is None:
        acc = Poly.zero(cfg) if isinstance(x, Poly) else TruncSeries.zero(cfg)
    return acc


def orthogonality_sum_by_pairs(cfg, f, polys, k: int, l: int) -> Poly:
    """sum over m in polys of f(k, m) f'(l, m), one Poly product and one
    Poly addition per m; f is eval_G or eval_D."""
    total = Poly.zero(cfg)
    for m in polys:
        total = total + f(cfg, k, m) * f(cfg, l, m, primed=True)
    return total


def orthogonality_suite_by_pairs(cfg, n: int, budget: int = DEFAULT_BUDGET,
                                 evaluators=None) -> List[VerdictReport]:
    """orthogonality_suite as q**(2n) separate sums, one per (k, l) in
    row-major order, each over a fresh enumeration of m.  ``evaluators``
    maps CARLITZ and DIGIT to the functions to sum (eval_G and eval_D)."""
    evaluators = evaluators or {"CARLITZ": eval_G, "DIGIT": eval_D}
    q = cfg.q
    reports = []
    for family in ("CARLITZ", "DIGIT"):
        f = evaluators[family]
        for variant, kind in (("deg_lt", "deg_lt"), ("monic", "monic_deg_eq")):
            config = {"family": family, "variant": variant, "q": q, "n": n}
            report = VerdictReport("orthogonality", config, VERIFIED)
            try:
                for k, l in product(range(q ** n), repeat=2):
                    polys = poly_enumerate(cfg, n, kind, budget=budget)
                    total = orthogonality_sum_by_pairs(cfg, f, polys, k, l)
                    expected = (Poly.constant(cfg, cfg.sign(n))
                                if k + l == q ** n - 1 else Poly.zero(cfg))
                    if total != expected:
                        report = VerdictReport(
                            "orthogonality", dict(config, k=k, l=l), FALSIFIED,
                            witness={"sum": str(total), "expected": str(expected)})
                        break
            except BudgetError as exc:
                report = VerdictReport("orthogonality", config, BUDGET_EXHAUSTED,
                                       notes=[str(exc)])
            reports.append(report)
    return reports


def bracket_step_by_digits(cfg, k: int, y: Value) -> Value:
    """(y**q - y) / [k], z = y**q - y formed by Frobenius and subtraction,
    then divided as -(z/T) / (1 - T**s), s = q**k - 1, by the strided
    prefix sum u[i] += u[i - s] one digit at a time.  A Poly quotient must
    be exact (a nonzero constant term of z, or a nonzero digit among the
    top s of the prefix sum, raises InexactDivisionError); a truncated
    series loses the one digit that the division by T costs."""
    z = y.frobenius(1) - y
    s = cfg.q ** k - 1
    exact = isinstance(z, Poly)
    if exact:
        digits, size = z.coeffs, max(z.degree, 0)
    else:
        digits, size = bytes(z.v) + z.coeffs, z.prec - 1
    u = list(digits[1:size + 1])
    u += [0] * (size - len(u))
    for i in range(s, size):
        u[i] = cfg.add(u[i], u[i - s])
    u = [cfg.neg(c) for c in u]
    if not exact:
        return TruncSeries(cfg, 0, u, size)
    top = max(size - s, 0)
    if any(digits[:1]) or any(u[top:]):
        raise InexactDivisionError(f"division by [{k}] left a remainder")
    return Poly(cfg, u[:top])


def eval_E_by_steps(cfg, n: int, x: Value) -> Value:
    """E_n(x) by n steps of ``bracket_step_by_digits`` from E_0(x) = x,
    nothing cached; an exact series is stepped as the Poly it equals."""
    if isinstance(x, TruncSeries) and x.prec == EXACT:
        return eval_E_by_steps(cfg, n, x.to_poly()).to_series()
    for k in range(1, n + 1):
        x = bracket_step_by_digits(cfg, k, x)
    return x


def hasse_by_digits(cfg, n: int, x: Value) -> Value:
    """D_n(x) = sum C(i, n) a_i T**(i - n), one Lucas binomial per digit,
    known to precision prec(x) - n."""
    s = as_series(x)
    out = {i - n: cfg.mul(lucas_binom(i, n, cfg.p), a)
           for i, a in enumerate(s.coeffs, s.v) if i >= n}
    return _from_digits(cfg, out, s.prec - n, isinstance(x, Poly))


def digit_product_by_digits(cfg, j: int, x: Value, primed: bool, base) -> Value:
    """prod base(cfg, n, x)**a_n over the base-q digits a_n of j, one digit
    at a time from the lowest, each power formed afresh; a primed maximal
    digit contributes base(cfg, n, x)**a_n - 1.  base is eval_E (G_j) or
    hasse_derivative (D_j)."""
    out = None
    for n, a in enumerate(DigitIndex.of(j, cfg.q).digits):
        if a == 0:
            continue
        factor = base(cfg, n, x) ** a
        if primed and a == cfg.q - 1:
            factor = factor - Poly.one(cfg)
        out = factor if out is None else out * factor
    if out is None:
        one = Poly.one(cfg)
        return one if isinstance(x, Poly) else one.to_series()
    return out


def enumeration_coeffs_by_pairs(f, J: int, cfg, basis: Basis, level=None,
                                evaluate=None) -> BasisExpansion:
    """carlitz_coeffs (basis G) or digit_coeffs (basis D) as one value
    product and one addition per (j, m):

    coeff_j = (-1)**n * sum over deg(m) < n of F'_{q**n - 1 - j}(m) f(m),
    F = G or D; ``evaluate`` replaces eval_G or eval_D.
    """
    if evaluate is None:
        evaluate = eval_G if basis is Basis.CARLITZ_G else eval_D
    n = default_level(cfg, J) if level is None else level
    polys = poly_enumerate(cfg, n, "deg_lt")
    fvals = [f(m) for m in polys]
    coeffs = []
    for j in range(J):
        acc = None
        for m, fm in zip(polys, fvals):
            term = evaluate(cfg, cfg.q ** n - 1 - j, m, primed=True) * fm
            acc = term if acc is None else acc + term
        coeffs.append(acc.scalar_mul(cfg.sign(n)))
    return BasisExpansion(cfg, basis, coeffs)


def _fp_poly_mul(a, b, p: int) -> list:
    """The product of two F_p digit lists (constant term first), trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_poly_mod(a, m, p: int) -> list:
    """The F_p digit list ``a`` reduced mod ``m``, trimmed."""
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _monic_by_digits(code: int, d: int, p: int) -> tuple:
    return tuple((code // p ** i) % p for i in range(d)) + (1,)


def first_irreducible_by_digits(p: int, e: int) -> tuple:
    """The first monic degree-e polynomial over F_p, lower coefficients
    the base-p digits of 0, 1, 2, ..., with no monic factor of degree
    1..e//2, by trial division on digit lists."""
    for code in range(p ** e):
        m = _monic_by_digits(code, e, p)
        if all(_fp_poly_mod(m, _monic_by_digits(c, d, p), p)
               for d in range(1, e // 2 + 1) for c in range(p ** d)):
            return m
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


def field_tables_by_digits(p: int, e: int, modulus) -> dict:
    """FieldConfig's tables for F_{p**e} on ``modulus`` (e > 1), each entry
    formed one digit list at a time: "add", "neg", "mul", "inv" by element
    code, and "fold" (the code of u**e * h(u) mod the modulus, h the
    e - 1 digits of its index)."""
    q = p ** e

    def digits(c):
        return [(c // p ** i) % p for i in range(e)]

    def code(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    mul = [[code(_fp_poly_mod(_fp_poly_mul(digits(a), digits(b), p), modulus, p))
            for b in range(q)] for a in range(q)]
    return {
        "add": [[code([(x + y) % p for x, y in zip(digits(a), digits(b))])
                 for b in range(q)] for a in range(q)],
        "neg": [code([-x % p for x in digits(a)]) for a in range(q)],
        "mul": mul,
        "inv": [None] + [next(b for b in range(1, q) if mul[a][b] == 1)
                         for a in range(1, q)],
        "fold": [code(_fp_poly_mod([0] * e + digits(h)[:e - 1], modulus, p))
                 for h in range(p ** (e - 1))],
    }


def field_tables_by_poly(p: int, e: int, modulus) -> dict:
    """FieldConfig's "add" and "mul" tables for F_{p**e}: every sum digit by
    digit, every product as a Poly over F_p reduced by Poly.divmod mod
    ``modulus`` (for e = 1 pass (0, 1), so the reduction keeps the
    constant term)."""
    q = p ** e
    fp = FieldConfig(p)
    m = Poly(fp, modulus)
    elems = [Poly(fp, [(c // p ** i) % p for i in range(e)]) for c in range(q)]

    def code(poly):
        return sum(d * p ** i for i, d in enumerate(poly.coeffs))

    return {
        "add": [[sum((a // p ** i + b // p ** i) % p * p ** i for i in range(e))
                 for b in range(q)] for a in range(q)],
        "mul": [[code((a * b).divmod(m)[1]) for b in elems] for a in elems],
    }


# array typecode by item width in bits.
_SLOT_TYPES = {array(t).itemsize * 8: t for t in "QLIHB"}


def pack_by_slots(cfg, coeffs, width: int) -> int:
    """Kronecker packing by its definition: base-p digit t of coefficient
    i is added at bit width * ((2e - 1) i + t)."""
    block = 2 * cfg.e - 1
    return sum((c // cfg.p ** t % cfg.p) << width * (block * i + t)
               for i, c in enumerate(coeffs) for t in range(cfg.e))


def unpack_by_slots(cfg, value: int, width: int) -> bytes:
    """algebra.unpack one slot at a time: each slot of ``value`` read as an
    array item and reduced mod p, then for e > 1 each block of 2e - 1
    residues folded into a code through the fold and addition tables."""
    item = width // 8
    nbytes = -(-value.bit_length() // width) * item
    slots = array(_SLOT_TYPES[width])
    slots.frombytes(value.to_bytes(nbytes, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    p, e = cfg.p, cfg.e
    res = [s % p for s in slots]
    if e > 1:
        block = 2 * e - 1
        res += [0] * (-len(res) % block)
        low, high = res[0::block], res[e::block]
        for t in range(1, e):
            w = p ** t
            low = [x + w * y for x, y in zip(low, res[t::block])]
            if t < e - 1:
                high = [x + w * y for x, y in zip(high, res[e + t::block])]
        add, fold = cfg.add_table, cfg.fold_table
        res = [add[x][fold[y]] for x, y in zip(low, high)]
    return bytes(res).rstrip(b"\0")


def addition_convolution(cfg, evaluate, primed: bool, j: int, x: Poly, u: Poly,
                         weight) -> Poly:
    """sum over e <= j of weight(e) F_e(x) F'_{j-e}(u), one Poly product,
    scalar multiple and addition per e of nonzero weight; F is
    ``evaluate`` (eval_G or eval_D), primed on u when asked."""
    acc = Poly.zero(cfg)
    for e in range(j + 1):
        w = weight(e)
        if w:
            term = evaluate(cfg, e, x) * evaluate(cfg, j - e, u, primed=primed)
            acc = acc + term.scalar_mul(w)
    return acc


def basis_distance_exact(cfg, pair: str, n: int, i_max: int = 50,
                         m: int = 1) -> VerdictReport:
    """``identities.basis_distance`` on exact values: f(T^i) and g(T^i) as
    polynomials of degree up to q**n (i - n) (q times that for Eq_vs_E),
    every difference formed.  The evaluators are looked up on
    ``identities`` at call time, so a planted fault reaches both."""
    config = {"pair": pair, "q": cfg.q, "n": n, "i_max": i_max, "m": m}
    if pair == "E_vs_D":
        f = lambda t: identities.eval_E(cfg, n, t)
        g = lambda t: identities.hasse_derivative(cfg, n, t)
    elif pair == "Dq_vs_D":
        f = lambda t: identities.powered_D(cfg, n, m, t)
        g = lambda t: identities.hasse_derivative(cfg, n, t)
    elif pair == "Eq_vs_E":
        f = lambda t: identities.eval_E(cfg, n, t).frobenius(1)
        g = lambda t: identities.eval_E(cfg, n, t)
    else:
        raise ValueError(f"unknown pair {pair!r}")
    one = Poly.one(cfg)
    max_norm = valuation_norm(Poly.zero(cfg)).value
    for i in range(i_max + 1):
        t = Poly.monomial(cfg, i)
        fv, gv = f(t), g(t)
        diff = fv - gv
        nm = valuation_norm(diff)
        if nm.v is not None and nm.v < 1:
            return VerdictReport("basis_distance", config, FALSIFIED,
                                 witness={"i": i, "difference": str(diff),
                                          "valuation": nm.v})
        max_norm = max(max_norm, nm.value)
        if i == n and gv != one:
            return VerdictReport("basis_distance_delta", config, FALSIFIED,
                                 witness={"i": i, "value": str(gv)})
        if i < n and not (fv.is_zero and gv.is_zero):
            return VerdictReport("basis_distance_delta", config, FALSIFIED,
                                 witness={"i": i, "f": str(fv), "g": str(gv)})
    notes = [f"sup over tested range is {max_norm} (certified for i <= {i_max} only)"]
    return VerdictReport("basis_distance", config, VERIFIED, notes=notes)
