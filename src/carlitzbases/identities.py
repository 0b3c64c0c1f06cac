"""Executable verification of the identity families.

Every check returns a VerdictReport; falsified reports carry a replayable
witness.  Sup-norm style claims are certified on a finite range (recorded
in the report) rather than proved.  The orthogonality suite is verified
by a certificate on the levels E_t and D_t alone, which proves every Gram
entry of their digit products (``_levels_certified``); G_j and D_j are
tabulated only when it fails.  An addition law's right side is a product
of one-digit sums.  The distance and reduced-basis checks read E_n(T^i)
and D_n(T^i) mod T^P, from the truncated point T^i + O(T^(n+P)), not exactly.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import List, NamedTuple, Optional

from .algebra import (
    BudgetError,
    DomainError,
    FieldConfig,
    Poly,
    TruncSeries,
    _mul,
    lucas_binom,
    packed_sums,
    poly_enumerate,
    product_sums,
    random_poly,
    values_match,
)
from .carlitz import DEGREE_BUDGET, DigitIndex, eval_E, eval_G
from .hasse import eval_D, hasse_derivative, powered_D
from .transforms import (
    Basis,
    BasisExpansion,
    DEFAULT_BUDGET,
    D_func,
    Dj_func,
    E_func,
    G_func,
    LinearFunc,
    _enumeration_coeffs,
    _is_q_power,
    add_func,
    constant_func,
    frobenius_func,
    identity_func,
    monomial_func,
    scale_func,
)

VERIFIED = "verified"
FALSIFIED = "falsified"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class VerdictReport:
    identity: str
    config: dict
    status: str
    witness: Optional[dict] = None
    notes: List[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        return {
            "schema": "carlitzbases/v1",
            "kind": "verdict",
            "identity": self.identity,
            "config": self.config,
            "status": self.status,
            "witness": self.witness,
            "notes": self.notes,
        }


def _verdict(identity, config, ok, witness=None, notes=()):
    return VerdictReport(identity, config, VERIFIED if ok else FALSIFIED,
                         witness=None if ok else witness, notes=list(notes))


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------

def check_orthogonality(cfg: FieldConfig, family: str, variant: str,
                        n: int, k: int, l: int,
                        budget: int = DEFAULT_BUDGET) -> VerdictReport:
    """sum over m of F_k(m) F'_l(m) = 0, or (-1)**n when k + l = q**n - 1.

    family CARLITZ uses G/G', DIGIT uses D/D'; variant deg_lt sums over
    deg(m) < n, monic over monic m of degree n (then k < q**n required).
    Only k and l are tabulated (``_tabulate``), so a deg_lt k >= q**n
    costs one prefix chain per point.
    """
    q = cfg.q
    if l < 0 or l >= q ** n:
        raise DomainError("orthogonality requires 0 <= l < q**n")
    if variant == "monic" and not (0 <= k < q ** n):
        raise DomainError("monic variant requires 0 <= k < q**n")
    values, primed = _tabulate(cfg, family, variant, n, budget, (k,), (l,))
    _, _, total = next(_gram_entries(cfg, (k,), (l,), values, primed))
    return _orthogonality_verdict(cfg, family, variant, n, k, l, total)


def orthogonality_suite(cfg: FieldConfig, n: int,
                        budget: int = DEFAULT_BUDGET) -> List[VerdictReport]:
    """Exhaustive orthogonality over both families and variants at level n.

    Per (family, variant), the suite is verified when its levels pass the
    certificate ``_levels_certified``, which forms no F_k(m).  Otherwise
    every F_k(m) and F'_l(m) is tabulated (``_tabulate``) and the Gram
    product (``_gram_entries``) is read entry by entry in row-major (k, l)
    order up to the first mismatch, which names the falsified entry; with
    no mismatch the suite is verified all the same.  A verified report
    thus rests on the levels, and on G_j and D_j being their digit
    products (which the tests check, not the suite).
    """
    reports = []
    q = cfg.q
    indices = range(q ** n)
    for family in ("CARLITZ", "DIGIT"):
        for variant in ("deg_lt", "monic"):
            config = {"family": family, "variant": variant, "q": q, "n": n}
            report = VerdictReport("orthogonality", config, VERIFIED)
            try:
                if not _levels_certified(cfg, family, variant, n, budget):
                    values, primed = _tabulate(cfg, family, variant, n, budget,
                                               indices, indices)
                    for k, l, total in _gram_entries(cfg, indices, indices,
                                                     values, primed):
                        if total != _orthogonality_expected(cfg, n, k, l):
                            report = _orthogonality_verdict(
                                cfg, family, variant, n, k, l, total)
                            break
            except BudgetError as exc:
                report = VerdictReport("orthogonality", config,
                                       BUDGET_EXHAUSTED, notes=[str(exc)])
            reports.append(report)
    return reports


_ENUMERATION = {"deg_lt": "deg_lt", "monic": "monic_deg_eq"}


def _levels_certified(cfg, family, variant, n, budget):
    """Whether every level b_t, t < n (E_t for CARLITZ, D_t for DIGIT,
    looked up per call, as the module globals may be rebound), has
    b_t(T^t) = 1 and b_t(T^i) = 0 for i < t, and is affine on the points
    m that ``variant`` sums over:

        b_t(m) = b_t(base) + sum over t <= i < n of c_i b_t(T^i)

    at each m = base + sum c_i T^i, base being 0 (deg_lt) or T^n (monic).
    The sums are formed per level from the lowest digit up, one addition
    per block of q**t points, and each of the n q**n values b_t(m) is
    compared with its own: no product is formed.

    That certifies the closed form of every power sum
    S(s) = sum over m of prod_t b_t(m)**s_t, s in [0, 2q - 2]**n, which is
    (-1)**n when every s_t is q - 1 or 2q - 2 and 0 otherwise.  The digit
    c_0 occurs only in b_0, as c_0 + X, and sum over u in F_q of
    (u + X)**s is -1 when s is q - 1 or 2q - 2 and 0 for any other
    s <= 2q - 2, whatever X is (C(s, q - 1) = 0 mod p for q <= s <= 2q - 2,
    by Lucas in base q).  Summing c_0 out leaves a constant in place of
    the b_0 factor, c_1 then occurs only in b_1, and so on.  Expanding F'
    by its definition, each Gram entry sum_m F_k(m) F'_l(m) of digit
    products F of the b_t is a signed sum of such S, which is then its
    closed form (K. Conrad, "The digit principle", J. Number Theory 84,
    2000: orthonormal levels give orthonormal digit products).
    """
    polys = poly_enumerate(cfg, n, _ENUMERATION[variant], budget=budget)
    level = {"CARLITZ": eval_E, "DIGIT": hasse_derivative}[family]
    q = cfg.q
    base = Poly.monomial(cfg, n) if variant == "monic" else Poly.zero(cfg)
    at = [[level(cfg, t, Poly.monomial(cfg, i)) for i in range(n)]
          for t in range(n)]
    one = Poly.one(cfg)
    if any(row[t] != one or any(v.coeffs for v in row[:t])
           for t, row in enumerate(at)):
        return False
    sums = []
    for t, row in enumerate(at):
        block = [level(cfg, t, base)]
        for value in row[t:]:
            block = [low + value.scalar_mul(c) for c in range(q) for low in block]
        sums.append(block)
    return all(level(cfg, t, m) == sums[t][x // q ** t]
               for x, m in enumerate(polys) for t in range(n))


def _tabulate(cfg, family, variant, n, budget, ks, ls):
    """The codes of F_k(m) for k in ks and of F'_l(m) for l in ls, one row
    per index, one entry per m that ``variant`` sums over, F being G
    (CARLITZ) or D (DIGIT): at each m, every k and then every l, primed
    (``eval_G``/``eval_D``, looked up per call, as the module globals may
    be rebound), each at most one product when the indices ascend."""
    evaluate = {"CARLITZ": eval_G, "DIGIT": eval_D}.get(family)
    if evaluate is None:
        raise DomainError(f"unknown family {family!r}")
    if variant not in _ENUMERATION:
        raise DomainError(f"unknown variant {variant!r}")
    polys = poly_enumerate(cfg, n, _ENUMERATION[variant], budget=budget)
    columns = [[evaluate(cfg, k, m).coeffs for k in ks]
               + [evaluate(cfg, l, m, primed=True).coeffs for l in ls]
               for m in polys]
    rows = list(zip(*columns))
    return rows[:len(ks)], rows[len(ks):]


def _gram_entries(cfg, ks, ls, values, primed):
    """Yield (k, l, sum over m of F_k(m) F'_l(m)) for k in ks, l in ls,
    row-major, from the tabulated rows ``values`` (one per k) and
    ``primed`` (one per l): one Gram product, each tabulated value packed
    once (``algebra.packed_sums``) and each entry one sum of integer
    products, unpacked once.
    """
    for (k, l), codes in zip(product(ks, ls), packed_sums(cfg, values, primed)):
        yield k, l, Poly(cfg, codes)


def _orthogonality_expected(cfg, n, k, l):
    if k + l == cfg.q ** n - 1:
        return Poly.constant(cfg, cfg.sign(n))
    return Poly.zero(cfg)


def _orthogonality_verdict(cfg, family, variant, n, k, l, total):
    config = {"family": family, "variant": variant, "q": cfg.q, "n": n,
              "k": k, "l": l}
    expected = _orthogonality_expected(cfg, n, k, l)
    return _verdict("orthogonality", config, total == expected,
                    witness={"sum": str(total), "expected": str(expected)})


# ---------------------------------------------------------------------------
# Addition laws
# ---------------------------------------------------------------------------

def check_addition_law(cfg: FieldConfig, family: str, j: int,
                       x: Poly, u: Poly) -> VerdictReport:
    """Binomial addition law for G, G', D, or D' at index j, plus the
    scaling law at every alpha in F_q* and, at j = q**m - 1, the x - u form."""
    return _addition_failure(cfg, family, j, x, u, range(2, cfg.q)) or VerdictReport(
        "addition_law", _addition_config(cfg, family, j, x, u), VERIFIED)


def _addition_config(cfg, family, j, x, u):
    return {"family": family, "q": cfg.q, "j": j, "x": str(x), "u": str(u)}


def _addition_failure(cfg, family, j, x, u, alphas) -> Optional[VerdictReport]:
    """The falsified report of ``check_addition_law``, with scaling read at
    each alpha in ``alphas``, or None: x and u become text only on failure.
    No signed form (-1)**e at j = q**m - 1: its digits are all q - 1, and
    C(q - 1, a) = (-1)**a mod p (Lucas), so it would repeat the binomial law."""
    primed = family.endswith("p")
    # Looked up per call: the module globals may be rebound (e.g. wrapped).
    evaluate = {"G": eval_G, "D": eval_D}.get(family.rstrip("p"))
    if evaluate is None:
        raise DomainError(f"unknown family {family!r}")

    def falsified(identity, **witness):
        return _verdict(identity, _addition_config(cfg, family, j, x, u), False,
                        witness=witness)

    f = lambda y: evaluate(cfg, j, y, primed=primed)
    text = lambda codes: str(Poly(cfg, codes))
    convolution = _addition_convolution(cfg, evaluate, primed, j, x, u)
    lhs = f(x + u)
    rhs = convolution(lambda w: w.binomial)
    if lhs.coeffs != rhs:
        return falsified("addition_law", lhs=str(lhs), rhs=text(rhs))
    fx = f(x).coeffs if alphas else None
    for alpha in alphas:
        left = f(x.scalar_mul(alpha))
        right = fx.translate(cfg.mul_rows[cfg.pow(alpha, j)])  # alpha**j != 0
        if left.coeffs != right:
            return falsified("addition_scaling", alpha=alpha, lhs=str(left),
                             rhs=text(right))
    if j > 0 and _is_q_power(j + 1, cfg.q):
        diff_lhs = f(x - u)
        diff_rhs = convolution(lambda w: w.unit)
        if diff_lhs.coeffs != diff_rhs:
            return falsified("addition_diff_form", lhs=str(diff_lhs), rhs=text(diff_rhs))
    return None


class _DigitWeights(NamedTuple):  # a digit d's box and weight rows over it
    box: tuple  # the a <= d with C(d, a) != 0 mod p
    binomial: tuple  # C(d, a) mod p per a in the box
    unit: tuple  # 1


@lru_cache(maxsize=None)  # at most q - 1 digits d per field
def _digit_weights(d, p) -> _DigitWeights:
    binomials = [lucas_binom(d, a, p) for a in range(d + 1)]
    box = tuple(a for a, c in enumerate(binomials) if c)
    return _DigitWeights(box, tuple(binomials[a] for a in box), (1,) * len(box))


def _addition_convolution(cfg, evaluate, primed, j, x, u):
    """The map from a weight row w(d, .) (a function of ``_digit_weights``)
    to the codes of the sum over e of prod_t w(d_t, e_t) F_e(x) F'_{j-e}(u),
    F being ``evaluate`` (eval_G or eval_D), primed on u as asked, each e_t
    in the box of d_t.  As F_e and F'_{j-e} are digit products, it is the
    code product over the digits d_t != 0 of j of the sums of w(d_t, a)
    F_{a q**t}(x) F'_{(d_t - a) q**t}(u), F_0 = 1 unread, each one
    ``product_sums`` formed once for every row.  The rows C(d, a) and 1
    give C(j, e) (Lucas) and 1."""
    factors = []
    for t, d in enumerate(DigitIndex.of(j, cfg.q).digits):  # j < 0 raises
        if d:
            w, unit = _digit_weights(d, cfg.p), cfg.q ** t
            left = [evaluate(cfg, a * unit, x).coeffs if a else b"\1" for a in w.box]
            # d - a runs over the box backwards (Lucas: no borrow), so the
            # one-digit values at u are formed upwards, as at x.
            right = [evaluate(cfg, a * unit, u, primed=primed).coeffs
                     if a else b"\1" for a in w.box][::-1]
            factors.append((w, product_sums(cfg, left, right, len(left) * (cfg.p - 1))))

    def convolution(row):
        codes = b"\1"
        for weights, sums in factors:
            term = sums(enumerate(row(weights)))  # a zero term makes it zero
            codes = codes and term and _mul(cfg, codes, term, len(codes) + len(term) - 1)
        return codes

    return convolution


# ---------------------------------------------------------------------------
# Linearity characterization
# ---------------------------------------------------------------------------

def classify_linearity(exp: BasisExpansion, evaluator: LinearFunc = None,
                       rng: random.Random = None,
                       samples: int = 8, max_deg: int = 4) -> VerdictReport:
    """Linear iff every retained coefficient away from the q-power indices
    vanishes (to its precision); cross-checked by additivity sampling when
    an evaluator is attached."""
    if exp.basis not in (Basis.CARLITZ_G, Basis.DIGIT_D):
        raise DomainError("linearity classification needs a G- or D-basis expansion")
    cfg = exp.cfg
    config = {"basis": exp.basis.value, "q": cfg.q, "trunc": exp.trunc}
    offenders = [j for j, c in enumerate(exp.coeffs)
                 if c.coeffs and not _is_q_power(j, cfg.q)]
    linear = not offenders
    notes = [f"classified {'linear' if linear else 'nonlinear'} "
             f"from {exp.trunc} retained coefficients"]
    if offenders:
        notes.append(f"nonzero coefficients at non-q-power indices {offenders}")
    if evaluator is not None:
        rng = rng or random.Random(0)
        sampled = _sample_linear(cfg, evaluator, rng, samples, max_deg)
        if sampled != linear:
            return VerdictReport("linearity", config, FALSIFIED,
                                 witness={"expansion_says": linear,
                                          "sampling_says": sampled},
                                 notes=notes)
        notes.append("additivity sampling agrees")
    return VerdictReport("linearity", config, VERIFIED,
                         witness={"linear": linear}, notes=notes)


def _sample_linear(cfg, f, rng, samples, max_deg) -> bool:
    zero = Poly.zero(cfg)
    if not values_match(f(zero), zero):
        return False
    for _ in range(samples):
        x = random_poly(cfg, rng, max_deg)
        y = random_poly(cfg, rng, max_deg)
        sum_value, fx = f(x + y), f(x)
        if not values_match(sum_value, fx + f(y)):
            return False
        alpha = rng.randrange(1, cfg.q)
        if not values_match(f(x.scalar_mul(alpha)), fx.scalar_mul(alpha)):
            return False
    return True


# ---------------------------------------------------------------------------
# Norm-distance bounds between the bases
# ---------------------------------------------------------------------------

def basis_distance(cfg: FieldConfig, pair: str, n: int,
                   i_max: int = 50, m: int = 1) -> VerdictReport:
    """Certify v(f(T^i) - g(T^i)) >= 1 for i <= i_max (so ||f - g|| <= 1/q
    on the tested range, and the reductions mod T agree) and the delta
    pattern f(T^i) = 0 for i < n, f(T^n) = 1.

    f and g are read mod T^P, P = max(2, i - n + 1) (``_pair_values``).
    The checks read one exact digit each.  For the sup note, P doubles for
    each i whose difference is zero mod T^P, until a nonzero digit appears
    below the least valuation found, or P passes the degree bound
    q**s (i - n) of the difference, s = n (E_vs_D), m (Dq_vs_D) or n + 1
    (Eq_vs_E), past which it is exactly zero.  A falsified witness is
    re-evaluated exactly at its i, unless that passes DEGREE_BUDGET.
    """
    config = {"pair": pair, "q": cfg.q, "n": n, "i_max": i_max, "m": m}
    s = {"E_vs_D": n, "Dq_vs_D": m, "Eq_vs_E": n + 1}.get(pair)
    if s is None:
        raise DomainError(f"unknown pair {pair!r}")
    P, pending, valuations, least = 2, range(i_max + 1), [], None
    while pending:
        unresolved = []
        for i in pending:
            digits, bound = max(P, i - n + 1), cfg.q ** s * (i - n)
            fv, gv = _pair_values(cfg, pair, n, m, i, digits)
            diff = fv - gv
            failure = _distance_failure(config, n, i, fv, gv, diff)
            if failure is not None and bound <= DEGREE_BUDGET:
                try:
                    fv, gv = _pair_values(cfg, pair, n, m, i)
                    failure = _distance_failure(config, n, i, fv, gv,
                                                fv - gv) or failure
                except BudgetError:
                    pass
            if failure is not None:
                return failure
            if diff.valuation is not None:
                valuations.append(diff.valuation)
            elif digits <= bound:
                unresolved.append((i, digits))
        least = min(valuations, default=None)
        pending = [i for i, digits in unresolved if least is None or digits < least]
        P *= 2
    sup = Fraction(0) if least is None else Fraction(1, cfg.q ** least)
    notes = [f"sup over tested range is {sup} (certified for i <= {i_max} only)"]
    return VerdictReport("basis_distance", config, VERIFIED, notes=notes)


def _pair_values(cfg, pair, n, m, i, P=None):
    """(f(T^i), g(T^i)) for a ``basis_distance`` pair: exact (P None), or
    mod T^P, on T^i + O(T^(n+P)), since E_n and D_n lose n digits; for
    Eq_vs_E, the Frobenius of the first ceil(P / q) digits of E_n."""
    x = (Poly.monomial(cfg, i) if P is None
         else TruncSeries.monomial(cfg, i, 1, n + P))
    if pair == "Dq_vs_D":
        return powered_D(cfg, n, m, x), hasse_derivative(cfg, n, x)
    ev = eval_E(cfg, n, x)
    if pair == "E_vs_D":
        return ev, hasse_derivative(cfg, n, x)
    return (ev if P is None else ev.truncate(-(-P // cfg.q))).frobenius(1), ev


def _distance_failure(config, n, i, fv, gv, diff):
    """The falsified ``basis_distance`` report at T^i, or None."""
    v = diff.valuation
    if v is not None and v < 1:
        return _verdict("basis_distance", config, False,
                        witness={"i": i, "difference": str(diff), "valuation": v})
    if i == n and not values_match(gv, Poly.one(diff.cfg)):
        return _verdict("basis_distance_delta", config, False,
                        witness={"i": i, "value": str(gv)})
    if i < n and (fv.coeffs or gv.coeffs):
        return _verdict("basis_distance_delta", config, False,
                        witness={"i": i, "f": str(fv), "g": str(gv)})
    return None


# ---------------------------------------------------------------------------
# q**m-power criterion and reduced-basis independence
# ---------------------------------------------------------------------------

def check_power_criterion(cfg: FieldConfig, f, m: int,
                          samples: int = 30, rng: random.Random = None,
                          max_deg: int = 6, name: str = "f") -> VerdictReport:
    """|f(x)**(q**m) - f(x)| <= 1/q on sampled x in O, with f mapping into O."""
    if m < 1:
        raise DomainError("power criterion needs m >= 1")
    rng = rng or random.Random(0)
    config = {"q": cfg.q, "m": m, "samples": samples, "function": name}
    for s in range(samples):
        x = random_poly(cfg, rng, max_deg)
        v = f(x)
        if v.valuation is not None and v.valuation < 0:
            return _verdict("power_criterion", config, False,
                            witness={"x": str(x), "f(x)": str(v),
                                     "reason": "value escapes O"})
        diff = v.frobenius(m) - v
        if diff.valuation is not None and diff.valuation < 1:
            return _verdict("power_criterion", config, False,
                            witness={"x": str(x), "difference": str(diff)})
    return VerdictReport("power_criterion", config, VERIFIED)


def check_reduced_basis(cfg: FieldConfig, n_max: int) -> VerdictReport:
    """The matrices [reduced E_i(T^j)] and [reduced D_i(T^j)] for i, j < n_max
    coincide and are unitriangular, so the reductions are independent over F_q.

    E_i(T^j) is read mod T, from T^j + O(T^(i+1)), so no value of degree
    q**i j is formed (no degree budget at any q)."""
    config = {"q": cfg.q, "n_max": n_max}
    mat_E = [[eval_E(cfg, i, TruncSeries.monomial(cfg, j, 1, i + 1)).coeff(0)
              for j in range(n_max)] for i in range(n_max)]
    mat_D = [[hasse_derivative(cfg, i, Poly.monomial(cfg, j)).coeff(0)
              for j in range(n_max)] for i in range(n_max)]
    if mat_E != mat_D:
        return _verdict("reduced_basis", config, False,
                        witness={"E": mat_E, "D": mat_D})
    for i in range(n_max):
        if mat_E[i][i] != 1:
            return _verdict("reduced_basis", config, False,
                            witness={"diagonal": (i, mat_E[i][i])})
        for j in range(i):
            if mat_E[i][j] != 0:
                return _verdict("reduced_basis", config, False,
                                witness={"entry": (i, j, mat_E[i][j])})
    return VerdictReport("reduced_basis", config, VERIFIED)


# ---------------------------------------------------------------------------
# Suite runner (drives the CLI and the scripts)
# ---------------------------------------------------------------------------

SUITES = ("ortho", "addition", "linearity", "distance", "power", "reduced")


def run_suite(cfg: FieldConfig, selector: str, *, n: int = 2,
              budget: int = DEFAULT_BUDGET, seed: int = 0,
              i_max: int = 50) -> List[VerdictReport]:
    if n < 0:
        raise DomainError(f"suite level n must be non-negative, got {n}")
    if budget < 1:
        raise DomainError(f"a suite budget below 1 checks no case, got {budget}")
    rng = random.Random(seed)
    reports: List[VerdictReport] = []
    selectors = SUITES if selector == "all" else (selector,)
    for sel in selectors:
        if sel == "ortho":
            reports.extend(orthogonality_suite(cfg, max(n, 1), budget=budget))
        elif sel == "addition":
            # Three checks per j, check c reading scaling at alpha = 2 + c mod (q - 2).
            j_max = min(cfg.q ** 3, budget)
            for family in ("G", "Gp", "D", "Dp"):
                config = {"family": family, "q": cfg.q, "j_max": j_max, "seed": seed}
                if j_max < 2:  # j = 0 alone: both sides are the constant 1
                    note = f"budget {budget} admits only j = 0"
                    reports.append(VerdictReport("addition_law", config,
                                                 BUDGET_EXHAUSTED, notes=[note]))
                    continue
                bad = None
                for c in range(3 * j_max):
                    x, u = random_poly(cfg, rng, 3), random_poly(cfg, rng, 3)
                    alphas = (2 + c % (cfg.q - 2),) if cfg.q > 2 else ()
                    bad = _addition_failure(cfg, family, c // 3, x, u, alphas)
                    if bad:
                        break
                reports.append(bad or VerdictReport("addition_law", config, VERIFIED))
        elif sel == "linearity":
            # The whole corpus is expanded at once, sharing the weights.
            J = min(cfg.q ** 3, 32)
            corpus = _linearity_corpus(cfg)
            expansions = _enumeration_coeffs(
                [func for func, _ in corpus], J, cfg, None,
                max(budget, cfg.q ** 4), Basis.DIGIT_D)
            for (func, expected), exp in zip(corpus, expansions):
                r = classify_linearity(exp, evaluator=func, rng=rng)
                if r.ok and r.witness and r.witness.get("linear") != expected:
                    r = VerdictReport("linearity", r.config, FALSIFIED,
                                      witness={"function": func.name,
                                               "expected": expected,
                                               "classified": r.witness["linear"]})
                r.config["function"] = func.name
                reports.append(r)
        elif sel == "distance":
            for level in range(0, min(n, 4) + 1):
                for pair in ("E_vs_D", "Dq_vs_D", "Eq_vs_E"):
                    reports.append(basis_distance(cfg, pair, level, i_max=i_max))
        elif sel == "power":
            for func in (E_func(cfg, 1), G_func(cfg, 3),
                         constant_func(cfg, Poly.one(cfg))):
                reports.append(check_power_criterion(cfg, func, 1, rng=rng,
                                                     name=func.name))
        elif sel == "reduced":
            reports.append(check_reduced_basis(cfg, 6))
        else:
            raise DomainError(f"unknown suite selector {selector!r}")
    return reports


def _linearity_corpus(cfg):
    T = Poly.T(cfg)
    linear = [
        identity_func(cfg),
        D_func(cfg, 1),
        E_func(cfg, 1),
        frobenius_func(cfg, 1),
        add_func(D_func(cfg, 0), D_func(cfg, 1)),
        scale_func(T, D_func(cfg, 1)),
        add_func(E_func(cfg, 0), scale_func(T, E_func(cfg, 1))),
        D_func(cfg, 2),
        E_func(cfg, 2),
        add_func(frobenius_func(cfg, 1), identity_func(cfg)),
    ]
    q = cfg.q
    nonlinear_js = [j for j in range(2, q ** 3) if not _is_q_power(j, q)]
    nonlinear = [
        constant_func(cfg, Poly.one(cfg)),
        G_func(cfg, nonlinear_js[0]),
        Dj_func(cfg, nonlinear_js[0]),
        Dj_func(cfg, nonlinear_js[-1] if len(nonlinear_js) > 1 else nonlinear_js[0],
                primed=True),
        G_func(cfg, nonlinear_js[0], primed=True),
        add_func(identity_func(cfg), constant_func(cfg, T)),
        monomial_func(cfg, nonlinear_js[0]),
        G_func(cfg, nonlinear_js[min(1, len(nonlinear_js) - 1)]),
        Dj_func(cfg, nonlinear_js[min(1, len(nonlinear_js) - 1)]),
        add_func(G_func(cfg, nonlinear_js[0]), D_func(cfg, 1)),
    ]
    return [(f, True) for f in linear] + [(f, False) for f in nonlinear]


def reports_to_json_text(reports: List[VerdictReport]) -> str:
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2)


def reports_to_csv(reports: List[VerdictReport]) -> str:
    lines = ["identity,config,status"]
    for r in reports:
        cfg_txt = ";".join(f"{k}={v}" for k, v in sorted(r.config.items()))
        lines.append(f"{r.identity},{cfg_txt},{r.status}")
    return "\n".join(lines) + "\n"
