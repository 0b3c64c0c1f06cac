"""Executable verification of the identity families.

Every check returns a VerdictReport; falsified reports carry a replayable
witness.  Sup-norm style claims are certified on a finite range (recorded
in the report) rather than proved.  The distance and reduced-basis checks
read E_n(T^i) and D_n(T^i) mod T^P (``_E_mod``), not exactly.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from operator import mul
from typing import List, Optional

from .algebra import (
    BudgetError,
    DomainError,
    FieldConfig,
    Poly,
    TruncSeries,
    lucas_binom,
    pack,
    packed_sums,
    poly_enumerate,
    random_poly,
    slot_width,
    unpack,
    valuation_norm,
    values_match,
)
from .carlitz import DEGREE_BUDGET, eval_E, eval_G
from .hasse import eval_D, hasse_derivative, powered_D
from .transforms import (
    Basis,
    BasisExpansion,
    DEFAULT_BUDGET,
    LinearFunc,
    _is_q_power,
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
    """
    q = cfg.q
    if l < 0 or l >= q ** n:
        raise DomainError("orthogonality requires 0 <= l < q**n")
    if variant == "monic" and not (0 <= k < q ** n):
        raise DomainError("monic variant requires 0 <= k < q**n")
    entries = _gram_entries(cfg, family, variant, n, (k,), (l,), budget)
    _, _, total = next(entries)
    return _orthogonality_verdict(cfg, family, variant, n, k, l, total)


def orthogonality_suite(cfg: FieldConfig, n: int,
                        budget: int = DEFAULT_BUDGET) -> List[VerdictReport]:
    """Exhaustive orthogonality over both families and variants at level n.

    Per (family, variant), every F_k(m) and F'_l(m) is tabulated once, and
    the suite is verified when the primed values match their subset
    expansion (``_primed_values_match``) and every power sum matches its
    closed form (``_power_sums_match``).  Any mismatch re-runs the Gram
    product (``_gram_entries``), entry by entry in row-major (k, l) order
    up to the first mismatch, which names the falsified entry.
    """
    reports = []
    q = cfg.q
    indices = range(q ** n)
    for family in ("CARLITZ", "DIGIT"):
        for variant in ("deg_lt", "monic"):
            config = {"family": family, "variant": variant, "q": q, "n": n}
            report = VerdictReport("orthogonality", config, VERIFIED)
            try:
                values, primed = _tabulate(cfg, family, variant, n, budget)
                if not (_primed_values_match(cfg, n, values, primed)
                        and _power_sums_match(cfg, n, values)):
                    for k, l, total in _gram_entries(cfg, family, variant, n,
                                                     indices, indices, budget):
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


def _enumerated(cfg, family, variant, n, budget):
    """The evaluator of ``family`` (eval_G or eval_D, looked up per call:
    the module globals may be rebound) and the m that ``variant`` sums over."""
    f = {"CARLITZ": eval_G, "DIGIT": eval_D}.get(family)
    if f is None:
        raise DomainError(f"unknown family {family!r}")
    if variant not in _ENUMERATION:
        raise DomainError(f"unknown variant {variant!r}")
    return f, poly_enumerate(cfg, n, _ENUMERATION[variant], budget=budget)


def _tabulate(cfg, family, variant, n, budget):
    """The codes of F_k(m) and of F'_k(m), one row per k < q**n, one entry
    per enumerated m.  They are evaluated one m at a time, so the cache
    (``towers``) never has to hold more than one point's values."""
    f, polys = _enumerated(cfg, family, variant, n, budget)
    indices = range(cfg.q ** n)
    rows = list(zip(*([f(cfg, k, m, primed=primed).coeffs
                       for primed in (False, True) for k in indices]
                      for m in polys)))
    return rows[:len(indices)], rows[len(indices):]


def _gram_entries(cfg, family, variant, n, ks, ls, budget):
    """Yield (k, l, sum over m of F_k(m) F'_l(m)) for k in ks, l in ls,
    row-major, as one Gram product over the enumerated m.

    Every F_k(m) and F'_l(m) is evaluated once and packed once
    (``algebra.packed_sums``); each entry is then one sum of integer
    products, unpacked once.
    """
    f, polys = _enumerated(cfg, family, variant, n, budget)
    rows = [[f(cfg, k, m).coeffs for m in polys] for k in ks]
    cols = [[f(cfg, l, m, primed=True).coeffs for m in polys] for l in ls]
    for (k, l), codes in zip(product(ks, ls), packed_sums(cfg, rows, cols)):
        yield k, l, Poly(cfg, codes)


def _primed_values_match(cfg, n, values, primed):
    """Whether F'_l = sum over D a subset of max(l) of
    (-1)**|D| F_{l - (q-1) 1_D} at every m, where max(l) is the set of
    positions of l's digits equal to q - 1: F' by its definition, from the
    tabulated F.

    Each row of codes is one string, every value padded to a common
    length, packed once; a subset sum is one sum of packed ints, a
    negative term p - 1 times its int, unpacked once.  An l with no
    maximal digit is compared with its unprimed string byte for byte.
    """
    q, p = cfg.q, cfg.p
    length = max(map(len, chain.from_iterable(chain(values, primed))), default=0)

    def string(row):
        return b"".join(bytes(c).ljust(length, b"\0") for c in row)

    strings = [string(row) for row in values]
    width = slot_width(cfg, 2 ** n, 1)
    packed = [pack(cfg, s, width) for s in strings]
    for l, row in enumerate(primed):
        terms = [(l, 1)]
        for t in range(n):
            unit = q ** t
            if l // unit % q == q - 1:
                terms += [(i - (q - 1) * unit, p - w) for i, w in terms]
        want = string(row)
        if len(terms) == 1:
            if want != strings[l]:
                return False
        elif unpack(cfg, sum(w * packed[i] for i, w in terms), width) != \
                want.rstrip(b"\0"):
            return False
    return True


def _power_sums_match(cfg, n, values):
    """Whether every power sum S(s) = sum over m of prod_t b_t(m)**s_t,
    s in [0, 2q - 2]**n, is (-1)**n when every s_t is q - 1 or 2q - 2
    and 0 otherwise; b_t is E_t (CARLITZ) or D_t (DIGIT).

    S(s) is the packed sum of F_k(m) F_l(m), both unprimed, with
    k_t = min(s_t, q - 1) and l_t = s_t - k_t.  Expanding F' by its
    definition, each Gram entry sum_m F_k(m) F'_l(m) is a signed sum of
    the S(k + l - (q - 1) 1_D), D a subset of max(l), as F_a F_b depends
    on the digitwise sum a + b only for the digit products of eval_G and
    eval_D.  That map from the S to the Gram entries is unitriangular over
    subsets: with the primed values checked, all S match their closed
    form exactly when all q**(2n) Gram entries match theirs.
    """
    q = cfg.q
    length = max(map(len, chain.from_iterable(values)), default=0)
    width = slot_width(cfg, len(values[0]), length)
    packed = [[pack(cfg, c, width) for c in row] for row in values]
    one = bytes([cfg.sign(n)])
    for s in product(range(2 * q - 1), repeat=n):
        k = l = 0
        closed = True
        for t, st in enumerate(s):
            kt = min(st, q - 1)
            k += kt * q ** t
            l += (st - kt) * q ** t
            closed = closed and st % (q - 1) == 0 and st > 0
        total = unpack(cfg, sum(map(mul, packed[k], packed[l])), width)
        if total != (one if closed else b""):
            return False
    return True


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
    scaling law over F_q* and, at j = q**m - 1, the signed and x - u forms."""
    return _addition_failure(cfg, family, j, x, u) or VerdictReport(
        "addition_law", _addition_config(cfg, family, j, x, u), VERIFIED)


def _addition_config(cfg, family, j, x, u):
    return {"family": family, "q": cfg.q, "j": j, "x": str(x), "u": str(u)}


def _addition_failure(cfg, family, j, x, u) -> Optional[VerdictReport]:
    """The falsified report of ``check_addition_law``, or None when every
    law holds: the text of x and u goes into a report only on failure."""
    primed = family.endswith("p")
    # Looked up per call: the module globals may be rebound (e.g. wrapped).
    evaluate = {"G": eval_G, "D": eval_D}.get(family.rstrip("p"))
    if evaluate is None:
        raise DomainError(f"unknown family {family!r}")

    def falsified(identity, **witness):
        return _verdict(identity, _addition_config(cfg, family, j, x, u), False,
                        witness=witness)

    f = lambda y: evaluate(cfg, j, y, primed=primed)
    binomials, support = _binomial_row(j, cfg.p)
    convolution = _addition_convolution(cfg, evaluate, primed, j, x, u, support)
    lhs = f(x + u)
    rhs = convolution(binomials)
    if not values_match(lhs, rhs):
        return falsified("addition_law", lhs=str(lhs), rhs=str(rhs))
    fx = f(x)
    for alpha in range(1, cfg.q):
        left = f(x.scalar_mul(alpha))
        right = fx.scalar_mul(cfg.pow(alpha, j))
        if not values_match(left, right):
            return falsified("addition_scaling", alpha=alpha, lhs=str(left),
                             rhs=str(right))
    if j > 0 and _is_q_power(j + 1, cfg.q):
        signed = convolution([cfg.sign(e) for e in support])
        if not values_match(lhs, signed):
            return falsified("addition_sign_form", lhs=str(lhs), rhs=str(signed))
        diff_lhs = f(x - u)
        diff_rhs = convolution([1] * len(support))
        if not values_match(diff_lhs, diff_rhs):
            return falsified("addition_diff_form", lhs=str(diff_lhs),
                             rhs=str(diff_rhs))
    return None


@lru_cache(maxsize=None)
def _binomial_row(j, p):
    """The binomials C(j, e) mod p that are nonzero, and their e <= j, in
    order of e: F_e(x) F'_{j-e}(u) is formed for each such e.  At
    j = q**m - 1 that is every e <= j, as the signed and x - u forms need.
    """
    binomials = [lucas_binom(j, e, p) for e in range(j + 1)]
    support = tuple(e for e, c in enumerate(binomials) if c)
    return tuple(binomials[e] for e in support), support


def _addition_convolution(cfg, evaluate, primed, j, x, u, support):
    """The map from weights w (one integer in [0, p) per e in ``support``,
    read as an element of F_p) to sum over e of w_e F_e(x) F'_{j-e}(u), a
    Poly; F is ``evaluate`` (eval_G or eval_D), primed on u as asked.

    Each product F_e(x) F'_{j-e}(u) is formed once, as the integer product
    of the packed factors, and each sum as the integer-weighted sum of
    those products, unpacked once.  A weight multiplies every slot by at
    most p - 1, so the slot bound counts len(support) * (p - 1) terms.
    """
    left = [evaluate(cfg, e, x).coeffs for e in support]
    right = [evaluate(cfg, j - e, u, primed=primed).coeffs for e in support]
    length = max(map(min, map(len, left), map(len, right)), default=0)
    width = slot_width(cfg, len(support) * (cfg.p - 1), length)
    products = [pack(cfg, a, width) * pack(cfg, b, width)
                for a, b in zip(left, right)]

    def convolution(weights):
        return Poly(cfg, unpack(cfg, sum(map(mul, weights, products)), width))

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
    offenders = []
    for j, c in enumerate(exp.coeffs):
        if _is_q_power(j, cfg.q):
            continue
        if not _is_zero(c):
            offenders.append(j)
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


def _is_zero(val) -> bool:
    """Zero as a Poly, or zero to precision as a series."""
    if isinstance(val, Poly):
        return val.is_zero
    return val.is_zero_to_prec


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
    mod T^P, on T^i + O(T^(n+P)); for Eq_vs_E, the Frobenius of the first
    ceil(P / q) digits of E_n."""
    x = (Poly.monomial(cfg, i) if P is None
         else TruncSeries.monomial(cfg, i, 1, n + P))
    if pair == "Dq_vs_D":
        return powered_D(cfg, n, m, x), hasse_derivative(cfg, n, x)
    ev = eval_E(cfg, n, x) if P is None else _E_mod(cfg, n, i, P, eval_E)
    if pair == "E_vs_D":
        return ev, hasse_derivative(cfg, n, x)
    return (ev if P is None else ev.truncate(-(-P // cfg.q))).frobenius(1), ev


@lru_cache(maxsize=1024)
def _E_mod(cfg: FieldConfig, n: int, i: int, P: int, evaluate) -> TruncSeries:
    """E_n(T^i) mod T^P by ``evaluate`` (``eval_E`` or a stand-in), read
    from T^i + O(T^(n+P)), since E_n loses n digits; kept for the next
    reader, as E_vs_D and Eq_vs_E read the same values.  The tower of
    T^i + O(T^(n+P)) holds them too, but a hit here also skips building
    that point and looking it up: without this cache the distance job of
    the benchmark's exact-tower workload took 16% longer."""
    return evaluate(cfg, n, TruncSeries.monomial(cfg, i, 1, n + P))


def _distance_failure(config, n, i, fv, gv, diff):
    """The falsified ``basis_distance`` report at T^i, or None."""
    v = diff.valuation
    if v is not None and v < 1:
        return _verdict("basis_distance", config, False,
                        witness={"i": i, "difference": str(diff), "valuation": v})
    if i == n and not values_match(gv, Poly.one(diff.cfg)):
        return _verdict("basis_distance_delta", config, False,
                        witness={"i": i, "value": str(gv)})
    if i < n and not (_is_zero(fv) and _is_zero(gv)):
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
        nv = valuation_norm(v)
        if nv.v is not None and nv.v < 0:
            return _verdict("power_criterion", config, False,
                            witness={"x": str(x), "f(x)": str(v),
                                     "reason": "value escapes O"})
        diff = v.frobenius(m) - v
        nd = valuation_norm(diff)
        if nd.v is not None and nd.v < 1:
            return _verdict("power_criterion", config, False,
                            witness={"x": str(x), "difference": str(diff)})
    return VerdictReport("power_criterion", config, VERIFIED)


def check_reduced_basis(cfg: FieldConfig, n_max: int) -> VerdictReport:
    """The matrices [reduced E_i(T^j)] and [reduced D_i(T^j)] for i, j < n_max
    coincide and are unitriangular, so the reductions are independent over F_q.

    E_i is read mod T (``_E_mod``), so no value of degree q**i j is formed
    (no degree budget at any q)."""
    config = {"q": cfg.q, "n_max": n_max}
    mat_E = [[_E_mod(cfg, i, j, 1, eval_E).coeff(0)
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
    from . import transforms as tf

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
            j_max = min(cfg.q ** 3, budget)
            for family in ("G", "Gp", "D", "Dp"):
                bad = None
                for j in range(j_max):
                    for _ in range(3):
                        x = random_poly(cfg, rng, 3)
                        u = random_poly(cfg, rng, 3)
                        bad = _addition_failure(cfg, family, j, x, u)
                        if bad:
                            break
                    if bad:
                        break
                reports.append(bad or VerdictReport(
                    "addition_law", {"family": family, "q": cfg.q,
                                     "j_max": j_max, "seed": seed}, VERIFIED))
        elif sel == "linearity":
            # The whole corpus is expanded at once, sharing the weights.
            J = min(cfg.q ** 3, 32)
            corpus = _linearity_corpus(cfg)
            expansions = tf._enumeration_coeffs(
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
            from .transforms import E_func, G_func, constant_func
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
    from .transforms import (D_func, Dj_func, E_func, G_func, add_func,
                             constant_func, frobenius_func, identity_func,
                             monomial_func, scale_func)

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
