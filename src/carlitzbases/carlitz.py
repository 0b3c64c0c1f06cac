"""The Carlitz tower: brackets, factorials, linear polynomials, digit products.

Everything here is exact on F_q[T] inputs.  E_n is evaluated on
polynomials and truncated series alike by the bracket recurrence
E_k = (E_{k-1}**q - E_{k-1}) / [k]; the linear polynomials e_n and the
factorials F_n are the paper's objects and the tests' oracle
E_n = e_n / F_n, not an evaluation path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .algebra import (
    EXACT,
    BudgetError,
    DomainError,
    FieldConfig,
    InexactDivisionError,
    Poly,
    PrecisionError,
    TruncSeries,
    Value,
)

# Degrees grow like q**n; keep exact products desk-scale.
DEGREE_BUDGET = 1 << 16


@dataclass(frozen=True)
class DigitIndex:
    """Base-q digit decomposition of a non-negative index, little-endian."""

    j: int
    digits: Tuple[int, ...]

    @classmethod
    def of(cls, j: int, q: int) -> "DigitIndex":
        if j < 0:
            raise DomainError("digit index must be non-negative")
        digits = []
        k = j
        while k:
            digits.append(k % q)
            k //= q
        return cls(j, tuple(digits))


@dataclass(frozen=True)
class LinearPolynomial:
    """An F_q-linear polynomial sum(c_i * x**(q**i)) with F_q[T] coefficients."""

    cfg: FieldConfig
    terms: Tuple[Tuple[int, Poly], ...]  # (i, c_i), indices strictly increasing

    def __call__(self, x: Value) -> Value:
        out = None
        for i, c in self.terms:
            term = c * x.frobenius(i)
            out = term if out is None else out + term
        if out is None:
            return Poly.zero(self.cfg) if isinstance(x, Poly) else TruncSeries.zero(self.cfg)
        return out


@lru_cache(maxsize=None)
def bracket(cfg: FieldConfig, n: int) -> Poly:
    """[n] = T**(q**n) - T; defined for n >= 1 only."""
    if n < 1:
        raise DomainError("[n] is defined for n >= 1")
    if cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError(f"deg [n] = q**{n} exceeds the degree budget")
    coeffs = [0] * (cfg.q ** n + 1)
    coeffs[1] = cfg.neg_one
    coeffs[-1] = 1
    return Poly(cfg, coeffs)


@lru_cache(maxsize=None)
def carlitz_F(cfg: FieldConfig, n: int) -> Poly:
    """F_n = [n] * [n-1]**q * ... * [1]**(q**(n-1)); F_0 = 1."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return Poly.one(cfg)
    if cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError("F_n degree budget exceeded")
    return bracket(cfg, n) * carlitz_F(cfg, n - 1).frobenius(1)


@lru_cache(maxsize=None)
def carlitz_L(cfg: FieldConfig, n: int) -> Poly:
    """L_n = [n] * [n-1] * ... * [1]; L_0 = 1."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return Poly.one(cfg)
    return bracket(cfg, n) * carlitz_L(cfg, n - 1)


def digit_factorial(cfg: FieldConfig, j: int) -> Poly:
    """g_j = prod F_n**(digit_n of j); the function-field factorial analogue."""
    out = Poly.one(cfg)
    for n, a in enumerate(DigitIndex.of(j, cfg.q).digits):
        if a:
            out = out * carlitz_F(cfg, n) ** a
    return out


@lru_cache(maxsize=None)
def e_poly(cfg: FieldConfig, n: int) -> LinearPolynomial:
    """e_n as a linear polynomial: coefficient of x**(q**i) is
    (-1)**(n-i) * F_n / (F_i * L_{n-i}**(q**i)), an exact division in F_q[T].
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return LinearPolynomial(cfg, ((0, Poly.one(cfg)),))
    if cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError("e_n degree budget exceeded")
    Fn = carlitz_F(cfg, n)
    terms = []
    for i in range(n + 1):
        denom = carlitz_F(cfg, i) * carlitz_L(cfg, n - i).frobenius(i)
        c = Fn.exact_div(denom)
        if (n - i) % 2:
            c = -c
        terms.append((i, c))
    return LinearPolynomial(cfg, tuple(terms))


def eval_E(cfg: FieldConfig, n: int, x: Value) -> Value:
    """E_n(x) = e_n(x) / F_n by the bracket recurrence from E_0(x) = x:

        E_k(x) = (E_{k-1}(x)**q - E_{k-1}(x)) / [k],   k = 1, ..., n,

    which follows from F_k = [k] F_{k-1}**q.  Polynomial and exact-series
    inputs give exact values, of degree q**n deg(x), and raise BudgetError
    when q**n exceeds DEGREE_BUDGET; a truncated series of precision N > n
    gives precision N - n, one digit per step, the same loss as D_n, and
    has no degree budget because no digit at or past T**N is formed.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if isinstance(x, Poly):
        return _eval_E_poly(cfg, n, x)
    if x.coeffs and x.v < 0:
        raise DomainError("E_n is only evaluated on O (v >= 0)")
    if n == 0:
        return x
    if x.prec == EXACT:
        return _eval_E_poly(cfg, n, x.to_poly()).to_series()
    if x.prec <= n:
        raise PrecisionError(f"E_{n} needs input precision > {n}, got {x.prec}")
    return _bracket_recurrence(cfg, n, x)


@lru_cache(maxsize=None)
def _eval_E_poly(cfg: FieldConfig, n: int, x: Poly) -> Poly:
    if cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError(f"E_{n} degree budget exceeded")
    return _bracket_recurrence(cfg, n, x)


def _bracket_recurrence(cfg: FieldConfig, n: int, y: Value) -> Value:
    for k in range(1, n + 1):
        y = _div_bracket(cfg, k, y.frobenius(1) - y)
    return y


def _div_bracket(cfg: FieldConfig, k: int, z: Value) -> Value:
    """z / [k] for z with v(z) >= 1, as -(z/T) / (1 - T**s), s = q**k - 1.

    The geometric factor is one strided prefix sum.  A Poly quotient must
    be exact: a nonzero constant term or a nonzero top-s digit of the
    prefix sum raises InexactDivisionError.  A truncated series loses the
    one digit that the division by T costs.
    """
    s = cfg.q ** k - 1
    exact = isinstance(z, Poly)
    if exact:
        digits, size = z.coeffs, max(z.degree, 0)
    else:
        digits, size = (0,) * z.v + z.coeffs, z.prec - 1
    u = list(digits[1:size + 1])
    u += [0] * (size - len(u))
    add = cfg.add_table
    for i in range(s, size):
        u[i] = add[u[i]][u[i - s]]
    neg = cfg.neg_table
    if not exact:
        return TruncSeries(cfg, 0, (neg[c] for c in u), size)
    top = max(size - s, 0)
    if any(digits[:1]) or any(u[top:]):
        raise InexactDivisionError(f"division by [{k}] left a remainder")
    return Poly(cfg, (neg[c] for c in u[:top]))


def eval_G(cfg: FieldConfig, j: int, x: Value, primed: bool = False) -> Value:
    """Digit product of Carlitz linear polynomials: G_j or G'_j.

    Unprimed: prod E_n(x)**a_n over the base-q digits a_n of j.  Primed:
    a maximal digit a_n = q-1 contributes E_n(x)**a_n - 1 instead.
    G_0 = G'_0 = 1.
    """
    if isinstance(x, Poly):
        return _eval_G_poly(cfg, j, x, primed)
    return _digit_product(cfg, j, x, primed, eval_E)


@lru_cache(maxsize=None)
def _eval_G_poly(cfg: FieldConfig, j: int, x: Poly, primed: bool) -> Poly:
    return _digit_product(cfg, j, x, primed, eval_E, _eval_G_poly)


def _digit_product(cfg, j, x, primed, base, cached=None):
    """prod base(cfg, n, x)**a_n over the base-q digits a_n of j, primed as
    in ``eval_G``, in prefix form F_j = F_{j - a q**t} * F_{a q**t}: a is
    the top digit of j, at position t, and the one-digit value F_{a q**t}
    is the digit power base(cfg, t, x)**a, less 1 for a primed maximal
    digit.  The factors multiply from the lowest digit up,
    ((F_{a_0} * F_{a_1 q}) * F_{a_2 q**2}) ..., one product per digit past
    the first.

    ``cached`` (the evaluator's cache, for a Poly x) supplies both factors,
    so each index costs one product and each digit power is formed once
    per point; without it (a series x) both are formed again.
    """
    if j < 0:
        raise DomainError("digit index must be non-negative")
    if j == 0:
        one = Poly.one(cfg)
        return one if isinstance(x, Poly) else one.to_series()
    if cached is None:
        def cached(cfg, k, x, primed):
            return _digit_product(cfg, k, x, primed, base)
    q, t, unit = cfg.q, 0, 1
    while unit * q <= j:
        t, unit = t + 1, unit * q
    a, rest = divmod(j, unit)
    if rest:
        return cached(cfg, rest, x, primed) * cached(cfg, j - rest, x, primed)
    if not primed:
        return base(cfg, t, x) ** a
    power = cached(cfg, j, x, False)
    return power - Poly.one(cfg) if a == q - 1 else power
