"""The Carlitz tower: brackets, factorials, linear polynomials, digit products.

Everything here is exact on F_q[T] inputs.  E_n is evaluated on
polynomials and truncated series alike by the bracket recurrence
E_k = (E_{k-1}**q - E_{k-1}) / [k], each step a doubling scan over ints
(``algebra.difference_scan``, called by ``_bracket_step``), and each level
kept in the point's tower (``towers``, the one cache of basis values);
the linear polynomials e_n and the factorials F_n are the paper's objects
and the tests' oracle E_n = e_n / F_n, not an evaluation path.
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
    _spread,
    difference_scan,
)
from .towers import TOWERS

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
    when q**n exceeds DEGREE_BUDGET.  A truncated series of precision
    N > n gives precision N - n, one digit per step, the same loss as D_n,
    and has no degree budget because no digit at or past T**N is formed.
    Each level is kept in the point's tower (``towers``), one step from
    the level below.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    tower = TOWERS.tower(cfg, x)
    levels = tower.E
    if n < len(levels):
        TOWERS.hits += 1
        return levels[n]
    if not isinstance(x, Poly):
        if x.coeffs and x.v < 0:
            raise DomainError("E_n is only evaluated on O (v >= 0)")
        if 0 < n and x.prec <= n:  # never for an exact series
            raise PrecisionError(f"E_{n} needs input precision > {n}, got {x.prec}")
    if (isinstance(x, Poly) or x.prec == EXACT) and cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError(f"E_{n} degree budget exceeded")
    if not levels:
        levels.append(x)  # counted with its tower
    while len(levels) <= n:
        levels.append(_bracket_step(cfg, len(levels), levels[-1]))
        TOWERS.charge(tower, levels[-1])
    return levels[n]


def _bracket_step(cfg: FieldConfig, k: int, y: Value) -> Value:
    """(y**q - y) / [k] = (y - y**q) / T * (1 + T**s + T**(2s) + ...) for
    s = q**k - 1, since [k] = -T (1 - T**s): one step of the recurrence,
    its ``size`` coefficients formed by ``algebra.difference_scan``.

    An exact quotient (Poly or exact series, v >= 0) must be exact:
    ``size`` is deg(y**q - y), and a nonzero digit at or past size - s
    raises InexactDivisionError.  A truncated series of precision N gives
    precision N - 1.
    """
    q = cfg.q
    s = q ** k - 1
    codes = y.coeffs
    v = 0 if isinstance(y, Poly) else y.v
    exact = isinstance(y, Poly) or y.prec == EXACT
    size = max(q * (v + len(codes) - 1), 0) if exact else y.prec - 1
    out = difference_scan(cfg, codes, v, size, s)
    if exact and len(out) > max(size - s, 0):
        raise InexactDivisionError(f"division by [{k}] left a remainder")
    if isinstance(y, Poly):
        return Poly(cfg, out)
    return TruncSeries(cfg, 0, out, EXACT if exact else size)


def eval_G(cfg: FieldConfig, j: int, x: Value, primed: bool = False) -> Value:
    """Digit product of Carlitz linear polynomials: G_j or G'_j.

    Unprimed: prod E_n(x)**a_n over the base-q digits a_n of j.  Primed:
    a maximal digit a_n = q-1 contributes E_n(x)**a_n - 1 instead.
    G_0 = G'_0 = 1.
    """
    if j < 0:
        raise DomainError("digit index must be non-negative")
    tower = TOWERS.tower(cfg, x)
    if tower.G is None:
        tower.G = ({}, {})
    return _digit_product(cfg, tower, tower.G, eval_E, j, primed and _maximal(cfg.q, j))


def _maximal(q: int, j: int) -> bool:
    """Whether some base-q digit of j is q - 1; without one F'_j = F_j, so
    the evaluators look a primed j up as unprimed and cache it once."""
    while j > 0 and j % q != q - 1:
        j //= q
    return j > 0


def _digit_product(cfg, tower, tables, base, j, primed):
    """prod base(cfg, n, x)**a_n over the base-q digits a_n of j >= 0 at
    the tower's point x, base being eval_E or hasse_derivative, primed as
    in ``eval_G`` (``primed`` only when j has a maximal digit), in prefix
    form F_j = F_{j - a q**t} * F_{a q**t}: a is the top digit of j, at
    position t.  The factors multiply from the lowest digit up,
    ((F_{a_0} * F_{a_1 q}) * F_{a_2 q**2}) ..., one product per digit past
    the first.

    The one-digit value F_{a q**t} = base(cfg, t, x)**a, less 1 for a
    primed maximal digit, is formed from a lower one (``_one_digit``): a
    digit at a fresh point costs at most the a.bit_length() + popcount(a)
    - 2 products of binary powering, and the digits 1 .. q - 1 in
    ascending order one product for each a >= 2 with p not dividing a.
    Values and precisions are those of base(cfg, t, x)**a.

    ``tables`` (the tower's unprimed and primed values of the family)
    supply the factors and keep the result, so each index costs at most
    one product and each one-digit value is formed once per point.
    """
    table = tables[primed]
    out = table.get(j)
    if out is not None:
        TOWERS.hits += 1
        return out
    if j == 0:
        out = Poly.one(cfg)
        if not isinstance(tower.x, Poly):
            out = out.to_series()
    else:
        q, t, unit = cfg.q, 0, 1
        while unit * q <= j:
            t, unit = t + 1, unit * q
        a, rest = divmod(j, unit)
        if rest:
            out = (_digit_product(cfg, tower, tables, base, rest,
                                  primed and _maximal(q, rest))
                   * _digit_product(cfg, tower, tables, base, j - rest,
                                    primed and a == q - 1))
        elif primed:  # a == q - 1
            out = _digit_product(cfg, tower, tables, base, j, False) - Poly.one(cfg)
        else:
            out = _one_digit(cfg, tower, table, base, t, unit, a)
    table[j] = out
    TOWERS.charge(tower, out)
    return out


def _one_digit(cfg, tower, table, base, t, unit, a):
    """The unprimed one-digit value F_{a q**t}, unit = q**t, not in
    ``table``: down the chain a -> a/p (p | a), a/2 (other even a), a - 1
    (odd a) to the first value the table holds, or to 1 (F_{q**t}, from
    the table or base(cfg, t, x)), then up by a Frobenius (``_pow_p``, no
    product), a square or a product by F_{q**t}.  The values between are
    not kept: at a fresh point no later call reads them, and keeping them
    cost more than it saved."""
    p, chain = cfg.p, []
    while a > 1 and a * unit not in table:
        chain.append(a)
        a = a // p if a % p == 0 else a // 2 if a % 2 == 0 else a - 1
    one = table.get(unit)
    if one is None:
        one = base(cfg, t, tower.x)
    out = table[a * unit] if a > 1 else one
    for a in reversed(chain):
        if a % p == 0:
            out = _pow_p(cfg, out)
        elif a % 2 == 0:
            out = out * out
        else:
            out = out * one
    return out


def _pow_p(cfg, y: Value) -> Value:
    """y**p by the Frobenius: each code c taken to c**p and moved from
    T**i to T**(p i).  A truncated series keeps the precision of the
    product rule, prec(y) + (p - 1) v(y) (v(y) read as prec(y) when y is
    zero to precision), that of y * y * ... * y, not p prec(y)."""
    p = cfg.p
    coeffs = _spread(y.coeffs.translate(cfg.pow_p_row), p)
    if isinstance(y, Poly):
        return Poly(cfg, coeffs)
    prec = y.prec + (p - 1) * (y.v if y.coeffs else y.prec)
    return TruncSeries(cfg, p * y.v, coeffs, prec)

