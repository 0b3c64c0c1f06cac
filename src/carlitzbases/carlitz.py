"""The Carlitz tower: brackets, factorials, linear polynomials, digit products.

Everything here is exact on F_q[T] inputs.  E_n is evaluated on
polynomials and truncated series alike by the bracket recurrence
E_k = (E_{k-1}**q - E_{k-1}) / [k], each step one pass over packed byte
lanes (``_bracket_step``) and each level cached, polynomials and series
in separate caches; the linear polynomials e_n and the factorials F_n
are the paper's objects and the tests' oracle E_n = e_n / F_n, not an
evaluation path.
"""
from __future__ import annotations

import sys
from array import array
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
    _slot_tables,
)

# Degrees grow like q**n; keep exact products desk-scale.
DEGREE_BUDGET = 1 << 16
# Entries kept by each cache of values at series points (E_n, G_j, D_n,
# D_j); the Poly caches are unbounded.
SERIES_CACHE = 1024


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
    Each level is cached, one step from the level below.
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
    return _eval_E_series(cfg, n, x)


@lru_cache(maxsize=None)
def _eval_E_poly(cfg: FieldConfig, n: int, x: Poly) -> Poly:
    if cfg.q ** n > DEGREE_BUDGET:
        raise BudgetError(f"E_{n} degree budget exceeded")
    if n == 0:
        return x
    return _bracket_step(cfg, n, _eval_E_poly(cfg, n - 1, x))


@lru_cache(maxsize=SERIES_CACHE)
def _eval_E_series(cfg: FieldConfig, n: int, x: TruncSeries) -> TruncSeries:
    if n == 0:
        return x
    return _bracket_step(cfg, n, _eval_E_series(cfg, n - 1, x))


def _bracket_step(cfg: FieldConfig, k: int, y: Value) -> Value:
    """(y**q - y) / [k] = (y - y**q) / T * (1 + T**s + T**(2s) + ...) for
    s = q**k - 1, since [k] = -T (1 - T**s): one step of the recurrence.

    The work is on byte strings.  Each base-p digit of a coefficient has
    its own byte lane (two bytes for p > 128, where one cannot hold the
    sum of two residues), e lanes per coefficient: the digits of y and of
    -y**q are written as strided slices (``bytes.translate`` by the digit
    tables of ``_slot_tables``) into two buffers, read as ints and added;
    a shift by one coefficient divides by T, and the strided prefix sum is
    a doubling scan, acc += acc << (s 2**r coefficients), masked to the
    ``size`` coefficients kept.  A lane is reduced mod p whenever the next
    doubling could overflow it, and the digits go back to codes once.

    A Poly quotient must be exact: ``size`` is deg(y**q - y), and a
    nonzero digit at or past size - s raises InexactDivisionError.  A
    truncated series of precision N gives precision N - 1.
    """
    p, e, q = cfg.p, cfg.e, cfg.q
    s = q ** k - 1
    exact = isinstance(y, Poly)
    codes = bytes(y.coeffs)
    if exact:
        v, size = 0, max(q * (len(codes) - 1), 0)
    else:
        v, size = y.v, y.prec - 1
    item = 1 if p <= 128 else 2
    lanes = e * item  # bytes per coefficient
    length = (size + 1) * lanes
    tables = _slot_tables(cfg, 8)
    spread = codes[:max(size // q + 1 - v, 0)]  # the digits of y**q kept
    low, high = bytearray(length), bytearray(length)
    step = q * lanes
    for t in range(e):
        start = v * lanes + t * item
        low[start:start + len(codes) * lanes:lanes] = codes.translate(tables.digits[t])
        start = q * v * lanes + t * item
        high[start:start + len(spread) * step:step] = spread.translate(tables.negs[t])
    # Lane sums of `held` residues each: reduce before a doubling overflows.
    bits = 8 * lanes
    cap = ((1 << 8 * item) - 1) // (p - 1)
    nbytes = size * lanes
    acc = (int.from_bytes(low, "little") + int.from_bytes(high, "little")) >> bits
    held, span = 2, s
    mask = (1 << size * bits) - 1
    while span < size:
        if 2 * held > cap:
            acc = int.from_bytes(_lanes_mod_p(cfg, acc, nbytes, item), "little")
            held = 1
        acc += (acc << span * bits) & mask
        held, span = 2 * held, 2 * span
    if e == 1:
        out = _lanes_mod_p(cfg, acc, nbytes, item)[::item]
    else:
        data, code = acc.to_bytes(nbytes, "little"), 0
        for t, place in enumerate(tables.places):
            code += int.from_bytes(data[t::e].translate(place), "little")
        out = code.to_bytes(size, "little")
    out = out.rstrip(b"\0")
    if not exact:
        return TruncSeries(cfg, 0, out, size)
    if len(out) > max(size - s, 0):
        raise InexactDivisionError(f"division by [{k}] left a remainder")
    return Poly(cfg, out)


def _lanes_mod_p(cfg: FieldConfig, acc: int, nbytes: int, item: int) -> bytes:
    """The ``nbytes`` bytes of ``acc`` with every lane of ``item`` bytes
    reduced mod p: by ``bytes.translate`` for byte lanes, and one lane at a
    time for the two-byte lanes of p > 128, as ``unpack`` does."""
    data = acc.to_bytes(nbytes, "little")
    if item == 1:
        return data.translate(_slot_tables(cfg, 8).mod_p)
    wide = array("H")
    wide.frombytes(data)
    if sys.byteorder == "big":
        wide.byteswap()
    out = bytearray(nbytes)
    out[::2] = bytes(x % cfg.p for x in wide)
    return out


def eval_G(cfg: FieldConfig, j: int, x: Value, primed: bool = False) -> Value:
    """Digit product of Carlitz linear polynomials: G_j or G'_j.

    Unprimed: prod E_n(x)**a_n over the base-q digits a_n of j.  Primed:
    a maximal digit a_n = q-1 contributes E_n(x)**a_n - 1 instead.
    G_0 = G'_0 = 1.
    """
    primed = primed and _maximal(cfg.q, j)
    if isinstance(x, Poly):
        return _eval_G_poly(cfg, j, x, primed)
    return _eval_G_series(cfg, j, x, primed)


@lru_cache(maxsize=None)
def _eval_G_poly(cfg: FieldConfig, j: int, x: Poly, primed: bool) -> Poly:
    return _digit_product(cfg, j, x, primed, eval_E, _eval_G_poly)


@lru_cache(maxsize=SERIES_CACHE)
def _eval_G_series(cfg: FieldConfig, j: int, x: TruncSeries,
                   primed: bool) -> TruncSeries:
    return _digit_product(cfg, j, x, primed, eval_E, _eval_G_series)


def _maximal(q: int, j: int) -> bool:
    """Whether some base-q digit of j is q - 1; without one F'_j = F_j, so
    the evaluators look a primed j up as unprimed and cache it once."""
    while j > 0 and j % q != q - 1:
        j //= q
    return j > 0


def _digit_product(cfg, j, x, primed, base, cached):
    """prod base(cfg, n, x)**a_n over the base-q digits a_n of j, primed as
    in ``eval_G`` (``primed`` only when j has a maximal digit), in prefix
    form F_j = F_{j - a q**t} * F_{a q**t}: a is the top digit of j, at
    position t, and the one-digit value F_{a q**t} is the digit power
    base(cfg, t, x)**a, less 1 for a primed maximal digit.  The factors
    multiply from the lowest digit up, ((F_{a_0} * F_{a_1 q}) * F_{a_2 q**2})
    ..., one product per digit past the first.

    ``cached`` (the evaluator's cache for the type of x) supplies both
    factors, so each index costs one product and each digit power is
    formed once per point.
    """
    if j < 0:
        raise DomainError("digit index must be non-negative")
    if j == 0:
        one = Poly.one(cfg)
        return one if isinstance(x, Poly) else one.to_series()
    q, t, unit = cfg.q, 0, 1
    while unit * q <= j:
        t, unit = t + 1, unit * q
    a, rest = divmod(j, unit)
    if rest:
        return (cached(cfg, rest, x, primed and _maximal(q, rest))
                * cached(cfg, j - rest, x, primed and a == q - 1))
    if not primed:
        return base(cfg, t, x) ** a
    return cached(cfg, j, x, False) - Poly.one(cfg)  # a == q - 1
