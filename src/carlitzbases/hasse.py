"""Hasse hyper-derivatives D_n, digit derivatives D_j / D'_j, and q**m powers.

D_n maps sum(a_i T**i) to sum(C(i, n) a_i T**(i-n)) with binomials taken
mod p; it loses exactly n digits of precision on truncated input and is
exact on polynomials.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import (
    EXACT,
    DomainError,
    FieldConfig,
    Poly,
    PrecisionError,
    TruncSeries,
    Value,
    lucas_binom,
)
from .carlitz import _digit_product


def hasse_derivative(cfg: FieldConfig, n: int, x: Value) -> Value:
    if n < 0:
        raise DomainError("derivative order must be non-negative")
    if isinstance(x, Poly):
        return _hasse_poly(cfg, n, x)
    if x.coeffs and x.v < 0:
        raise DomainError("D_n is only evaluated on O (v >= 0)")
    if n == 0:
        return x
    if x.prec != EXACT and x.prec <= n:
        raise PrecisionError(f"D_{n} needs input precision > {n}, got {x.prec}")
    # Digits below T**n vanish by Lucas; the constructor strips them.
    return TruncSeries(cfg, x.v - n, _hasse_digits(cfg, n, x.v, x.coeffs), x.prec - n)


@lru_cache(maxsize=None)
def _hasse_poly(cfg: FieldConfig, n: int, x: Poly) -> Poly:
    if n == 0:
        return x
    return Poly(cfg, _hasse_digits(cfg, n, n, x.coeffs[n:]))


def _hasse_digits(cfg: FieldConfig, n: int, v: int, coeffs) -> list:
    """D_n on the window sum_k coeffs[k] T**(v+k): the digit C(i, n) a_i of
    T**(i-n) for each i = v + k, binomials mod p by Lucas."""
    mul, p = cfg.mul_table, cfg.p
    return [mul[lucas_binom(i, n, p)][a] if a else 0
            for i, a in enumerate(coeffs, v)]


def eval_D(cfg: FieldConfig, j: int, x: Value, primed: bool = False) -> Value:
    """Digit derivative D_j or D'_j: the base-q digit product of the D_n.

    D_0 = D'_0 = 1 (the constant function); exact on polynomial input.
    """
    if isinstance(x, Poly):
        return _eval_D_poly(cfg, j, x, primed)
    return _digit_product(cfg, j, x, primed, hasse_derivative)


@lru_cache(maxsize=None)
def _eval_D_poly(cfg: FieldConfig, j: int, x: Poly, primed: bool) -> Poly:
    return _digit_product(cfg, j, x, primed, hasse_derivative, _eval_D_poly)


def powered_D(cfg: FieldConfig, n: int, m: int, x: Value) -> Value:
    """D_n(x)**(q**m), via Frobenius on the derivative."""
    if m < 0:
        raise DomainError("power exponent m must be non-negative")
    return hasse_derivative(cfg, n, x).frobenius(m)


def hasse_on_monomial(cfg: FieldConfig, n: int, i: int) -> Poly:
    """D_n(T**i) = C(i, n) T**(i-n) as an exact polynomial (zero for i < n)."""
    b = lucas_binom(i, n, cfg.p)
    if b == 0 or i < n:
        return Poly.zero(cfg)
    return Poly.monomial(cfg, i - n, b)
