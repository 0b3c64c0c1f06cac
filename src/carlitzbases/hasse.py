"""Hasse hyper-derivatives D_n, digit derivatives D_j / D'_j, and q**m powers.

D_n maps sum(a_i T**i) to sum(C(i, n) a_i T**(i-n)) with binomials taken
mod p; it loses exactly n digits of precision on truncated input and is
exact on polynomials.
"""
from __future__ import annotations

from .algebra import (
    DomainError,
    FieldConfig,
    Poly,
    PrecisionError,
    TruncSeries,
    Value,
    lucas_binom,
)
from .carlitz import _digit_product, _maximal
from .towers import TOWERS


def hasse_derivative(cfg: FieldConfig, n: int, x: Value) -> Value:
    if n < 0:
        raise DomainError("derivative order must be non-negative")
    tower = TOWERS.tower(cfg, x)
    value = tower.D.get(n)
    if value is not None:
        TOWERS.hits += 1
        return value
    if isinstance(x, Poly):
        if n == 0:
            return x
        value = Poly(cfg, _hasse_digits(cfg, n, n, x.coeffs[n:]))
    else:
        if x.coeffs and x.v < 0:
            raise DomainError("D_n is only evaluated on O (v >= 0)")
        if n == 0:
            return x
        if x.prec <= n:  # never for an exact series
            raise PrecisionError(f"D_{n} needs input precision > {n}, got {x.prec}")
        # Digits below T**n vanish by Lucas; the constructor strips them.
        value = TruncSeries(cfg, x.v - n, _hasse_digits(cfg, n, x.v, x.coeffs),
                            x.prec - n)
    tower.D[n] = value
    TOWERS.charge(tower, value)
    return value


def _hasse_digits(cfg: FieldConfig, n: int, v: int, coeffs) -> list:
    """D_n on the window sum_k coeffs[k] T**(v+k): the digit C(i, n) a_i of
    T**(i-n) for each i = v + k, binomials mod p from ``_binomial_row``."""
    mul = cfg.mul_table
    row = _binomial_row(n, cfg.p, v + len(coeffs))
    return [mul[b][a] for b, a in zip(row[v:], coeffs)]


_BINOMIAL_ROWS = {}


def _binomial_row(n: int, p: int, size: int) -> bytes:
    """C(i, n) mod p for i < size (at least), by Lucas: one row per (n, p),
    extended when a longer window asks for it."""
    row = _BINOMIAL_ROWS.get((n, p), b"")
    if len(row) < size:
        row += bytes(lucas_binom(i, n, p) for i in range(len(row), size))
        _BINOMIAL_ROWS[n, p] = row
    return row


def eval_D(cfg: FieldConfig, j: int, x: Value, primed: bool = False) -> Value:
    """Digit derivative D_j or D'_j: the base-q digit product of the D_n.

    D_0 = D'_0 = 1 (the constant function); exact on polynomial input.
    """
    if j < 0:
        raise DomainError("digit index must be non-negative")
    tower = TOWERS.tower(cfg, x)
    if tower.Dj is None:
        tower.Dj = ({}, {})
    return _digit_product(cfg, tower, tower.Dj, hasse_derivative, j,
                          primed and _maximal(cfg.q, j))


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
