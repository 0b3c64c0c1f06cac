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
        # Digits below T**n vanish by Lucas: the window starts at T**n at
        # the lowest.
        v = max(x.v, n)
        value = TruncSeries(cfg, v - n, _hasse_digits(cfg, n, v, x.coeffs[v - x.v:]),
                            x.prec - n)
    tower.D[n] = value
    TOWERS.charge(tower, value)
    return value


def _hasse_digits(cfg: FieldConfig, n: int, v: int, coeffs) -> list:
    """D_n on the window sum_k coeffs[k] T**(v+k), v >= n: the digit
    C(i, n) a_i of T**(i-n) for each i = v + k, binomials mod p from
    ``_binomial_row``; an empty window (a value of degree < n) builds no
    row."""
    mul = cfg.mul_table
    row = _binomial_row(n, cfg.p, v - n + len(coeffs))
    return [mul[b][a] for b, a in zip(row[v - n:], coeffs)]


_BINOMIAL_ROWS = {}


def _binomial_row(n: int, p: int, size: int) -> bytes:
    """C(n + k, n) mod p for k < size (at least), by Lucas: one row per
    (n, p), from i = n on (C(i, n) = 0 below), extended when a longer
    window asks for it."""
    row = _BINOMIAL_ROWS.get((n, p), b"")
    if len(row) < size:
        row += bytes(lucas_binom(n + k, n, p) for k in range(len(row), size))
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
