"""Independent reference values for the benchmark's series outputs.

A series output of E_n, G_j or D_j at a truncated input x is checked digit
by digit against the exact evaluation at the input's polynomial
truncation x_poly, on every digit the output claims to know.  Any
completion of x gives the same known digits, so the check stays valid when
a later change raises the output precision.

E_n(x_poly) is computed here without the library's evaluators: from
F_q-linearity, E_n(x_poly) = sum_k x_k E_n(T^k), and the table E_n(T^k)
comes from the Carlitz difference identity

    E_n(T y) = T E_n(y) + E_{n-1}(y)^q,   E_0(T^k) = T^k,   E_n(1) = 0 (n >= 1),

all modulo T^P.  Field arithmetic uses only the FieldConfig lookup tables.
Truncated polynomials are lists of field codes, constant term first.
"""
from __future__ import annotations

import math


def _axpy(cfg, acc, c, y):
    """acc += c * y in place, over the common length."""
    add, row = cfg.add_table, cfg.mul_table[c]
    for i, b in enumerate(y[:len(acc)]):
        if b:
            acc[i] = add[acc[i]][row[b]]


def mul_trunc(cfg, a, b, P):
    """a * b mod T^P."""
    out = [0] * P
    add, mul = cfg.add_table, cfg.mul_table
    for i, x in enumerate(a[:P]):
        if x:
            row = mul[x]
            for j, y in enumerate(b[:P - i]):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return out


def pow_trunc(cfg, a, k, P):
    out = [1] + [0] * (P - 1)
    for _ in range(k):
        out = mul_trunc(cfg, out, a, P)
    return out


def e_table(cfg, n_max, N, P):
    """table[n][k] = E_n(T^k) mod T^P for n <= n_max and k < N."""
    q = cfg.q
    table = [[[0] * P for _ in range(N)] for _ in range(n_max + 1)]
    for k in range(min(N, P)):
        table[0][k][k] = 1
    for n in range(1, n_max + 1):
        for k in range(N - 1):
            nxt = table[n][k + 1]
            cur = table[n][k]
            nxt[1:] = cur[:P - 1]
            prev = table[n - 1][k]
            for i, c in enumerate(prev[:(P - 1) // q + 1]):
                if c:
                    nxt[i * q] = cfg.add_table[nxt[i * q]][c]
    return table


def base_q_digits(j, q):
    digits = []
    while j:
        digits.append(j % q)
        j //= q
    return digits


class SeriesOracle:
    """Exact E_n, G_j and D_j of one polynomial truncation, mod T^P."""

    def __init__(self, cfg, x_coeffs, n_max, P):
        self.cfg, self.x, self.P = cfg, list(x_coeffs), P
        table = e_table(cfg, n_max, len(self.x), P)
        self.E = []
        for n in range(n_max + 1):
            acc = [0] * P
            for k, c in enumerate(self.x):
                if c:
                    _axpy(cfg, acc, c, table[n][k])
            self.E.append(acc)

    def hasse(self, n):
        """D_n(x_poly) mod T^P: sum C(i, n) x_i T^(i-n), binomials mod p."""
        p = self.cfg.p
        out = [0] * self.P
        for i in range(n, min(len(self.x), self.P + n)):
            c = self.x[i]
            b = _lucas(i, n, p)
            if c and b:
                out[i - n] = self.cfg.mul_table[b][c]
        return out

    def digit_product(self, j, base):
        out = [1] + [0] * (self.P - 1)
        for n, a in enumerate(base_q_digits(j, self.cfg.q)):
            if a:
                out = mul_trunc(self.cfg, out, pow_trunc(self.cfg, base(n), a,
                                                         self.P), self.P)
        return out

    def value(self, kind, idx):
        if kind == "E":
            return self.E[idx]
        if kind == "G":
            return self.digit_product(idx, lambda n: self.E[n])
        if kind == "D":
            return self.digit_product(idx, self.hasse)
        raise ValueError(f"unknown basis kind {kind!r}")


def _lucas(a, b, p):
    out = 1
    while b:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = out * math.comb(da, db) % p
        a //= p
        b //= p
    return out


def series_mismatch(out, expected):
    """First digit below out.prec where a series output and the oracle differ.

    Returns None when they agree on every digit the output claims to know.
    ``expected`` must hold at least out.prec digits.
    """
    if out.coeffs and out.v < 0:
        return out.v
    for i in range(int(out.prec)):
        if out.coeff(i) != expected[i]:
            return i
    return None
