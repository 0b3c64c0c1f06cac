"""Hasse derivations D_n, digit derivatives D_j, and q^m-th powers."""

import random

import pytest

from carlitzbases import (
    DomainError,
    FieldConfig,
    Poly,
    PrecisionError,
    TruncSeries,
    bracket,
    eval_D,
    hasse_derivative,
    lucas_binom,
    parse_poly,
    powered_D,
)
from carlitzbases.algebra import poly_enumerate, random_poly, random_series
from carlitzbases.algebra import EXACT
from carlitzbases.hasse import hasse_on_monomial
from oracles import FIELDS


def test_hasse_examples(f2):
    x = parse_poly(f2, "T^3+T+1")
    assert hasse_derivative(f2, 0, x) == x
    assert hasse_derivative(f2, 1, Poly.monomial(f2, 3)) == Poly.monomial(f2, 2)
    assert hasse_derivative(f2, 1, Poly.monomial(f2, 2)) == Poly.zero(f2)


def test_hasse_monomial_pattern(f3):
    # D_n(T^i) = C(i, n) T^{i-n}: zero for i < n, one at i = n.
    for n in range(6):
        for i in range(12):
            val = hasse_derivative(f3, n, Poly.monomial(f3, i))
            if i < n:
                assert val.is_zero
            elif i == n:
                assert val == Poly.one(f3)
            else:
                c = lucas_binom(i, n, 3)
                assert val == Poly.monomial(f3, i - n, c) if c else val.is_zero
            assert val == hasse_on_monomial(f3, n, i)


@pytest.mark.parametrize("q", [2, 3])
def test_product_rule(q, rng):
    cfg = FieldConfig(q)
    for n in range(7):
        for _ in range(5):
            x = random_series(cfg, rng, 16)
            y = random_series(cfg, rng, 16)
            lhs = hasse_derivative(cfg, n, x * y)
            rhs = None
            for i in range(n + 1):
                t = hasse_derivative(cfg, i, x) * hasse_derivative(cfg, n - i, y)
                rhs = t if rhs is None else rhs + t
            assert lhs.matches(rhs)


@pytest.mark.parametrize("q", [2, 3])
def test_composition_rule(q, rng):
    cfg = FieldConfig(q)
    for n in range(9):
        for m in range(9 - n):
            x = random_poly(cfg, rng, 10)
            lhs = hasse_derivative(cfg, n, hasse_derivative(cfg, m, x))
            c = lucas_binom(n + m, m, q)
            rhs = hasse_derivative(cfg, n + m, x).scalar_mul(c)
            assert lhs == rhs


def test_hasse_linearity(f2, rng):
    for n in range(4):
        x = random_poly(f2, rng, 8)
        y = random_poly(f2, rng, 8)
        assert (hasse_derivative(f2, n, x + y)
                == hasse_derivative(f2, n, x) + hasse_derivative(f2, n, y))


@pytest.mark.parametrize("q,m_max", [(2, 2), (3, 2)])
def test_voloch_identity(q, m_max, rng):
    # x^{q^m} = sum_i [m]^i D_i(x), a finite sum on polynomials.
    cfg = FieldConfig(q)
    for m in range(1, m_max + 1):
        br = bracket(cfg, m)
        for _ in range(5):
            x = random_poly(cfg, rng, 10)
            rhs = Poly.zero(cfg)
            for i in range(x.degree + 2 if x.degree >= 0 else 1):
                rhs = rhs + br ** i * hasse_derivative(cfg, i, x)
            assert x.frobenius(m) == rhs


def test_hasse_domain_and_precision_errors(f2):
    for n in (0, 1):
        with pytest.raises(DomainError):
            hasse_derivative(f2, n, TruncSeries(f2, -2, (1,), 5))
    with pytest.raises(PrecisionError):
        hasse_derivative(f2, 4, TruncSeries(f2, 0, (1, 1), 3))


def test_hasse_series_precision_contract(f2):
    x = TruncSeries(f2, 0, (1, 1, 1, 1, 1, 1, 1, 1), 8)
    y = hasse_derivative(f2, 3, x)
    assert y.prec == 5


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_hasse_series_window_below_n(q, rng):
    # A window starting at 0 < v < n, whose digits below T^n vanish, and
    # the precision edge prec = n + 1 (one known digit out): D_n(x) equals
    # the sum of a_i D_n(T^i) to precision prec - n.  The same window given
    # with leading zeros and with digits past prec (trailing zeros when
    # exact) is the same series.
    cfg = FieldConfig(*FIELDS[q])
    for n in range(2, 7):
        for v in range(1, n):
            for prec in (n + 1, n + 2, 2 * n + 3, EXACT):
                top = 2 * n + 3 if prec == EXACT else prec
                digits = [rng.randrange(1, q)] + [rng.randrange(q)
                                                  for _ in range(v + 1, top)]
                x = TruncSeries(cfg, v, digits, prec)
                tail = [0, 0] if prec == EXACT else [rng.randrange(1, q), 0]
                padded = TruncSeries(cfg, v - 2, [0, 0] + digits + tail, prec)
                assert padded == x and padded.v == v
                expected = Poly.zero(cfg)
                for i, a in enumerate(digits, v):
                    expected = expected + hasse_on_monomial(cfg, n, i).scalar_mul(a)
                for y in (x, padded):
                    assert hasse_derivative(cfg, n, y) == expected.to_series(prec - n)


# ---------------------------------------------------------------------------
# Digit derivatives
# ---------------------------------------------------------------------------

def test_eval_D_examples(f2):
    x = parse_poly(f2, "T^3+T")
    assert eval_D(f2, 0, x) == Poly.one(f2)
    # 3 = 1 + 1*2: D_3(T) = D_0(T) * D_1(T) = T * 1 = T
    assert eval_D(f2, 3, Poly.T(f2)) == Poly.T(f2)
    # D'_1(m) = m - 1 on {0, 1}
    assert eval_D(f2, 1, Poly.zero(f2), primed=True) == Poly.one(f2)
    assert eval_D(f2, 1, Poly.one(f2), primed=True) == Poly.zero(f2)


def test_eval_D_digit_product(f3, rng):
    from carlitzbases import DigitIndex
    for j in (2, 5, 7, 11):
        digits = DigitIndex.of(j, 3).digits
        for _ in range(5):
            x = random_poly(f3, rng, 4)
            prod = Poly.one(f3)
            for n, a in enumerate(digits):
                prod = prod * hasse_derivative(f3, n, x) ** a
            assert eval_D(f3, j, x) == prod


@pytest.mark.parametrize("q", [2, 3])
def test_D_integral_valued(q):
    cfg = FieldConfig(q)
    for m in poly_enumerate(cfg, 3, "deg_lt"):
        for j in range(q ** 3):
            assert isinstance(eval_D(cfg, j, m), Poly)
            assert isinstance(eval_D(cfg, j, m, primed=True), Poly)


# ---------------------------------------------------------------------------
# Powered derivatives
# ---------------------------------------------------------------------------

def test_powered_D_examples(f2, rng):
    x = random_poly(f2, rng, 6)
    assert powered_D(f2, 2, 0, x) == hasse_derivative(f2, 2, x)
    xs = TruncSeries(f2, 1, (1, 1), 8)  # T + T^2
    assert powered_D(f2, 0, 1, xs).matches(parse_poly(f2, "T^4+T^2"))
    assert powered_D(f2, 1, 1, Poly.monomial(f2, 3)) == Poly.monomial(f2, 4)


def test_powered_D_is_frobenius_of_D(f3, rng):
    for n in range(3):
        for m in range(3):
            x = random_poly(f3, rng, 5)
            assert (powered_D(f3, n, m, x)
                    == hasse_derivative(f3, n, x).frobenius(m))


@pytest.mark.parametrize("q", [3, 4, 9])
def test_binomial_row_per_order(monkeypatch, q):
    # D_n reads its binomials C(i, n) mod p from one row per (n, p), from
    # i = n on (below, C(i, n) = 0): a longer window computes only the new
    # ones, and later windows, Poly or series, compute none.  Values equal
    # the one-Lucas-binomial-per-digit oracle.
    from carlitzbases import hasse
    from oracles import hasse_by_digits

    cfg, n = FieldConfig(*FIELDS[q]), 2
    rnd = random.Random(q)
    calls = []
    binom = hasse.lucas_binom
    monkeypatch.setattr(hasse, "lucas_binom",
                        lambda *args: calls.append(args) or binom(*args))
    hasse._BINOMIAL_ROWS.clear()
    hasse.TOWERS.cache_clear()
    for prec, expected in ((20, 18), (12, 0), (41, 21), (30, 0)):
        calls.clear()
        x = TruncSeries(cfg, 0, [rnd.randrange(q) for _ in range(prec - 1)] + [1], prec)
        assert hasse_derivative(cfg, n, x) == hasse_by_digits(cfg, n, x)
        assert len(calls) == expected
    calls.clear()
    x = random_poly(cfg, rnd, 40)
    assert hasse_derivative(cfg, n, x) == hasse_by_digits(cfg, n, x)
    assert calls == []


@pytest.mark.parametrize("q", [2, 3, 9])
def test_derivative_past_the_degree_builds_no_row(q):
    # D_n vanishes on every digit below T**n, so a Poly of degree < n, or a
    # series whose window ends below T**n, gives zero (to precision
    # prec - n) without a binomial row; a window from T**v, v >= n, builds
    # the row of C(i, n) from i = n up to its top only.
    from carlitzbases import hasse
    from oracles import hasse_by_digits

    cfg, n = FieldConfig(*FIELDS[q]), 10 ** 6
    rnd = random.Random(q)
    hasse._BINOMIAL_ROWS.clear()
    hasse.TOWERS.cache_clear()
    x = random_poly(cfg, rnd, 5)
    assert hasse_derivative(cfg, n, x) == Poly.zero(cfg)
    low = TruncSeries(cfg, 2, [1, 2 % q, 1], n + 7)
    assert hasse_derivative(cfg, n, low) == TruncSeries.zero(cfg, 7)
    assert not hasse._BINOMIAL_ROWS.get((n, cfg.p))
    high = TruncSeries(cfg, n + 3, [rnd.randrange(q) for _ in range(4)] + [1], EXACT)
    assert hasse_derivative(cfg, n, high) == hasse_by_digits(cfg, n, high)
    assert len(hasse._BINOMIAL_ROWS[n, cfg.p]) == 3 + 5
