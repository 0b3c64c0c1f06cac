"""Carlitz tower: brackets, factorials, e_n, E_n, and the digit products G_j
(and D_j, which shares their prefix-form evaluation)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitzbases import (
    DigitIndex,
    DomainError,
    FieldConfig,
    Poly,
    TruncSeries,
    bracket,
    carlitz_F,
    carlitz_L,
    digit_factorial,
    e_poly,
    eval_E,
    eval_G,
    parse_poly,
)
from carlitzbases.algebra import poly_enumerate, random_poly, random_series
from carlitzbases.hasse import eval_D, hasse_derivative
from oracles import (
    FIELDS,
    bracket_step_by_digits,
    digit_product_by_digits,
    eval_E_by_steps,
    hasse_by_digits,
    one_digit_by_power,
)


def brute_force_e(cfg, n, x):
    """Oracle: e_n(x) = product of (x - m) over all m with deg(m) < n."""
    out = Poly.one(cfg) if isinstance(x, Poly) else x - x + Poly.one(cfg)
    for m in poly_enumerate(cfg, n, "deg_lt"):
        out = out * (x - m)
    return out


# ---------------------------------------------------------------------------
# Brackets and factorials
# ---------------------------------------------------------------------------

def test_bracket_examples(f2, f3):
    assert bracket(f2, 1) == parse_poly(f2, "T^2+T")
    assert bracket(f2, 2) == parse_poly(f2, "T^4+T")
    assert bracket(f3, 1) == parse_poly(f3, "T^3+2*T")


def test_bracket_zero_is_domain_error(f2):
    with pytest.raises(DomainError):
        bracket(f2, 0)


def test_factorial_examples(f2):
    assert carlitz_F(f2, 0) == Poly.one(f2)
    assert carlitz_L(f2, 0) == Poly.one(f2)
    assert carlitz_F(f2, 1) == bracket(f2, 1)
    assert carlitz_L(f2, 1) == bracket(f2, 1)
    assert carlitz_L(f2, 2) == bracket(f2, 2) * bracket(f2, 1)
    assert carlitz_F(f2, 2) == bracket(f2, 2) * bracket(f2, 1) ** 2


@pytest.mark.parametrize("q,n_max", [(2, 4), (3, 3)])
def test_factorial_products(q, n_max):
    cfg = FieldConfig(q)
    for n in range(1, n_max + 1):
        F = Poly.one(cfg)
        L = Poly.one(cfg)
        for i in range(1, n + 1):
            F = F * bracket(cfg, i) ** (q ** (n - i))
            L = L * bracket(cfg, i)
        assert carlitz_F(cfg, n) == F
        assert carlitz_L(cfg, n) == L
        # v(F_n) = (q^n - 1)/(q - 1)
        assert F.valuation == (q ** n - 1) // (q - 1)


def test_digit_factorial(f2):
    # g_j = prod F_n^{alpha_n} over the base-q digits of j; 5 = 1 + 0*2 + 1*4.
    assert digit_factorial(f2, 5) == carlitz_F(f2, 0) * carlitz_F(f2, 2)
    assert digit_factorial(f2, 0) == Poly.one(f2)


def test_digit_index(f4):
    d = DigitIndex.of(11, 4)
    assert d.digits == (3, 2)
    assert sum(a * 4 ** i for i, a in enumerate(d.digits)) == 11


# ---------------------------------------------------------------------------
# e_n
# ---------------------------------------------------------------------------

def test_e_poly_examples(f2, f3):
    # e_0(x) = x
    e0 = e_poly(f2, 0)
    assert e0.terms == ((0, Poly.one(f2)),)
    # e_1(x) = x^q - x for any q
    for cfg in (f2, f3):
        e1 = e_poly(cfg, 1)
        x = Poly.T(cfg)
        assert e1(x) == x.frobenius(1) - x
    # e_2 over F_2, from the brute-force product over {0, 1, T, T+1}
    e2 = e_poly(f2, 2)
    x = parse_poly(f2, "T^3+1")
    assert e2(x) == (x ** 4 + parse_poly(f2, "T^2+T+1") * x ** 2
                     + parse_poly(f2, "T^2+T") * x)


@pytest.mark.parametrize("q,n_max", [(2, 3), (3, 2), (4, 2)])
def test_e_poly_against_brute_force(q, n_max, rng):
    cfg = FieldConfig(2, 2) if q == 4 else FieldConfig(q)
    for n in range(n_max + 1):
        en = e_poly(cfg, n)
        for _ in range(40):
            x = random_poly(cfg, rng, 4)
            assert en(x) == brute_force_e(cfg, n, x)


@pytest.mark.parametrize("q", [2, 3])
def test_e_recursion(q):
    # e_{n+1}(x) = e_n(x)^q - F_n^{q-1} e_n(x), as an identity on coefficients.
    cfg = FieldConfig(q)
    for n in range(4):
        en, en1 = e_poly(cfg, n), e_poly(cfg, n + 1)
        scale = carlitz_F(cfg, n) ** (q - 1)
        lhs = dict(en1.terms)
        rhs = {}
        for i, c in en.terms:
            rhs[i + 1] = rhs.get(i + 1, Poly.zero(cfg)) + c.frobenius(1)
            rhs[i] = rhs.get(i, Poly.zero(cfg)) - scale * c
        rhs = {i: c for i, c in rhs.items() if not c.is_zero}
        assert lhs == rhs


# ---------------------------------------------------------------------------
# E_n
# ---------------------------------------------------------------------------

def test_eval_E_examples(f2):
    for n in range(5):
        assert eval_E(f2, n, Poly.monomial(f2, n)) == Poly.one(f2)
    assert eval_E(f2, 0, Poly.monomial(f2, 3)) == Poly.monomial(f2, 3)
    assert eval_E(f2, 1, Poly.monomial(f2, 2)) == parse_poly(f2, "T^2+T")


def test_eval_E_cross_identity(f2):
    # E_1(T^2) = T*E_1(T) + E_0(T)^q
    T = Poly.T(f2)
    lhs = eval_E(f2, 1, T * T)
    rhs = T * eval_E(f2, 1, T) + eval_E(f2, 0, T).frobenius(1)
    assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3])
def test_carlitz_step_identities(q, rng):
    cfg = FieldConfig(q)
    # E_n(T^{m+1}) = T E_n(T^m) + E_{n-1}^q(T^m)
    T = Poly.T(cfg)
    for n in range(1, 4):
        for m in range(9):
            tm = Poly.monomial(cfg, m)
            assert (eval_E(cfg, n, Poly.monomial(cfg, m + 1))
                    == T * eval_E(cfg, n, tm)
                    + eval_E(cfg, n - 1, tm).frobenius(1))
    # E_n^q(x) = [n+1] E_{n+1}(x) + E_n(x)
    for n in range(3):
        for _ in range(5):
            x = random_poly(cfg, rng, 4)
            assert (eval_E(cfg, n, x).frobenius(1)
                    == bracket(cfg, n + 1) * eval_E(cfg, n + 1, x)
                    + eval_E(cfg, n, x))


def test_eval_E_linearity(f3, rng):
    for n in range(3):
        for _ in range(10):
            x = random_poly(f3, rng, 4)
            y = random_poly(f3, rng, 4)
            assert eval_E(f3, n, x + y) == eval_E(f3, n, x) + eval_E(f3, n, y)
            for alpha in range(1, 3):
                assert (eval_E(f3, n, x.scalar_mul(alpha))
                        == eval_E(f3, n, x).scalar_mul(alpha))


def test_eval_E_series_path(f2, rng):
    # Truncated input gives the same digits as the exact path.
    for n in range(3):
        x = random_poly(f2, rng, 5)
        exact = eval_E(f2, n, x)
        approx = eval_E(f2, n, x.to_series(24))
        assert approx.matches(exact)


def test_eval_E_precision_and_domain_errors(f2):
    from carlitzbases import PrecisionError, TruncSeries
    # E_n loses n digits: precision n + 1 is the least that leaves one.
    with pytest.raises(PrecisionError):
        eval_E(f2, 3, TruncSeries(f2, 0, (1, 1), 3))
    assert eval_E(f2, 3, TruncSeries(f2, 0, (1, 1), 4)).prec == 1
    for n in (0, 1):
        with pytest.raises(DomainError):
            eval_E(f2, n, TruncSeries(f2, -1, (1,), 8))


def test_eval_E_degree_budget_is_for_exact_values(f2):
    from carlitzbases import BudgetError, TruncSeries
    # 2**17 exceeds the degree budget: exact values raise, truncated ones
    # never form a digit past their precision and are computed.
    with pytest.raises(BudgetError):
        eval_E(f2, 17, Poly.T(f2))
    with pytest.raises(BudgetError):
        eval_E(f2, 17, Poly.T(f2).to_series())
    x = TruncSeries.monomial(f2, 17, 1, 40)
    assert eval_E(f2, 17, x) == TruncSeries.monomial(f2, 0, 1, 23)  # E_n(T^n) = 1


@pytest.mark.parametrize("k", [1, 2])
def test_bracket_step_exact_on_polynomials(f3, rng, k):
    # One step is the exact quotient (y**q - y) / [k]: the textbook
    # E_{k-1}(x) = e_{k-1}(x) / F_{k-1} steps to E_k(x); at k = 1 every y
    # divides ([1] divides every y**q - y), and at k = 2 a remainder raises.
    from carlitzbases import InexactDivisionError
    from carlitzbases.carlitz import _bracket_step
    for _ in range(10):
        x = random_poly(f3, rng, 12)
        y = e_poly(f3, k - 1)(x).exact_div(carlitz_F(f3, k - 1))
        assert _bracket_step(f3, k, y) == e_poly(f3, k)(x).exact_div(carlitz_F(f3, k))
    T = Poly.T(f3)
    if k == 1:
        for y in [random_poly(f3, rng, 12) for _ in range(10)] + [Poly.one(f3)]:
            assert _bracket_step(f3, 1, y) * bracket(f3, 1) == y.frobenius(1) - y
        assert _bracket_step(f3, 1, T) == Poly.one(f3)
    else:
        for bad in (T, T ** 2, eval_E(f3, 1, T ** 5) + T):
            with pytest.raises(InexactDivisionError):
                _bracket_step(f3, k, bad)


# The step's fields: FIELDS, a larger e for p = 2 (the XOR scan) and for
# p = 3, whose packed blocks are widest, and two p > 128, whose slots are
# two bytes wide.
STEP_FIELDS = {**FIELDS, 16: (2, 4), 27: (3, 3), 131: (131, 1), 251: (251, 1)}


def _step_or_error(step, cfg, k, y):
    from carlitzbases import InexactDivisionError
    try:
        return step(cfg, k, y)
    except InexactDivisionError:
        return InexactDivisionError


@given(st.sampled_from(sorted(STEP_FIELDS)), st.data())
@settings(max_examples=120, deadline=None)
def test_bracket_step_matches_digit_loop(q, data):
    # The step (XOR scan for p = 2, packed slots for odd p) against the
    # subtract-and-loop oracle: Poly values E_{k-1}(x) and arbitrary
    # polynomials (equal quotients, or both inexact), and truncated series
    # of valuation 0 or above with precision k + 1 up to 3000 digits, where
    # the slot sums of odd p pass 2**8 and get reduced.
    from carlitzbases.carlitz import _bracket_step
    cfg = FieldConfig(*STEP_FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    k_max = max(k for k in range(1, 9) if q ** k <= 4096)
    k = data.draw(st.integers(1, k_max))
    kind = data.draw(st.sampled_from(("E", "poly", "series")))
    if kind == "E":
        x = random_poly(cfg, rnd, data.draw(st.integers(0, 4)))
        y = eval_E(cfg, k - 1, x)
    elif kind == "poly":
        y = random_poly(cfg, rnd, data.draw(st.integers(0, 60)))
    else:
        prec = data.draw(st.sampled_from((k + 1, k + 2, 40, 300, 1000, 3000)))
        v = data.draw(st.sampled_from((0, 0, 1, 3, prec // 2, prec)))
        y = random_series(cfg, rnd, prec, min(v, prec))
    got = _step_or_error(_bracket_step, cfg, k, y)
    want = _step_or_error(bracket_step_by_digits, cfg, k, y)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("q,k,prec", [(2, 1, 3000), (4, 1, 3000), (8, 1, 3000),
                                      (9, 1, 3000), (16, 1, 3000),
                                      (131, 1, 130 * 600), (251, 1, 250 * 280)])
def test_bracket_step_lane_reductions(q, k, prec):
    # Long prefix sums.  For p = 2 (q = 2, 4, 8, 16) the step XORs the codes
    # as ints, with no slot to overflow.  The slot reductions are covered
    # by odd p: q = 9 reduces its byte slots (at most 127 residues) every 6
    # doublings, through unpack's reduction of each block mod the modulus,
    # and q = 131 and 251 reduce their two-byte slots (at most 504 and 262
    # residues) every 8.  A slot that overflowed would carry into the next
    # one.  Random codes, and codes whose digits are all p - 1, which make
    # the largest slot sums.
    from carlitzbases.carlitz import _bracket_step
    cfg = FieldConfig(*STEP_FIELDS[q])
    for y in (random_series(cfg, random.Random(prec), prec),
              TruncSeries(cfg, 0, bytes([q - 1]) * prec, prec)):
        assert _bracket_step(cfg, k, y) == bracket_step_by_digits(cfg, k, y)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_bracket_step_packs_nothing_for_p_2(monkeypatch, q):
    # For p = 2 the step is an XOR scan on the codes: pack and unpack are
    # never called, on a long series, an exact series and a polynomial.
    from carlitzbases import algebra
    from carlitzbases.carlitz import _bracket_step

    def no_packing(*args):
        raise AssertionError("the p = 2 step packed a value")

    cfg = FieldConfig(*STEP_FIELDS[q])
    rnd = random.Random(q)
    values = (random_series(cfg, rnd, 3000), random_series(cfg, rnd, 40, 2),
              eval_E(cfg, 1, random_poly(cfg, rnd, 5)))
    want = [bracket_step_by_digits(cfg, 2, y) for y in values]
    monkeypatch.setattr(algebra, "pack", no_packing)
    monkeypatch.setattr(algebra, "unpack", no_packing)
    assert [_bracket_step(cfg, 2, y) for y in values] == want


def test_eval_E_poly_one_step_per_level(monkeypatch):
    # From a cold cache E_N(x) takes exactly N steps, each from the cached
    # level below, after which E_0 ... E_N of x are all cache hits; past
    # the degree budget E_17 raises before any step.
    from carlitzbases import BudgetError, carlitz
    cfg, N = FieldConfig(3), 5
    x = parse_poly(cfg, "T^3+2*T+1")
    steps = []
    step = carlitz._bracket_step
    monkeypatch.setattr(carlitz, "_bracket_step",
                        lambda *args: steps.append(args[1]) or step(*args))
    carlitz.TOWERS.cache_clear()
    value = eval_E(cfg, N, x)
    assert steps == list(range(1, N + 1))
    hits = carlitz.TOWERS.cache_info().hits
    assert [eval_E(cfg, n, x) for n in range(N + 1)][-1] == value
    assert carlitz.TOWERS.cache_info().hits == hits + N + 1
    assert steps == list(range(1, N + 1))
    f2 = FieldConfig(2)
    with pytest.raises(BudgetError):
        eval_E(f2, 17, Poly.T(f2))
    assert steps == list(range(1, N + 1))


# The q**n cap keeps the oracle's schoolbook division by F_n, of degree
# n * q**n, fast.
ORACLE_MAX_QN = 81


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_eval_E_matches_textbook_oracle(q, data):
    # The bracket recurrence against the textbook E_n = e_n / F_n.
    cfg = FieldConfig(*FIELDS[q])
    n_max = max(n for n in range(8) if q ** n <= ORACLE_MAX_QN)
    n = data.draw(st.integers(0, n_max))
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))

    def oracle(x):
        return e_poly(cfg, n)(x).exact_div(carlitz_F(cfg, n))

    x = random_poly(cfg, rnd, rnd.randrange(7))
    expected = oracle(x)
    assert eval_E(cfg, n, x) == expected
    assert eval_E(cfg, n, x.to_series()) == expected
    # Truncated input of precision N, down to the edge N = n + 1: output
    # precision N - n, digits those of the exact value at the truncation.
    for N in (n + 1, n + 1 + rnd.randrange(12)):
        s = random_series(cfg, rnd, N)
        out = eval_E(cfg, n, s)
        assert out.prec == N - n
        assert out.matches(oracle(Poly(cfg, (s.coeff(i) for i in range(N)))))


# ---------------------------------------------------------------------------
# G_j and G'_j
# ---------------------------------------------------------------------------

def test_eval_G_examples(f2):
    x = parse_poly(f2, "T^3+T")
    assert eval_G(f2, 0, x) == Poly.one(f2)
    assert eval_G(f2, 0, x, primed=True) == Poly.one(f2)
    # 3 = 1 + 1*2: G_3 = E_0 * E_1; at x = T this is T * 1 = T.
    T = Poly.T(f2)
    assert eval_G(f2, 3, T) == T
    # G'_1(m) = m - 1 over F_2
    assert eval_G(f2, 1, Poly.zero(f2), primed=True) == Poly.one(f2)
    assert eval_G(f2, 1, Poly.one(f2), primed=True) == Poly.zero(f2)


def test_eval_G_digit_product(f3, rng):
    # Unprimed G_j is the plain product of E_n^{alpha_n}.
    for j in (4, 5, 7, 8):
        digits = DigitIndex.of(j, 3).digits
        for _ in range(5):
            x = random_poly(f3, rng, 3)
            prod = Poly.one(f3)
            for n, a in enumerate(digits):
                prod = prod * eval_E(f3, n, x) ** a
            assert eval_G(f3, j, x) == prod


@pytest.mark.parametrize("q", [2, 3])
def test_G_integral_valued(q):
    cfg = FieldConfig(q)
    deg, jmax = (4, q ** 4) if q == 2 else (3, q ** 3)
    for m in poly_enumerate(cfg, deg, "deg_lt"):
        for j in range(jmax):
            assert isinstance(eval_G(cfg, j, m), Poly)
            assert isinstance(eval_G(cfg, j, m, primed=True), Poly)


def test_eval_G_series_matches_exact(f2, rng):
    for j in (3, 5, 6):
        x = random_poly(f2, rng, 4)
        exact = eval_G(f2, j, x)
        approx = eval_G(f2, j, x.to_series(32))
        assert approx.matches(exact)


@pytest.mark.parametrize("evaluate", [eval_G, eval_D])
def test_negative_digit_index_is_domain_error(monkeypatch, f3, evaluate):
    # Polynomial and series inputs, primed or not: the index is refused
    # before any product is formed.
    from carlitzbases import algebra

    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    x = parse_poly(f3, "T^2+2*T+1")
    for value in (x, x.to_series(), x.to_series(12)):
        for primed in (False, True):
            with pytest.raises(DomainError, match="digit index must be non-negative"):
                evaluate(f3, -1, value, primed=primed)
    assert calls == []


def _chain_products(a: int, p: int) -> int:
    """The products that form a one-digit value base**a from a cold point:
    a = 1 is the base, a multiple of p the Frobenius of a / p (none),
    another even a the square of a / 2 and an odd a the product of a - 1
    and 1 (one each)."""
    if a == 1:
        return 0
    if a % p == 0:
        return _chain_products(a // p, p)
    return 1 + _chain_products(a // 2 if a % 2 == 0 else a - 1, p)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_digit_product_products(monkeypatch, q):
    # G_j multiplies its one-digit values from the first factor on: with
    # E_n itself product-free, G_j costs the products of its digits'
    # chains (``_chain_products``) plus one product per further nonzero
    # digit, and G_{q^n} = E_n costs none.  The cache is cleared before
    # each call, so each count is that of a cold point.  Values equal the
    # product from 1 of the oracle's powers.
    from carlitzbases import algebra
    from oracles import schoolbook_mul

    cfg = FieldConfig(*FIELDS[q])
    rng = random.Random(q)
    x = random_series(cfg, rng, 40)
    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    for j in range(q ** 3):
        for primed in (False, True):
            _clear_towers()
            calls.clear()
            got = eval_G(cfg, j, x, primed=primed)
            digits = [a for a in DigitIndex.of(j, q).digits if a]
            assert len(calls) == sum(_chain_products(a, cfg.p)
                                     for a in digits) + max(len(digits) - 1, 0)
            expected = Poly.one(cfg)
            for n, a in enumerate(DigitIndex.of(j, q).digits):
                if a:
                    factor = eval_E(cfg, n, x)
                    power = factor
                    for _ in range(a - 1):
                        power = schoolbook_mul(power, factor)
                    if primed and a == q - 1:
                        power = power - Poly.one(cfg)
                    expected = schoolbook_mul(expected, power)
            assert got == expected


def _digit_product_input(cfg, kind, rnd):
    # A Poly, an exact series, or a truncated series of precision 3..24 (E_n
    # and D_n for n <= 2 need precision > n).
    if kind == "poly":
        return random_poly(cfg, rnd, rnd.randrange(5))
    if kind == "exact":
        return random_poly(cfg, rnd, rnd.randrange(5)).to_series()
    return random_series(cfg, rnd, rnd.randrange(3, 25))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=80, deadline=None)
def test_digit_products_match_digit_oracle(q, data):
    # The prefix form (cached on Poly, recursive on series) against the
    # product taken one digit at a time: G_j, G'_j, D_j and D'_j for every
    # j < q**3 (q**2 for q >= 8), values and precisions equal.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    kind = data.draw(st.sampled_from(("poly", "exact", "trunc")))
    x = _digit_product_input(cfg, kind, rnd)
    evaluate, base = data.draw(st.sampled_from(((eval_G, eval_E),
                                                (eval_D, hasse_derivative))))
    primed = data.draw(st.booleans())
    for j in range(q ** (2 if q >= 8 else 3)):
        got = evaluate(cfg, j, x, primed=primed)
        want = digit_product_by_digits(cfg, j, x, primed, base)
        assert type(got) is type(want)
        assert got == want


# The differential fields and two with e = 4 and e = 3, where c -> c**p
# moves every code that is not in F_p.
ONE_DIGIT_FIELDS = {**FIELDS, 16: (2, 4), 27: (3, 3)}


def _one_digit_point(cfg, t, data, rnd):
    """A point where E_t and D_t are defined: a Poly or an exact series of
    degree < 4, or a truncated series of valuation 0..3 whose precision is
    t + 1 (the least allowed), t + 2 or up to 24; a valuation at or past
    the precision gives a series that is zero to precision."""
    kind = data.draw(st.sampled_from(("poly", "exact", "trunc")))
    if kind != "trunc":
        x = random_poly(cfg, rnd, rnd.randrange(4))
        return x if kind == "poly" else x.to_series()
    v = data.draw(st.integers(0, 3))
    prec = data.draw(st.sampled_from((t + 1, t + 2, rnd.randrange(t + 1, 25))))
    return TruncSeries(cfg, v, [rnd.randrange(cfg.q) for _ in range(max(prec - v, 0))],
                       prec)


@given(st.sampled_from(sorted(ONE_DIGIT_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_one_digit_values_match_binary_powers(q, data):
    # Every one-digit value F_{a q**t}(x), plain and primed, G and D, formed
    # from the lower values of its chain (a Frobenius for p | a, a square
    # or a product by F_{q**t}), in any order from cold towers: the value,
    # type, valuation and precision of base(cfg, t, x)**a (less 1 for a
    # primed maximal digit), by binary powering from the uncached oracles.
    cfg = FieldConfig(*ONE_DIGIT_FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    t = data.draw(st.integers(0, 1 if q >= 16 else 2))
    x = _one_digit_point(cfg, t, data, rnd)
    calls = [(evaluate, base, a, primed) for evaluate, base in (
        (eval_G, eval_E_by_steps), (eval_D, hasse_by_digits))
        for a in range(1, q) for primed in (False, True)]
    want = [one_digit_by_power(cfg, a, t, x, primed, base)
            for _, base, a, primed in calls]
    order = list(range(len(calls)))
    rnd.shuffle(order)
    _clear_towers()
    for i in order:
        evaluate, _, a, primed = calls[i]
        got = evaluate(cfg, a * q ** t, x, primed=primed)
        assert type(got) is type(want[i])
        assert got == want[i]
        if isinstance(got, TruncSeries):
            assert (got.v, got.coeffs, got.prec) == (want[i].v, want[i].coeffs,
                                                     want[i].prec)


@pytest.mark.parametrize("q", [131, 251, 256])
def test_fresh_one_digit_costs_no_more_than_binary_powering(monkeypatch, q):
    # At a fresh point (cold towers), one one-digit value F_a(x), G or D,
    # costs at most the a.bit_length() + popcount(a) - 2 products of
    # binary powering (fewer for p = 2, where an even a is a Frobenius):
    # a = q - 1 and random a.  Values equal x**a.
    from carlitzbases import algebra

    cfg = FieldConfig(*{131: (131,), 251: (251,), 256: (2, 8)}[q])
    rnd = random.Random(q)
    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    for a in [q - 1] + [rnd.randrange(2, q) for _ in range(8)]:
        for evaluate in (eval_G, eval_D):
            x = random_poly(cfg, rnd, 2) + Poly.monomial(cfg, 3)
            _clear_towers()
            calls.clear()
            got = evaluate(cfg, a, x)
            assert len(calls) <= a.bit_length() + bin(a).count("1") - 2
            assert got == x ** a


def _clear_towers():
    from carlitzbases.towers import TOWERS
    TOWERS.cache_clear()


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2), (9, 2)])
@pytest.mark.parametrize("family", ["G", "D"])
@pytest.mark.parametrize("order", [(False, True), (True, False)])
def test_digit_product_poly_tabulation_products(monkeypatch, q, n, family, order):
    # From cold caches, F_k(x) and F'_k(x) for every k < q**n, in either
    # order, cost one product per index with two or more nonzero digits,
    # and F'_k one more only when k has a maximal digit q - 1 (otherwise
    # F'_k = F_k, taken from the cache), plus the one-digit values
    # base_t(x)**a, formed once per point for both: one product per
    # position for each digit 2 <= a < q with p not dividing a (a square
    # or a product by base_t(x); p | a is a Frobenius), n times 1, 3 and 5
    # products at q = 4, 5 and 9.  Every E_t(x) and D_t(x), t < n, is
    # nonconstant, so no product meets a zero: E_t(x) has degree
    # q**t (deg x - t) for deg x = n, and D_t(x) the top term
    # C(q**n - 1, t) T**(q**n - 1 - t), nonzero by Lucas, for deg x = q**n - 1.
    from carlitzbases import algebra

    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(q * n)
    degree = n if family == "G" else q ** n - 1
    x = random_poly(cfg, rnd, degree - 1) + Poly.monomial(cfg, degree)
    evaluate = eval_G if family == "G" else eval_D
    _clear_towers()
    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    values = {primed: [evaluate(cfg, k, x, primed=primed) for k in range(q ** n)]
              for primed in order}
    prefixed = [DigitIndex.of(k, q).digits for k in range(q ** n)
                if sum(map(bool, DigitIndex.of(k, q).digits)) >= 2]
    maximal = sum(1 for digits in prefixed if q - 1 in digits)
    powers = n * sum(1 for a in range(2, q) if a % cfg.p)
    assert len(calls) == len(prefixed) + maximal + powers
    monkeypatch.undo()
    base = eval_E if family == "G" else hasse_derivative
    for primed in order:
        assert values[primed] == [digit_product_by_digits(cfg, k, x, primed, base)
                                  for k in range(q ** n)]


# ---------------------------------------------------------------------------
# Series points: the cached tower
# ---------------------------------------------------------------------------

@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=80, deadline=None)
def test_towers_match_uncached_oracles(q, data):
    # At Poly, exact-series and truncated-series points, E_n, D_n, G_j,
    # G'_j, D_j and D'_j give the values, types and precisions of the
    # uncached oracles (E_n by bracket steps, D_n by Lucas binomials, digit
    # products one digit at a time), in any order of calls over two points,
    # from a cold or a warm cache, or under a budget so small that every
    # few values drop the other point mid-sweep; and again on the repeated
    # call, a cache hit.
    from unittest import mock

    from carlitzbases import towers
    from oracles import eval_E_by_steps, hasse_by_digits

    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    kinds = st.sampled_from(("poly", "exact", "trunc"))
    points = [_digit_product_input(cfg, data.draw(kinds), rnd) for _ in range(2)]
    mode = data.draw(st.sampled_from(("cold", "warm", "evicting")))
    if mode != "warm":
        _clear_towers()
    budget = 3 * towers._VALUE_BYTES if mode == "evicting" else towers.TOWER_BUDGET
    top = q ** (2 if q >= 8 else 3)
    calls = ([(x, evaluate, base, n, None) for x in points for n in range(3)
              for evaluate, base in ((eval_E, eval_E_by_steps),
                                     (hasse_derivative, hasse_by_digits))]
             + [(x, evaluate, base, j, primed) for x in points for j in range(top)
                for primed in (False, True)
                for evaluate, base in ((eval_G, eval_E_by_steps),
                                       (eval_D, hasse_by_digits))])
    rnd.shuffle(calls)
    with mock.patch.object(towers, "TOWER_BUDGET", budget):
        for x, evaluate, base, k, primed in calls:
            if primed is None:
                want = base(cfg, k, x)
                got = [evaluate(cfg, k, x) for _ in range(2)]
            else:
                want = digit_product_by_digits(cfg, k, x, primed, base)
                got = [evaluate(cfg, k, x, primed=primed) for _ in range(2)]
            for value in got:
                assert type(value) is type(want)
                assert value == want
                assert getattr(value, "prec", None) == getattr(want, "prec", None)
        info = towers.TOWERS.cache_info()
        assert info.currsize <= budget or info.points == 1


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_poly_and_exact_series_keep_their_types(q):
    # A Poly and the exact series with its coefficients are equal, yet each
    # keeps its own result type, in either order of evaluation from cold
    # caches: neither type's cache answers for the other.
    cfg = FieldConfig(*FIELDS[q])
    x = random_poly(cfg, random.Random(q), 3) + Poly.monomial(cfg, 4)
    s = x.to_series()
    assert x == s
    calls = ([(evaluate, n, {}) for n in range(3)
              for evaluate in (eval_E, hasse_derivative)]
             + [(evaluate, j, {"primed": primed}) for j in range(q * q)
                for primed in (False, True) for evaluate in (eval_G, eval_D)])
    for points in ((x, s), (s, x)):
        _clear_towers()
        for evaluate, k, kwargs in calls:
            by_type = {type(y): evaluate(cfg, k, y, **kwargs) for y in points}
            assert type(by_type[Poly]) is Poly
            assert type(by_type[TruncSeries]) is TruncSeries
            assert by_type[Poly].to_series() == by_type[TruncSeries]


def test_one_lookup_per_evaluation(monkeypatch):
    # Every call of eval_E, hasse_derivative, eval_G or eval_D, cold or
    # warm, looks its point up once: the prefix recursion reads the
    # point's own tower, and calls the evaluator of a digit's base (E_t or
    # D_t) only to form a one-digit value.
    from carlitzbases import carlitz, hasse, towers

    cfg = FieldConfig(3)
    x = parse_poly(cfg, "T^3+2*T+1")
    lookups, calls = [], []
    tower = towers.TOWERS.tower
    monkeypatch.setattr(towers.TOWERS, "tower",
                        lambda *args: lookups.append(1) or tower(*args))
    for module, name in ((carlitz, "eval_E"), (carlitz, "eval_G"),
                         (hasse, "hasse_derivative"), (hasse, "eval_D")):
        monkeypatch.setattr(module, name, _counted(getattr(module, name), calls))
    _clear_towers()
    for _ in range(2):
        for k in range(27):
            for primed in (False, True):
                carlitz.eval_G(cfg, k, x, primed=primed)
                hasse.eval_D(cfg, k, x, primed=primed)
        for n in range(3):
            carlitz.eval_E(cfg, n, x)
            hasse.hasse_derivative(cfg, n, x)
    # The bases: E_t(x) and D_t(x) once each for t < 3; F_{2 q**t} is the
    # square of F_{q**t}, with no call of its own.
    assert len(calls) == 2 * (2 * 27 * 2 + 2 * 3) + 2 * 3
    assert len(lookups) == len(calls)


def _counted(f, calls):
    def counted(*args, **kwargs):
        calls.append(f.__name__)
        return f(*args, **kwargs)
    return counted


def test_tower_cache_stays_within_budget(monkeypatch):
    # A sweep over series points that hold more than the budget between
    # them keeps the bytes held, and their peak, within the budget, with
    # the least recent points dropped; the last point's values are still
    # cached, so reading them again computes nothing.
    from carlitzbases import towers

    budget = 1 << 16
    monkeypatch.setattr(towers, "TOWER_BUDGET", budget)
    cfg = FieldConfig(2)
    rnd = random.Random(7)
    _clear_towers()

    def evaluate(x):
        return [eval_E(cfg, 2, x), eval_G(cfg, 6, x), hasse_derivative(cfg, 3, x),
                eval_D(cfg, 5, x, primed=True)]

    # From cold, the bytes held are the point's charge plus, per value in
    # its tower, the value's coefficient bytes and the fixed charge.
    x = random_series(cfg, rnd, 40)
    evaluate(x)
    tower = towers.TOWERS.tower(cfg, x)
    values = tower.E[1:] + [v for table in (tower.D,) + tower.G + tower.Dj
                            for v in table.values()]
    assert towers.TOWERS.cache_info().currsize == tower.nbytes == (
        len(x.coeffs) + 4 * towers._VALUE_BYTES
        + sum(len(v.coeffs) + towers._VALUE_BYTES for v in values))
    held = swept = 0
    while held <= 2 * budget:
        x = random_series(cfg, rnd, 40)
        values = evaluate(x)
        held += towers.TOWERS.tower(cfg, x).nbytes
        swept += 1
    info = towers.TOWERS.cache_info()
    assert info.maxsize == budget
    assert 0 < info.currsize <= budget and info.peak <= budget
    assert 0 < info.points < swept
    assert evaluate(x) == values
    after = towers.TOWERS.cache_info()
    assert after.hits == info.hits + 4 and after.misses == info.misses


def test_eval_E_series_one_step_per_level(monkeypatch):
    # From a cold cache E_N(x) of a truncated series takes exactly N steps,
    # each from the cached level below; E_0 ... E_N are then all cache hits.
    from carlitzbases import carlitz
    cfg, N = FieldConfig(3), 4
    x = random_series(cfg, random.Random(3), 30)
    steps = []
    step = carlitz._bracket_step
    monkeypatch.setattr(carlitz, "_bracket_step",
                        lambda *args: steps.append(args[1]) or step(*args))
    _clear_towers()
    value = eval_E(cfg, N, x)
    assert steps == list(range(1, N + 1))
    assert [eval_E(cfg, n, x) for n in range(1, N + 1)][-1] == value
    assert steps == list(range(1, N + 1))


@pytest.mark.parametrize("evaluate", [eval_G, eval_D])
def test_primed_without_maximal_digit_is_unprimed(monkeypatch, evaluate):
    # F'_j = F_j when no digit of j is q - 1: at q = 5 on deg m < 2, with
    # every F_j(m) cached, the 16 such indices cost no product, and their
    # primed values are the unprimed ones.
    from carlitzbases import algebra

    cfg = FieldConfig(5)
    points = poly_enumerate(cfg, 2, "deg_lt")
    _clear_towers()
    warm = {(j, m): evaluate(cfg, j, m) for j in range(25) for m in points}
    plain = [j for j in range(25) if 4 not in DigitIndex.of(j, 5).digits]
    assert len(plain) == 16
    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    for j in plain:
        for m in points:
            assert evaluate(cfg, j, m, primed=True) == warm[j, m]
    assert calls == []
