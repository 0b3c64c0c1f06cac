"""Difference calculus, coefficient recovery, basis matrices, synthesis."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitzbases import (
    Basis,
    DomainError,
    FieldConfig,
    Poly,
    PrecisionError,
    TruncSeries,
    bracket,
    carlitz_L,
    carlitz_coeffs,
    convert_powered,
    delta,
    delta_upper,
    digit_coeffs,
    digit_coeffs_linear,
    eval_D,
    eval_E,
    eval_G,
    hasse_derivative,
    inverse_matrix,
    lucas_binom,
    parse_poly,
    powered_D,
    powered_digit_coeffs,
    synthesize,
    valuation_norm,
    voloch_matrix,
    wagner_coeffs,
)
from carlitzbases import algebra, transforms
from carlitzbases.algebra import (
    EXACT,
    as_series,
    poly_enumerate,
    random_poly,
    values_match,
)
from carlitzbases.transforms import (
    D_func,
    Dj_func,
    E_func,
    G_func,
    LinearFunc,
    _digit_box,
    add_func,
    constant_func,
    default_level,
    frobenius_func,
    identity_func,
    matrix_product_block,
    monomial_func,
    scale_func,
)
from oracles import (
    FIELDS,
    delta_minus,
    delta_minus_power_at,
    delta_upper_by_closures,
    digit_coeffs_linear_by_iteration,
    digit_coeffs_linear_by_terms,
    enumeration_coeffs_by_pairs,
    enumeration_coeffs_by_rows,
    inverse_matrix_by_columns,
    powered_digit_coeffs_by_conversion,
    powered_digit_coeffs_by_iteration,
    powered_digit_coeffs_by_terms,
    voloch_matrix_by_subsets,
    wagner_coeffs_by_solve,
)


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def test_delta_shifts_D(f2):
    for n in range(1, 5):
        df = delta(D_func(f2, n))
        for i in range(11):
            t = Poly.monomial(f2, i)
            assert df(t) == hasse_derivative(f2, n - 1, t)


def test_delta_annihilates_identity(f3, rng):
    df = delta(identity_func(f3))
    for _ in range(5):
        x = random_poly(f3, rng, 5)
        assert df(x).is_zero


def test_delta_E1_example(f2):
    # (delta E_1)(T) = E_1(T^2) - T E_1(T) = (T^2 + T) - T = T^2 over F_2.
    df = delta(E_func(f2, 1))
    assert df(Poly.T(f2)) == Poly.monomial(f2, 2)


def test_delta_rejects_nonlinear(f2):
    with pytest.raises(DomainError):
        delta(G_func(f2, 3))


def test_delta_upper_examples(f2, rng):
    f = D_func(f2, 2)
    assert delta_upper(0, f)(Poly.T(f2)) == f(Poly.T(f2))
    # delta^(1) = delta (the twist multiplier at level 1 is T itself)
    x = random_poly(f2, rng, 5)
    T = Poly.T(f2)
    assert delta_upper(1, f)(x) == delta(f)(x) == f(T * x) - T * f(x)
    # (delta^(n) E_n)(1) = 1
    one = Poly.one(f2)
    for n in range(4):
        assert delta_upper(n, E_func(f2, n))(one) == one


def test_delta_upper_rejects_negative_n(f2):
    # Raised when the operator is built, not when it is first called.
    for n in (-1, -4):
        with pytest.raises(DomainError):
            delta_upper(n, D_func(f2, 1))
    assert delta_upper(2, D_func(f2, 1)).name == "delta^(2)(D:1)"


def _wagner_by_closures(f, N):
    """wagner_coeffs(f, N).coeffs from the tower of closures, or the
    (PrecisionError, message) that wagner_coeffs raises."""
    one = Poly.one(f.cfg)
    coeffs = []
    for n in range(N):
        try:
            coeffs.append(delta_upper_by_closures(n, f)(one))
        except PrecisionError as exc:
            return PrecisionError, f"precision exhausted at level {n}: {exc}"
    return coeffs


def _truncating(g, P):
    """g on its input read to precision P: a series-valued evaluator."""
    def ev(x):
        x = as_series(x)
        return g(TruncSeries(x.cfg, x.v, x.coeffs, min(x.prec, P)))
    return LinearFunc(g.cfg, ev, name=f"trunc{P}({g.name})")


def _value_or_error(g, x):
    """[g(x)], or PrecisionError when g raises one.  The message is dropped:
    the table evaluates f from x up and the tower from T**n x down, so at a
    series x they may first meet different points that lack precision."""
    try:
        return [g(x)]
    except PrecisionError:
        return PrecisionError


def _same(got, want):
    """Equal by ==, which for series compares the precision, and of the same
    types (a Poly also equals its exact series)."""
    return got == want and [type(c) for c in got] == [type(c) for c in want]


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=100, deadline=None)
def test_difference_table_matches_closures(q, data):
    # Wagner coefficients and delta^(n) f at Poly and series points, from the
    # difference table and from the tower of closures: the same values and
    # precisions, and a PrecisionError where the tower raises one.
    cfg = FieldConfig(*FIELDS[q])
    digits = st.lists(st.integers(0, q - 1), max_size=4)
    atoms = [E_func(cfg, data.draw(st.integers(0, 2))),
             D_func(cfg, data.draw(st.integers(0, 4))),
             frobenius_func(cfg, data.draw(st.integers(0, 2)))]
    kind = data.draw(st.integers(0, 3))
    if kind < 3:
        f = atoms[kind]
    else:
        c, d = (Poly(cfg, data.draw(digits)) for _ in range(2))
        f = add_func(scale_func(c, atoms[0]),
                     scale_func(d, atoms[data.draw(st.integers(1, 2))]))
    if data.draw(st.booleans()):
        f = _truncating(f, data.draw(st.integers(4, 30)))
    N = data.draw(st.integers(1, 6))
    try:
        got = wagner_coeffs(f, N).coeffs
    except PrecisionError as exc:
        got = PrecisionError, str(exc)
    assert _same(got, _wagner_by_closures(f, N))
    if data.draw(st.booleans()):
        x = Poly(cfg, data.draw(digits))
    else:
        v = data.draw(st.integers(0, 3))
        x = TruncSeries(cfg, v, data.draw(digits),
                        v + data.draw(st.integers(1, 12)))
    n = data.draw(st.integers(0, 4))
    got, want = (_value_or_error(g, x)
                 for g in (delta_upper(n, f), delta_upper_by_closures(n, f)))
    if want is PrecisionError:
        assert got is PrecisionError
    else:
        assert _same(got, want)


def test_difference_table_evaluates_f_once_per_point(f3):
    calls = []
    E2 = E_func(f3, 2)
    f = LinearFunc(f3, lambda x: calls.append(x) or E2(x), name="counted")
    wagner_coeffs(f, 8)
    assert calls == [Poly.monomial(f3, i) for i in range(8)]
    calls.clear()
    one = Poly.one(f3)
    for n in range(8):
        delta_upper_by_closures(n, f)(one)
    assert len(calls) == 2 ** 8 - 1
    x = Poly(f3, (2, 1))
    for n in range(6):
        calls.clear()
        delta_upper(n, f)(x)
        assert calls == [Poly.monomial(f3, i) * x for i in range(n + 1)]


def test_wagner_names_the_level_where_precision_runs_out(f3):
    # f returns its input's digits, read from x + O(T^P), as a series to
    # O(T^9): F_q-linear and series-valued.  f(T^n) needs the digit of T^n,
    # unknown from n = P on, so the expansion runs out at level P.
    P = 4

    def digits(x):
        xs = as_series(x, P)
        return TruncSeries(f3, 0, [xs.coeff(i) for i in range(x.degree + 1)], 9)

    f = LinearFunc(f3, digits, name="digits")
    assert _same(wagner_coeffs(f, P).coeffs, _wagner_by_closures(f, P))
    with pytest.raises(PrecisionError, match=rf"^precision exhausted at level {P}: "
                       rf"coefficient of T\^{P} unknown past prec {P}$"):
        wagner_coeffs(f, P + 2)


# ---------------------------------------------------------------------------
# Wagner coefficients (E-basis)
# ---------------------------------------------------------------------------

def test_wagner_delta_sequences(f2):
    for k in range(4):
        exp = wagner_coeffs(E_func(f2, k), 6)
        assert exp.basis is Basis.LINEAR_E
        for n, c in enumerate(exp.coeffs):
            expected = Poly.one(f2) if n == k else Poly.zero(f2)
            assert values_match(c, expected)


def test_wagner_identity_function(f3):
    exp = wagner_coeffs(identity_func(f3), 5)
    assert values_match(exp.coeffs[0], Poly.one(f3))
    assert all(values_match(c, Poly.zero(f3)) for c in exp.coeffs[1:])


@pytest.mark.parametrize("q", [2, 3])
def test_wagner_of_D1_gives_voloch_column(q):
    # a_n = A_{n,1} = (-1)^{n-1} L_{n-1} for f = D_1.
    cfg = FieldConfig(q)
    exp = wagner_coeffs(D_func(cfg, 1), 5)
    assert values_match(exp.coeffs[0], Poly.zero(cfg))
    for n in range(1, 5):
        expected = carlitz_L(cfg, n - 1).scalar_mul(cfg.sign(n - 1))
        assert values_match(exp.coeffs[n], expected)


@pytest.mark.parametrize("q", [2, 3])
def test_wagner_vs_triangular_solve(q, rng):
    cfg = FieldConfig(q)
    funcs = [D_func(cfg, 2), frobenius_func(cfg, 1),
             add_func(E_func(cfg, 1), scale_func(Poly.T(cfg), D_func(cfg, 1)))]
    for f in funcs:
        a = wagner_coeffs(f, 5)
        b = wagner_coeffs_by_solve(f, 5)
        for x, y in zip(a.coeffs, b.coeffs):
            assert values_match(x, y)


# ---------------------------------------------------------------------------
# Digit coefficients, linear case (D-basis)
# ---------------------------------------------------------------------------

def test_digit_linear_delta_sequences(f2):
    for k in range(4):
        exp = digit_coeffs_linear(D_func(f2, k), 6)
        for n, c in enumerate(exp.coeffs):
            expected = Poly.one(f2) if n == k else Poly.zero(f2)
            assert values_match(c, expected)


@pytest.mark.parametrize("q", [2, 3])
def test_digit_linear_frobenius(q):
    # b_i = [1]^i, the m = 1 case of x^{q^m} = sum [m]^i D_i(x).
    cfg = FieldConfig(q)
    exp = digit_coeffs_linear(frobenius_func(cfg, 1), 5)
    br = bracket(cfg, 1)
    for i, c in enumerate(exp.coeffs):
        assert values_match(c, br ** i)


def test_digit_linear_of_E_matches_inverse_matrix(f2):
    B = inverse_matrix(f2, 5)
    for n in range(5):
        exp = digit_coeffs_linear(E_func(f2, n), 5)
        for m in range(5):
            assert values_match(exp.coeffs[m], B.entry(m, n))


@pytest.mark.parametrize("q", [2, 3])
def test_digit_linear_closed_sum_vs_iteration(q):
    cfg = FieldConfig(q)
    funcs = [identity_func(cfg), D_func(cfg, 2), E_func(cfg, 1),
             frobenius_func(cfg, 1)]
    for f in funcs:
        a = digit_coeffs_linear(f, 8)
        b = digit_coeffs_linear_by_iteration(f, 8)
        for x, y in zip(a.coeffs, b.coeffs):
            assert values_match(x, y)


def _closed_sum_function(cfg, rnd, kind):
    """Up to three basis functions with random scalars of degree <= 2,
    summed: Poly-valued, or series-valued when scaled by a series of
    valuation -2 known to T**10."""
    terms = (identity_func(cfg), D_func(cfg, 1), D_func(cfg, 2), E_func(cfg, 1),
             E_func(cfg, 2), frobenius_func(cfg, 1))
    f = scale_func(random_poly(cfg, rnd, 2), rnd.choice(terms))
    for _ in range(rnd.randrange(3)):
        f = add_func(f, scale_func(random_poly(cfg, rnd, 2), rnd.choice(terms)))
    if kind == "series":
        s = TruncSeries(cfg, -2, [1] + [rnd.randrange(cfg.q) for _ in range(11)], 10)
        f = scale_func(s, f)
    return f


def _assert_closed_sums_match_terms(f, N, m):
    for got, want in ((digit_coeffs_linear(f, N), digit_coeffs_linear_by_terms(f, N)),
                      (powered_digit_coeffs(f, m, N),
                       powered_digit_coeffs_by_terms(f, m, N))):
        assert got.coeffs == want.coeffs
        _assert_same_expansion(got, want)


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_sums_match_term_by_term_oracles(q, data):
    # b_n and beta_n as packed weighted sums against one product and one
    # addition per term: equal in value, type and prec, for Poly-valued
    # and series-valued functions.  beta_n against the two-pass sum from
    # b by the conversion weights: equal values on the common digits, and
    # never fewer digits known, the same number at m = 0.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    f = _closed_sum_function(cfg, rnd, data.draw(st.sampled_from(("poly", "series"))))
    N, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 2))
    _assert_closed_sums_match_terms(f, N, m)
    got = powered_digit_coeffs(f, m, N).coeffs
    for x, y in zip(got, powered_digit_coeffs_by_conversion(f, m, N).coeffs):
        assert values_match(x, y) and type(x) is type(y)
        if isinstance(x, TruncSeries):
            assert x.prec >= y.prec if m else x.prec == y.prec


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_inverse_matrix_matches_per_column_sums(q):
    # All columns as one weighted sum against each column's closed sum one
    # term at a time, sizes 1 to 6 while E_{size-1}(T**(size-1)) stays
    # below degree 2**15.
    cfg = FieldConfig(*FIELDS[q])
    for size in range(1, 7):
        if (size - 1) * q ** (size - 1) >= 2 ** 15:
            break
        assert (inverse_matrix(cfg, size).entries
                == inverse_matrix_by_columns(cfg, size).entries)


def test_closed_sums_catch_a_wrong_weight(monkeypatch):
    # C(2, 1) = 2 read as 1 where the shifted sums read their weights (the
    # binomial row of i = 1 at k = 1), so D_1(T**2) weighs as T: every
    # comparison above must then fail.
    cfg = FieldConfig(3)
    right = transforms._binomial_row

    def wrong(n, p, size):
        row = right(n, p, size)
        return row[:1] + b"\1" + row[2:] if (n, p) == (1, 3) else row
    monkeypatch.setattr(transforms, "_binomial_row", wrong)
    rnd = random.Random(5)
    for kind in ("poly", "series"):
        with pytest.raises(AssertionError):
            _assert_closed_sums_match_terms(_closed_sum_function(cfg, rnd, kind), 4, 1)
    assert inverse_matrix(cfg, 3).entries != inverse_matrix_by_columns(cfg, 3).entries


def test_mixed_values_give_series_coefficients(f3):
    # A function with Poly values at some points and series values at
    # others has series coefficients throughout, as the G and D
    # enumerations do; the term-by-term sum has a Poly b_0 here.
    s = TruncSeries(f3, -1, [1, 2, 1], 6)
    f = LinearFunc(f3, lambda x: x if x.degree == 0 else s * x)
    for got, want in ((digit_coeffs_linear(f, 5), digit_coeffs_linear_by_terms(f, 5)),
                      (powered_digit_coeffs(f, 1, 5),
                       powered_digit_coeffs_by_terms(f, 1, 5))):
        assert all(isinstance(c, TruncSeries) for c in got.coeffs)
        assert isinstance(want.coeffs[0], Poly)
        assert got.coeffs == want.coeffs


def _mixed_function(cfg, rnd):
    """A Poly-valued ``_closed_sum_function`` whose values at the odd powers
    of T are scaled by a series of valuation -1 known to T**7."""
    f = _closed_sum_function(cfg, rnd, "poly")
    s = TruncSeries(cfg, -1, [1] + [rnd.randrange(cfg.q) for _ in range(8)], 7)
    return LinearFunc(cfg, lambda x: s * f(x) if x.degree % 2 else f(x))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_shifted_sums_match_scaled_shifts(q, data):
    # Each sum of w T**k codes[i], up to 300 terms (past the one-byte slot
    # bound for odd p), against the same sum of Poly scalings and products
    # by T**k.
    cfg = FieldConfig(*FIELDS[q])
    codes = [bytes(data.draw(st.lists(st.integers(0, q - 1), max_size=10)))
             for _ in range(data.draw(st.integers(1, 6)))]
    terms = data.draw(st.integers(1, 300))
    total = transforms._shifted_sums(cfg, codes, terms)
    for _ in range(3):
        weights = [(data.draw(st.integers(0, len(codes) - 1)),
                    data.draw(st.integers(0, 30)), data.draw(st.integers(1, cfg.p - 1)))
                   for _ in range(data.draw(st.integers(0, min(terms, 12))))]
        if data.draw(st.booleans()):
            weights = (weights * terms)[:terms]
        want = Poly.zero(cfg)
        for i, k, w in weights:
            want = want + Poly(cfg, codes[i]).scalar_mul(w) * Poly.monomial(cfg, k)
        assert total(weights) == want.coeffs


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_digit_sums_match_term_by_term_oracle(q, data):
    # The shifted sums of up to three functions at once (as the inverse
    # matrix takes its columns), m = 0..3, against one product and one
    # addition per term: Poly-, series- and mixed-valued f give equal
    # values and precisions, and series coefficients throughout as soon as
    # one value is a series.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    kinds = data.draw(st.lists(st.sampled_from(("poly", "series", "mixed")),
                               min_size=1, max_size=3))
    fs = [_mixed_function(cfg, rnd) if kind == "mixed"
          else _closed_sum_function(cfg, rnd, kind) for kind in kinds]
    N, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 3))
    for kind, f, got in zip(kinds, fs, transforms._digit_sums(cfg, fs, N, m)):
        want = digit_coeffs_linear_by_terms(f, N, m).coeffs
        series = kind == "series" or (kind == "mixed" and N > 1)
        assert got == want
        assert all(type(c) is (TruncSeries if series else Poly) for c in got)
        assert ([getattr(c, "prec", EXACT) for c in got]
                == [getattr(c, "prec", EXACT) for c in want])


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_difference_table_on_series_matches_closures(q, data):
    # delta^(n) f at a series point x (zero to precision or not), f series-
    # valued with negative valuations: the table's shifts against the
    # closures' products by T and T**(q**k), value for value.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    f = _closed_sum_function(cfg, rnd, "series")
    v = data.draw(st.integers(0, 3))
    x = TruncSeries(cfg, v, data.draw(st.lists(st.integers(0, q - 1), max_size=4)),
                    v + data.draw(st.integers(3, 12)))
    n = data.draw(st.integers(0, 4))
    got, want = (_value_or_error(g, x)
                 for g in (delta_upper(n, f), delta_upper_by_closures(n, f)))
    if want is PrecisionError:
        assert got is PrecisionError
    else:
        assert _same(got, want) and got[0].prec == want[0].prec


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_closed_sums_and_wagner_form_no_weight_product(monkeypatch, q):
    # With f's values computed beforehand, the closed sums, the inverse
    # matrix and the Wagner table run with every product refused: their
    # weights and every product by a power of T are shifts.  The weight
    # polynomials D_i(T**n) (``oracles.hasse_on_monomial``) are gone from
    # the library.
    from carlitzbases import hasse
    cfg = FieldConfig(*FIELDS[q])
    g = add_func(E_func(cfg, 2), D_func(cfg, 1))
    N = 6
    values = {Poly.monomial(cfg, i): g(Poly.monomial(cfg, i)) for i in range(N)}
    f = LinearFunc(cfg, values.__getitem__, name="tabulated")
    want = ([digit_coeffs_linear(f, N)]
            + [powered_digit_coeffs(f, m, N) for m in range(4)]
            + [inverse_matrix(cfg, 3), wagner_coeffs(f, N)])

    def refuse(*args):
        raise AssertionError("product formed")
    monkeypatch.setattr(algebra, "_mul", refuse)
    monkeypatch.setattr(Poly, "__mul__", refuse)
    assert not any(hasattr(module, "hasse_on_monomial") for module in (hasse, transforms))
    from carlitzbases.towers import TOWERS
    TOWERS.cache_clear()
    got = ([digit_coeffs_linear(f, N)]
           + [powered_digit_coeffs(f, m, N) for m in range(4)]
           + [inverse_matrix(cfg, 3), wagner_coeffs(f, N)])
    for x, y in zip(got, want):
        assert x.to_json() == y.to_json()


# ---------------------------------------------------------------------------
# Enumeration coefficients (nonlinear bases)
# ---------------------------------------------------------------------------

def test_carlitz_coeffs_delta_sequences(f2):
    for j in range(4):
        exp = carlitz_coeffs(G_func(f2, j), 4, f2)
        for i, c in enumerate(exp.coeffs):
            expected = Poly.one(f2) if i == j else Poly.zero(f2)
            assert values_match(c, expected)


def test_carlitz_coeffs_constant_one(f3):
    exp = carlitz_coeffs(lambda m: Poly.one(f3), 6, f3)
    assert values_match(exp.coeffs[0], Poly.one(f3))
    assert all(values_match(c, Poly.zero(f3)) for c in exp.coeffs[1:])


def test_carlitz_coeffs_hand_example(f2):
    # q=2, level 1, f = G_1 = x: A_1 = -(G'_0(0)*0 + G'_0(1)*1) = 1 in F_2.
    exp = carlitz_coeffs(G_func(f2, 1), 2, f2, level=1)
    assert values_match(exp.coeffs[0], Poly.zero(f2))
    assert values_match(exp.coeffs[1], Poly.one(f2))


def test_digit_coeffs_delta_sequences(f2):
    for j in range(4):
        exp = digit_coeffs(Dj_func(f2, j), 4, f2)
        for i, c in enumerate(exp.coeffs):
            expected = Poly.one(f2) if i == j else Poly.zero(f2)
            assert values_match(c, expected)


def test_digit_coeffs_hand_examples(f2):
    exp = digit_coeffs(Dj_func(f2, 1), 2, f2, level=1)
    assert values_match(exp.coeffs[1], Poly.one(f2))
    exp = digit_coeffs(lambda m: Poly.one(f2), 4, f2)
    assert values_match(exp.coeffs[0], Poly.one(f2))
    assert all(values_match(c, Poly.zero(f2)) for c in exp.coeffs[1:])


@pytest.mark.parametrize("q", [2, 3])
def test_level_independence(q):
    cfg = FieldConfig(q)
    J = q ** 3 - 1
    f = monomial_func(cfg, 2)  # nonlinear evaluator, exact on polynomials
    n = default_level(cfg, J)
    for analyze in (carlitz_coeffs, digit_coeffs):
        lo = analyze(f, J, cfg, level=n, budget=q ** (n + 1))
        hi = analyze(f, J, cfg, level=n + 1, budget=q ** (n + 1))
        for a, b in zip(lo.coeffs, hi.coeffs):
            assert values_match(a, b)


def test_level_too_small_is_domain_error(f2):
    with pytest.raises(DomainError):
        carlitz_coeffs(G_func(f2, 1), 5, f2, level=2)


def _enumeration_value(cfg, kind, rnd):
    # One f(m): a Poly (zero included), an exact series, or a truncated
    # series of valuation -3..3 and any precision down to zero to precision.
    digits = [rnd.randrange(cfg.q) for _ in range(rnd.randrange(8))]
    if kind == "poly":
        return Poly(cfg, digits)
    if kind == "zero":
        return Poly.zero(cfg)
    v = rnd.randrange(-3, 4)
    if kind == "exact":
        return TruncSeries(cfg, v, digits, EXACT)
    return TruncSeries(cfg, v, digits, v + rnd.randrange(len(digits) + 4))


def _assert_same_expansion(got, want):
    # Type, valuation, digits and precision of every coefficient.
    assert got.to_json() == want.to_json()
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert ([getattr(c, "prec", None) for c in got.coeffs]
            == [getattr(c, "prec", None) for c in want.coeffs])


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=80, deadline=None)
def test_enumeration_coeffs_match_per_pair_sums(q, data):
    # The digit-by-digit transform against one product and one addition
    # per (j, m): Poly, series (negative valuations, mixed and exact
    # precisions) and zero values; J = 1, J = q**n, and levels above the
    # default.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    n = data.draw(st.integers(0, max(k for k in range(6) if q ** k <= 32)))
    J = data.draw(st.sampled_from((1, q ** n, rnd.randrange(1, q ** n + 1))))
    level = data.draw(st.sampled_from(
        (None, n, n + 1) if q ** (n + 1) <= 81 else (None, n)))
    kinds = data.draw(st.sampled_from((("poly",), ("poly", "zero"),
                                       ("trunc", "exact", "zero"),
                                       ("poly", "trunc", "exact", "zero"))))
    table = {}

    def f(m):
        return table.setdefault(m.coeffs, _enumeration_value(
            cfg, rnd.choice(kinds), rnd))
    basis = data.draw(st.sampled_from((Basis.CARLITZ_G, Basis.DIGIT_D)))
    analyze = carlitz_coeffs if basis is Basis.CARLITZ_G else digit_coeffs
    got = analyze(f, J, cfg, level=level)
    _assert_same_expansion(got, enumeration_coeffs_by_pairs(f, J, cfg, basis, level))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_coeffs_of_a_list_match_one_function_at_a_time(q, data):
    # One transform for a list of functions, laid side by side in every
    # fibre sum, against one expansion per function: Poly-valued,
    # series-valued (each function its own valuations and precisions),
    # mixed and zero functions side by side.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    n = data.draw(st.integers(0, max(k for k in range(4) if q ** k <= 16)))
    J = data.draw(st.integers(1, q ** n))
    kinds = data.draw(st.lists(st.sampled_from(("poly", "trunc", "exact", "zero",
                                                "mixed")), min_size=1, max_size=5))

    def function(kind):
        table = {}

        def f(m):
            pick = rnd.choice(("poly", "trunc", "exact")) if kind == "mixed" else kind
            return table.setdefault(m.coeffs, _enumeration_value(cfg, pick, rnd))
        return f
    fs = [function(kind) for kind in kinds]
    basis = data.draw(st.sampled_from((Basis.CARLITZ_G, Basis.DIGIT_D)))
    analyze = carlitz_coeffs if basis is Basis.CARLITZ_G else digit_coeffs
    got = transforms._enumeration_coeffs(fs, J, cfg, None, transforms.DEFAULT_BUDGET,
                                         basis)
    assert len(got) == len(fs)
    for f, expansion in zip(fs, got):
        _assert_same_expansion(expansion, analyze(f, J, cfg))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=80, deadline=None)
def test_enumeration_transform_matches_rows_and_pairs(q, data):
    # The digit-by-digit transform against the weighted sums over primed
    # digit rows (a list of functions at once) and against one product per
    # (j, m) (one function at a time): 1 <= J <= q**n, levels at and above
    # the default, and functions of Poly values, of series values with
    # negative valuations and mixed precisions, of both mixed, and zero.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    n = data.draw(st.integers(0, max(k for k in range(5) if q ** k <= 27)))
    J = data.draw(st.integers(1, q ** n))
    level = data.draw(st.sampled_from(
        (None, n + 1) if q ** (n + 1) <= 81 else (None, n)))
    kinds = data.draw(st.lists(st.sampled_from(("poly", "trunc", "exact", "zero",
                                                "mixed")), min_size=1, max_size=4))

    def function(kind):
        table = {}

        def f(m):
            pick = rnd.choice(("poly", "trunc", "exact")) if kind == "mixed" else kind
            return table.setdefault(m.coeffs, _enumeration_value(cfg, pick, rnd))
        return f
    fs = [function(kind) for kind in kinds]
    basis = data.draw(st.sampled_from((Basis.CARLITZ_G, Basis.DIGIT_D)))
    got = transforms._enumeration_coeffs(fs, J, cfg, level, 81, basis)
    rows = enumeration_coeffs_by_rows(fs, J, cfg, basis, level, 81)
    assert len(got) == len(rows) == len(fs)
    for f, expansion, want in zip(fs, got, rows):
        _assert_same_expansion(expansion, want)
        _assert_same_expansion(expansion,
                               enumeration_coeffs_by_pairs(f, J, cfg, basis, level))


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shorter", ["f", "w"])
def test_enumeration_coeffs_at_slot_width_step(monkeypatch, q, shorter):
    # All-(q-1) values and one-digit weights at level 1, the shorter side as
    # long as the 8-bit slot of the step's fibre sum (q terms) can just
    # hold, the longer side past that, and then one longer: the width must
    # follow the shorter side, 8 and then 16 bits, or a slot carries.  The
    # longer side is one digit short at m = 0, so the sums are not zero,
    # and the weight's length depends on its digit q - 1 - j.
    cfg = FieldConfig(*FIELDS[q])
    per_digit = q * cfg.e * (cfg.p - 1) ** 2  # slot bound per unit length, n = 1
    for width, low in ((8, 255 // per_digit), (16, 255 // per_digit + 1)):
        lengths = {shorter: low, "w" if shorter == "f" else "f": low + 9}

        def full(length):
            return Poly(cfg, [q - 1] * length)

        def cut(side, m):
            return int(side != shorter and m.is_zero)

        def w(cfg, idx, m, primed=False):
            if not idx:  # F'_0 = 1, which the transform does not read
                return Poly.one(cfg)
            return full(lengths["w"] - (idx != q - 1) - cut("w", m))

        def f(m):
            return full(lengths["f"] - cut("f", m))
        widths = []
        packer = algebra.pack
        monkeypatch.setattr(transforms, "eval_G", w)
        monkeypatch.setattr(algebra, "pack",
                            lambda cfg, coeffs, width: widths.append(width)
                            or packer(cfg, coeffs, width))
        got = carlitz_coeffs(f, 2, cfg, level=1)
        assert set(widths) == {width}
        monkeypatch.undo()
        want = enumeration_coeffs_by_pairs(f, 2, cfg, Basis.CARLITZ_G, 1,
                                           evaluate=w)
        _assert_same_expansion(got, want)
        # At q = 2 the coefficient j = 1 (K = 0) is the plain sum of the
        # values of f, zero when f is not cut; every other is a product sum.
        assert not any(c.is_zero for c in want.coeffs[:1 if q == 2 else 2])


@pytest.mark.parametrize("J,level", [(256, None), (4, 8)])
@pytest.mark.parametrize("basis", [Basis.CARLITZ_G, Basis.DIGIT_D])
def test_enumeration_transform_cost(monkeypatch, J, level, basis):
    # At q = 2, n = 8, step t multiplies each of the weights F'_{a q**t},
    # a != 0 in box_t, of a fibre by each of its q |box_{<t}| entries, for
    # each of the q**(n-t-1) suffixes: sum over t of
    # |box_{<t}| |box_t \ {0}| q**(n-t) products, at most n (q - 1) q**n,
    # where one product per (j, m) takes J q**n.  The row a = 0 has the
    # weight F'_0 = 1 at every point: for p = 2 an XOR, no product and no read.
    # The weights are read only at the q**(n-t) points with no digit below t.
    cfg = FieldConfig(2)
    n, q = 8, 2
    boxes, _ = _digit_box(q, range(q ** n - 1, q ** n - 1 - J, -1))
    want, lower = 0, 1
    for t, box in enumerate(boxes):
        want += lower * (len(box) - (0 in box)) * q ** (n - t)
        lower *= len(box)
    products, reads = [], []
    fibre_sums = transforms._fibre_sums
    monkeypatch.setattr(transforms, "_fibre_sums", lambda cfg, weights, fibre: (
        products.append(sum(any(w != Poly.one(cfg) for w in row) for row in weights)
                        * sum(map(len, fibre)))
        or fibre_sums(cfg, weights, fibre)))
    name = "eval_G" if basis is Basis.CARLITZ_G else "eval_D"
    evaluate = getattr(transforms, name)

    def read(cfg, j, x, primed=False):
        reads.append((j, x.coeffs))
        return evaluate(cfg, j, x, primed=primed)
    monkeypatch.setattr(transforms, name, read)
    f = add_func(D_func(cfg, 4), monomial_func(cfg, 3))
    got = transforms._enumeration_coeffs([f], J, cfg, level, q ** n, basis)[0]
    assert len(got.coeffs) == J
    assert sum(products) == want <= n * (q - 1) * q ** n
    assert want == {256: n * (q - 1) * q ** n, 4: 1016}[J]
    assert len(reads) == sum((len(box) - (0 in box)) * q ** (n - t)
                             for t, box in enumerate(boxes))
    for j, coeffs in reads:
        t = j.bit_length() - 1
        assert j == q ** t and not any(coeffs[:t])


# ---------------------------------------------------------------------------
# Powered digit coefficients (closed double sum with the [m] twist)
# ---------------------------------------------------------------------------

def test_powered_coeffs_m0_reduces_to_plain(f2):
    # Coefficient for coefficient, with type and prec, for Poly and series
    # values.
    s = TruncSeries(f2, -2, [1, 1, 0, 1], 9)
    for f in (frobenius_func(f2, 1), scale_func(s, E_func(f2, 2))):
        a = powered_digit_coeffs(f, 0, 6).coeffs
        b = digit_coeffs_linear(f, 6).coeffs
        assert a == b
        assert [type(x) for x in a] == [type(y) for y in b]
        assert [getattr(x, "prec", None) for x in a] == [getattr(y, "prec", None)
                                                         for y in b]


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_powered_coeffs_form_no_bracket(monkeypatch, q):
    # One pass over the f(T**i): neither the [m]-power conversion weights
    # nor [m] itself is formed.
    cfg = FieldConfig(*FIELDS[q])
    s = TruncSeries(cfg, -1, [1, 2 % q, 1], 12)
    funcs = (add_func(E_func(cfg, 2), D_func(cfg, 1)), scale_func(s, E_func(cfg, 1)))
    want = [[powered_digit_coeffs_by_terms(f, m, 6) for m in (1, 2)] for f in funcs]

    def refuse(*args):
        raise AssertionError("[m] formed")
    monkeypatch.setattr(transforms, "convert_powered", refuse)
    monkeypatch.setattr(transforms, "bracket", refuse)
    for f, expected in zip(funcs, want):
        for m, w in zip((1, 2), expected):
            _assert_same_expansion(powered_digit_coeffs(f, m, 6), w)


class _Unpowered(int):
    """An exponent that fails the test when q**m is formed from it."""

    def __rpow__(self, base):
        raise AssertionError(f"{base}**{int(self)} formed")


@pytest.mark.parametrize("q,m", [(2, 17), (3, 11), (4, 9), (9, 6),
                                 (3, _Unpowered(10 ** 9))])
def test_powered_coeffs_budget_before_any_weight(monkeypatch, q, m):
    # q**m past DEGREE_BUDGET raises BudgetError before a weight is read
    # (the binomial rows of the shifted sums); at the largest admitted m
    # the weights are read.  m = 10**9 is refused without forming q**m.
    from carlitzbases import BudgetError
    from carlitzbases.carlitz import DEGREE_BUDGET

    def refuse(*args):
        raise AssertionError("weight built")
    monkeypatch.setattr(transforms, "_binomial_row", refuse)
    cfg = FieldConfig(*FIELDS[q])
    with pytest.raises(BudgetError):
        powered_digit_coeffs(D_func(cfg, 1), m, 4)
    if not isinstance(m, _Unpowered):
        assert q ** (m - 1) <= DEGREE_BUDGET
        with pytest.raises(AssertionError, match="weight built"):
            powered_digit_coeffs(D_func(cfg, 1), m - 1, 4)


@pytest.mark.parametrize("site", ["bracket", "carlitz_F", "e_poly", "eval_E"])
@pytest.mark.parametrize("n", [17, _Unpowered(3 * 10 ** 7)])
def test_degree_budget_sites_refuse_before_forming_the_power(site, n):
    # Every degree-budget site shares the predicate of powered_digit_coeffs
    # (carlitz._over_budget): an n at or past the budget's bit length is
    # refused with BudgetError and q**n is never formed.
    from carlitzbases import BudgetError, carlitz
    cfg = FieldConfig(3)
    call = {"bracket": lambda: carlitz.bracket(cfg, n),
            "carlitz_F": lambda: carlitz.carlitz_F(cfg, n),
            "e_poly": lambda: carlitz.e_poly(cfg, n),
            "eval_E": lambda: carlitz.eval_E(cfg, n, Poly.T(cfg))}[site]
    with pytest.raises(BudgetError):
        call()


def test_degree_budget_predicate_edges():
    # q**n against DEGREE_BUDGET = 2**16 on either side of the edge.
    from carlitzbases.carlitz import _over_budget
    assert [_over_budget(2, n) for n in (15, 16, 17)] == [False, False, True]
    assert [_over_budget(3, n) for n in (10, 11)] == [False, True]
    assert [_over_budget(256, n) for n in (2, 3)] == [False, True]
    assert _over_budget(3, _Unpowered(10 ** 9))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_powered_coeffs_of_truncated_values_match_exact(q, data):
    # f with its Poly values cut to O(T**P): every digit that a series
    # coefficient states is the exact coefficient's digit.
    cfg = FieldConfig(*FIELDS[q])
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    f = _closed_sum_function(cfg, rnd, "poly")
    P = data.draw(st.integers(1, 12))
    cut = LinearFunc(cfg, lambda x: f(x).to_series(P))
    N, m = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 2))
    exact = powered_digit_coeffs(f, m, N).coeffs
    for x, y in zip(powered_digit_coeffs(cut, m, N).coeffs, exact):
        assert isinstance(x, TruncSeries) and isinstance(y, Poly)
        assert values_match(x, y)


@pytest.mark.parametrize("m", [1, 2])
def test_powered_coeffs_delta_sequences(f2, m):
    for k in range(3):
        exp = powered_digit_coeffs(powered_D_func_local(f2, k, m), m, 5)
        for n, c in enumerate(exp.coeffs):
            expected = Poly.one(f2) if n == k else Poly.zero(f2)
            assert values_match(c, expected)


def powered_D_func_local(cfg, n, m):
    from carlitzbases.transforms import powered_D_func
    return powered_D_func(cfg, n, m)


@pytest.mark.parametrize("m", [1, 2])
def test_powered_coeffs_identity_function(f2, m):
    # beta_i = (-[m])^i for f = identity (the geometric conversion column).
    exp = powered_digit_coeffs(identity_func(f2), m, 5)
    br = bracket(f2, m)
    for i, c in enumerate(exp.coeffs):
        assert values_match(c, (-br) ** i)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1), (2, 0), (3, 0), (3, 2),
                                 (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2)])
def test_powered_coeffs_closed_sum_vs_iteration(q, m):
    # beta from the D-basis coefficients by the to_powered weights, against
    # literal iteration of (delta - [m] I); f scaled by a series of
    # valuation -2 gives series coefficients.  The closed form never knows
    # fewer digits than the iteration (an exact zero f(T^i) stays exact).
    cfg = FieldConfig(*FIELDS[q])
    s = TruncSeries(cfg, -2, [1] + [i % q for i in range(11)], 10)
    funcs = (identity_func(cfg), D_func(cfg, 1), D_func(cfg, 2), E_func(cfg, 1),
             frobenius_func(cfg, 1), scale_func(s, D_func(cfg, 1)),
             add_func(scale_func(s, E_func(cfg, 1)), frobenius_func(cfg, 1)))
    for f in funcs:
        a = powered_digit_coeffs(f, m, 6)
        b = powered_digit_coeffs_by_iteration(f, m, 6)
        assert a.m == m and a.basis is Basis.POWERED_D
        for x, y in zip(a.coeffs, b.coeffs):
            assert type(x) is type(y)
            assert values_match(x, y)
            if isinstance(x, TruncSeries):
                assert x.prec >= y.prec


def test_delta_minus_power_at_general_x(f2, rng):
    # Closed double sum at arbitrary x agrees with literal operator iteration.
    for m in (0, 1, 2):
        for n in range(4):
            f = D_func(f2, 1)
            g = f
            for _ in range(n):
                g = delta_minus(g, m)
            for _ in range(4):
                x = random_poly(f2, rng, 4)
                assert values_match(delta_minus_power_at(f, m, n, x), g(x))


# ---------------------------------------------------------------------------
# Basis matrices
# ---------------------------------------------------------------------------

def test_voloch_matrix_structure(f2):
    A = voloch_matrix(f2, 5, 16)
    for n in range(5):
        assert values_match(A.entry(n, n), Poly.one(f2))
        for m in range(n + 1, 5):
            assert values_match(A.entry(n, m), Poly.zero(f2))
    # A_{n,1} = (-1)^{n-1} L_{n-1}; over F_2, A_{2,1} = L_1 = T^2 + T.
    assert values_match(A.entry(2, 1), parse_poly(f2, "T^2+T"))
    for n in range(1, 5):
        assert values_match(A.entry(n, 1),
                            carlitz_L(f2, n - 1).scalar_mul(f2.sign(n - 1)))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_voloch_recurrence_matches_subset_sums(q):
    # The elementary-symmetric recurrence against the defining subset sums,
    # output for output, down to prec 1 and prec < size.
    cfg = FieldConfig(*FIELDS[q])
    for prec in (1, 5, 24):
        for size in range(1, (13 if q == 2 else 10) + 1):
            assert (voloch_matrix(cfg, size, prec).to_json()
                    == voloch_matrix_by_subsets(cfg, size, prec).to_json()), (size, prec)


def test_voloch_size_30_change_of_basis(f2):
    # D_m(x) = sum_n A[n][m] E_n(x) on x = T^k + O(T^P), k < size: E_n(T^k) = 0
    # for n > k, and the unknown part of x moves both sides by terms of
    # valuation >= P - m, so the identity holds to precision min(prec, P - m).
    size, prec, P = 30, 128, 120
    A = voloch_matrix(f2, size, prec)
    for k in range(size):
        x = TruncSeries.monomial(f2, k, 1, P)
        E = [eval_E(f2, n, x) for n in range(size)]
        for m in range(size):
            rhs = TruncSeries.zero(f2)
            for n in range(size):
                rhs = rhs + A.entry(n, m) * E[n]
            assert rhs.prec >= min(prec, P - m)
            assert values_match(hasse_derivative(f2, m, x), rhs), (m, k)


def test_voloch_valuation_bound(f3):
    A = voloch_matrix(f3, 5, 12)
    for n in range(5):
        for m in range(n + 1):
            nm = valuation_norm(A.entry(n, m))
            if nm.v is not None:
                assert nm.v >= n - m


def test_inverse_matrix_structure(f2):
    B = inverse_matrix(f2, 5)
    for n in range(5):
        assert B.entry(n, n) == Poly.one(f2)
        for m in range(n):
            assert B.entry(m, n).is_zero
        for m in range(n + 1, 5):
            # T divides B_{m,n} for m > n
            e = B.entry(m, n)
            assert e.is_zero or e.valuation >= 1


def test_inverse_matrix_hand_entry(f2):
    # B_{2,1} = sum_{i<=2} (-1)^{2-i} D_i(T^2) E_1(T^i), all terms exact.
    expected = Poly.zero(f2)
    for i in range(3):
        t = hasse_derivative(f2, i, Poly.monomial(f2, 2)) \
            * eval_E(f2, 1, Poly.monomial(f2, i))
        if i % 2 == 1:
            t = -t
        expected = expected + t
    assert inverse_matrix(f2, 3).entry(2, 1) == expected


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_matrix_product_is_identity(q):
    # A (truncated series) and B (exact) are inverse to all 24 digits of A:
    # every entry of A*B and B*A is known to T^24 and matches I there.
    cfg = FieldConfig(*FIELDS[q])
    A = voloch_matrix(cfg, 5, 24)
    B = inverse_matrix(cfg, 5)
    for left, right in ((A, B), (B, A)):
        block = matrix_product_block(left, right, 5)
        for i in range(5):
            for j in range(5):
                expected = Poly.one(cfg) if i == j else Poly.zero(cfg)
                assert block[i][j].prec >= 24, (i, j, block[i][j].prec)
                assert values_match(block[i][j], expected)


# ---------------------------------------------------------------------------
# Powered-basis conversions
# ---------------------------------------------------------------------------

def test_convert_powered_coefficients(f2):
    # to_plain: c_i = [m]^i C(i+n, n); to_powered: c_i = (-[m])^i C(i+n, n).
    br = bracket(f2, 1)
    plain = convert_powered(f2, 0, 1, 4, "to_plain")
    assert plain == [br ** i for i in range(4)]
    powered = convert_powered(f2, 0, 1, 4, "to_powered")
    assert powered == [(-br) ** i for i in range(4)]


@pytest.mark.parametrize("q,n,m", [(2, 0, 1), (2, 1, 1), (3, 1, 1), (2, 2, 2)])
def test_convert_powered_validated_on_monomials(q, n, m):
    # D_n^{q^m}(T^s) = sum_i c_i D_{i+n}(T^s): finite, exact.
    cfg = FieldConfig(q)
    count = 11
    coeffs = convert_powered(cfg, n, m, count, "to_plain")
    for s in range(11):
        t = Poly.monomial(cfg, s)
        lhs = powered_D(cfg, n, m, t)
        rhs = Poly.zero(cfg)
        for i, c in enumerate(coeffs):
            rhs = rhs + c * hasse_derivative(cfg, i + n, t)
        assert lhs == rhs
    # and the reverse direction: D_n(T^s) = sum_i c'_i D_{i+n}^{q^m}(T^s)
    back = convert_powered(cfg, n, m, count, "to_powered")
    for s in range(11):
        t = Poly.monomial(cfg, s)
        lhs = hasse_derivative(cfg, n, t)
        rhs = Poly.zero(cfg)
        for i, c in enumerate(back):
            rhs = rhs + c * powered_D(cfg, i + n, m, t)
        assert lhs == rhs


def test_convert_powered_voloch_special_case(f2):
    # n = 0, m = 1 reproduces x^q = sum [1]^i D_i(x) at x = T:
    # D_0(T)^2 = T^2 vs T + (T^2 + T).
    T = Poly.T(f2)
    assert powered_D(f2, 0, 1, T) == T + bracket(f2, 1) * hasse_derivative(f2, 1, T)


# ---------------------------------------------------------------------------
# Synthesis and expansion bookkeeping
# ---------------------------------------------------------------------------

def test_synthesize_basis_element(f2, rng):
    from carlitzbases.transforms import BasisExpansion
    k = 2
    coeffs = [Poly.zero(f2)] * k + [Poly.one(f2)]
    exp = BasisExpansion(f2, Basis.DIGIT_D, coeffs, tail_bound=Fraction(0))
    for _ in range(5):
        x = random_poly(f2, rng, 4)
        val, bound = synthesize(exp, x)
        assert values_match(val, eval_D(f2, k, x))
        assert bound == Fraction(0)


def test_basis_function_per_basis(f3, rng):
    # Each basis names its evaluator; a series input goes through as well.
    j, m = 5, 1
    expected = {
        Basis.CARLITZ_G: lambda x: eval_G(f3, j, x),
        Basis.LINEAR_E: lambda x: eval_E(f3, j, x),
        Basis.DIGIT_D: lambda x: eval_D(f3, j, x),
        Basis.LINEAR_D: lambda x: hasse_derivative(f3, j, x),
        Basis.POWERED_D: lambda x: powered_D(f3, j, m, x),
    }
    x = random_poly(f3, rng, 4)
    for basis, f in expected.items():
        g = transforms.basis_function(f3, basis, j, m)
        assert g(x) == f(x)
        assert g(x.to_series(40)).matches(f(x))
    with pytest.raises(DomainError, match="unknown basis"):
        transforms.basis_function(f3, "G", j)


def test_synthesize_roundtrip_G3(f2):
    exp = digit_coeffs(G_func(f2, 3), 4, f2)
    val, _ = synthesize(exp, Poly.T(f2))
    assert values_match(val, eval_G(f2, 3, Poly.T(f2)))


def test_synthesize_empty(f2):
    from carlitzbases.transforms import BasisExpansion
    exp = BasisExpansion(f2, Basis.DIGIT_D, [], tail_bound=Fraction(0))
    val, bound = synthesize(exp, Poly.T(f2))
    assert valuation_norm(val).value == 0
    assert bound == Fraction(0)


def test_sup_norm_law(f2, rng):
    # ||f|| = max |coeff| for a random finite expansion in an orthonormal basis.
    from carlitzbases.transforms import BasisExpansion
    coeffs = [random_poly(f2, rng, 2) for _ in range(5)]
    exp = BasisExpansion(f2, Basis.DIGIT_D, coeffs, tail_bound=Fraction(0))
    stated = max(valuation_norm(c).value for c in coeffs)
    empirical = Fraction(0)
    for x in poly_enumerate(f2, 4, "deg_lt"):
        val, _ = synthesize(exp, x)
        empirical = max(empirical, valuation_norm(val).value)
    assert empirical <= stated
    assert empirical == stated  # attained on representatives mod T^4


def test_integrality_transfer(f2):
    # Coefficients in O iff values on F_q[T] are in O: check both directions.
    exp = digit_coeffs(G_func(f2, 3), 4, f2)
    assert all(valuation_norm(c).value <= 1 for c in exp.coeffs)
    # scale by T^-1 to push one coefficient out of O: some value escapes too
    tinv = TruncSeries(f2, -1, (1,), 20)
    f_out = lambda m: eval_G(f2, 3, m) * tinv
    exp_out = digit_coeffs(f_out, 4, f2)
    assert any(valuation_norm(c).value > 1 for c in exp_out.coeffs)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_expansion_json(f2):
    exp = digit_coeffs_linear(frobenius_func(f2, 1), 4)
    doc = exp.to_json()
    assert doc["schema"] == "carlitzbases/v1"
    assert doc["basis"] == "linear-D"
    assert doc["trunc"] == 4
    assert doc["entries"][1] == "T^2+T"
    json.dumps(doc)  # serializable


def test_matrix_json_and_csv(f2):
    B = inverse_matrix(f2, 3)
    doc = B.to_json()
    assert doc["kind"] == "matrix-inverse"
    assert doc["size"] == 3
    json.dumps(doc)
    csv_text = B.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "row,col,entry"
    assert len(lines) == 1 + 9
