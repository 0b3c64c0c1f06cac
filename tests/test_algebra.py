"""Base arithmetic: field tables, Lucas binomials, polynomials, truncated series."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitzbases import (
    EXACT,
    BudgetError,
    DomainError,
    FieldConfig,
    Poly,
    TruncSeries,
    lucas_binom,
    parse_poly,
    poly_enumerate,
    valuation_norm,
)
from carlitzbases import algebra
from carlitzbases.algebra import pack, random_poly, random_series, slot_width, unpack
from oracles import (
    FIELDS,
    digitwise,
    field_tables_by_digits,
    field_tables_by_poly,
    first_irreducible_by_digits,
    frobenius_by_digits,
    pack_by_slots,
    schoolbook_mul,
    unpack_by_slots,
)


# ---------------------------------------------------------------------------
# FieldConfig
# ---------------------------------------------------------------------------

def test_field_basic_examples(f2, f3, f4):
    assert f2.add(1, 1) == 0
    assert f3.inv(2) == 2
    # F_4 in the basis of u^2 + u + 1: u is code 2, u + 1 is code 3.
    assert f4.mul(2, 2) == 3


def test_nonprime_p_rejected():
    with pytest.raises(DomainError):
        FieldConfig(4)
    with pytest.raises(DomainError):
        FieldConfig(1)


def test_reducible_modulus_rejected():
    # u^2 + 1 = (u + 1)^2 over F_2.
    with pytest.raises(DomainError):
        FieldConfig(2, 2, modulus=(1, 0, 1))


def test_modulus_for_prime_field_rejected():
    with pytest.raises(DomainError):
        FieldConfig(2, 1, modulus=(1, 1, 1))
    with pytest.raises(DomainError):
        FieldConfig(3, modulus=(1, 1))


def test_equal_configs_hash_once_and_share_caches():
    # Configs built separately but equal are one lru_cache key; another
    # irreducible modulus for the same q is another field and another key.
    from carlitzbases import bracket
    a, b = FieldConfig(2, 3, (1, 1, 0, 1)), FieldConfig(2, 3)
    other = FieldConfig(2, 3, (1, 0, 1, 1))
    assert a is not b and a == b and hash(a) == hash(b) and a == a
    assert other != a and a != other
    value = bracket(a, 1)
    hits = bracket.cache_info().hits
    assert bracket(b, 1) is value
    assert bracket.cache_info().hits == hits + 1
    assert bracket(other, 1) is not value
    assert Poly(a, (1, 2)) == Poly(b, (1, 2)) != Poly(other, (1, 2))
    assert len({Poly(a, (1, 2)), Poly(b, (1, 2))}) == 1


@pytest.mark.parametrize("q,p,e,modulus", [(32, 2, 5, (1, 0, 1, 0, 0, 1)),
                                           (49, 7, 2, (1, 0, 1))])
def test_default_modulus_searched_when_none_shipped(q, p, e, modulus):
    # The first irreducible monic modulus in code order (constant term
    # fastest): every earlier code is reducible, and the field built on it
    # inverts every nonzero element.
    assert q not in algebra.DEFAULT_MODULI
    cfg = FieldConfig(p, e)
    assert cfg.q == q and cfg.modulus == modulus
    assert algebra._is_irreducible(modulus, p)
    code = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
    assert not any(algebra._is_irreducible(algebra._monic(k, e, p), p)
                   for k in range(code))
    assert all(cfg.mul(a, cfg.inv(a)) == 1 for a in range(1, q))


def test_shipped_moduli_kept():
    # The search is only for a q with none shipped: for q = 25 it would pick
    # u^2 + 2, not the shipped u^2 + u + 1, and change every q = 25 output.
    # A shipped modulus is not tested when a field is built: test it here.
    for q, modulus in algebra.DEFAULT_MODULI.items():
        p = min(d for d in range(2, q + 1) if q % d == 0)
        assert algebra._is_irreducible(modulus, p)
        assert FieldConfig(p, len(modulus) - 1).modulus == modulus


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_default_modulus_is_the_first_irreducible_but_for_q25(p, e):
    # q = 4, 8, 9, 16 and 27 need no shipped modulus: the first irreducible
    # one is the modulus they always had.  q = 25 keeps u^2 + u + 1.
    modulus = FieldConfig(p, e).modulus
    if p ** e == 25:
        assert modulus == (1, 1, 1) != algebra._first_irreducible(p, e)
    else:
        assert modulus == algebra._first_irreducible(p, e)


@pytest.mark.parametrize("p,e,modulus", [(3, 3, None), (2, 4, None),
                                         (2, 2, (1, 1, 1)), (3, 2, (2, 2, 1))])
def test_field_tests_each_modulus_once(monkeypatch, p, e, modulus):
    # A searched modulus is tested as a candidate only, a given one once,
    # each over the one F_p that its search or test builds.
    tested, built = [], []
    is_irreducible = algebra._is_irreducible

    def counted(m, p, fp=None):
        tested.append(m)
        return is_irreducible(m, p, fp)

    class Counted(FieldConfig):
        def __init__(self, p, e=1, modulus=None):
            built.append((p, e))
            super().__init__(p, e, modulus)
    monkeypatch.setattr(algebra, "_is_irreducible", counted)
    monkeypatch.setattr(algebra, "FieldConfig", Counted)
    cfg = Counted(p, e, modulus)
    code = sum(c * p ** i for i, c in enumerate(cfg.modulus[:-1]))
    searched = [algebra._monic(k, e, p) for k in range(code + 1)]
    assert tested == (searched if modulus is None else [modulus])
    assert built == [(p, e), (p, 1)]


def _table_fields():
    """(p, e, modulus) of q = 4, 8, 9, 16, 25 and 27, the moduli these
    fields have always had, and of the searched moduli of q = 32 and 49."""
    yield 2, 2, (1, 1, 1)
    yield 2, 3, (1, 1, 0, 1)
    yield 3, 2, (1, 0, 1)
    yield 2, 4, (1, 1, 0, 0, 1)
    yield 5, 2, (1, 1, 1)
    yield 3, 3, (1, 2, 0, 1)
    yield 2, 5, (1, 0, 1, 0, 0, 1)
    yield 7, 2, (1, 0, 1)


@pytest.mark.parametrize("p,e,modulus", list(_table_fields()))
def test_field_tables_match_digit_oracle(p, e, modulus):
    # The tables built by F_p-linearity equal the digit-list reference on
    # every pair, and so does the Kronecker fold table.
    cfg = FieldConfig(p, e)
    assert cfg.modulus == modulus
    ref = field_tables_by_digits(p, e, modulus)
    assert cfg.add_table == ref["add"]
    assert cfg.neg_table == ref["neg"]
    assert cfg.mul_table == ref["mul"]
    assert cfg.inv_table == ref["inv"]
    assert cfg.fold_table == ref["fold"]


@pytest.mark.parametrize("q", sorted(FIELDS) + [16, 27, 256])
def test_field_tables_match_poly_products(q):
    # The addition and multiplication tables, built by F_p-linearity, equal
    # every digitwise sum and every Poly product over F_p reduced mod the
    # modulus; q = 256 is the largest table.
    p, e = {**FIELDS, 16: (2, 4), 27: (3, 3), 256: (2, 8)}[q]
    cfg = FieldConfig(p, e)
    ref = field_tables_by_poly(p, e, cfg.modulus or (0, 1))
    assert cfg.add_table == ref["add"]
    assert cfg.mul_table == ref["mul"]
    assert all(cfg.add_table[a][cfg.neg_table[a]] == 0 for a in range(q))
    assert all(cfg.mul_table[a][cfg.inv_table[a]] == 1 for a in range(1, q))


@pytest.mark.parametrize("p,e", [(2, 5), (7, 2), (2, 6), (3, 4)])
def test_first_irreducible_matches_digit_oracle(p, e):
    # q = 32, 49, 64, 81: the Poly trial division picks the same modulus
    # as the digit-list search.
    assert algebra._first_irreducible(p, e) == first_irreducible_by_digits(p, e)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, e):
    cfg = FieldConfig(p, e)
    q = cfg.q
    els = range(q)
    for a in els:
        assert cfg.add(a, 0) == a
        assert cfg.mul(a, 1) == a
        assert cfg.add(a, cfg.neg(a)) == 0
        if a != 0:
            assert cfg.mul(a, cfg.inv(a)) == 1
        for b in els:
            assert cfg.add(a, b) == cfg.add(b, a)
            assert cfg.mul(a, b) == cfg.mul(b, a)
            for c in els:
                assert cfg.mul(a, cfg.add(b, c)) == cfg.add(cfg.mul(a, b),
                                                            cfg.mul(a, c))
                assert cfg.mul(cfg.mul(a, b), c) == cfg.mul(a, cfg.mul(b, c))


def test_inv_zero_is_domain_error(f2):
    with pytest.raises(DomainError):
        f2.inv(0)


def test_sign(f3):
    assert f3.sign(0) == 1
    assert f3.sign(1) == 2  # -1 in F_3
    assert f3.sign(2) == 1


# ---------------------------------------------------------------------------
# Lucas binomials
# ---------------------------------------------------------------------------

def test_lucas_examples():
    assert lucas_binom(3, 1, 2) == 1
    assert lucas_binom(2, 1, 2) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_vs_exact_binomial(p):
    for a in range(65):
        for b in range(65):
            assert lucas_binom(a, b, p) == math.comb(a, b) % p


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_lucas_q_power_minus_one(q, m):
    # C(q^m - 1, alpha) = (-1)^alpha mod p.
    p = 2 if q in (2, 4) else 3
    for alpha in range(q ** m):
        assert lucas_binom(q ** m - 1, alpha, p) == (p - 1) ** alpha % p


def test_lucas_spot_large():
    rnd = random.Random(7)
    for _ in range(200):
        a = rnd.randrange(1 << 16)
        b = rnd.randrange(1 << 16)
        assert lucas_binom(a, b, 2) == math.comb(a, b) % 2


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

def test_poly_normalization(f2):
    z = Poly(f2, (0, 0))
    assert z.is_zero and z.degree == -1
    p = Poly(f2, (1, 1, 0))
    assert p.degree == 1


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_coefficients_are_bytes_from_any_iterable(q):
    # A list, tuple, generator, bytes or bytearray of the same codes builds
    # equal Polys and equal series, each holding its codes as bytes (trailing
    # zeros, and a series' leading ones, stripped) with equal hashes.  A
    # tuple of codes is not the bytes it holds.
    cfg = FieldConfig(*FIELDS[q])
    codes = [0, q - 1, 0, 1, q // 2, 0, 0]
    sources = (lambda: list(codes), lambda: tuple(codes), lambda: iter(codes),
               lambda: bytes(codes), lambda: bytearray(codes))
    polys = [Poly(cfg, make()) for make in sources]
    series = [TruncSeries(cfg, 2, make(), 12) for make in sources]
    for values, stored in ((polys, bytes(codes[:5])), (series, bytes(codes[1:5]))):
        assert all(type(x.coeffs) is bytes and x.coeffs == stored for x in values)
        assert all(x == values[0] for x in values)
        assert len({hash(x) for x in values}) == 1
    assert series[0].v == 3
    assert polys[0].coeffs != tuple(codes[:5])


def test_poly_text_roundtrip(f2, f3):
    for cfg, text in [(f2, "T^4+T"), (f3, "T^3+2*T"), (f2, "1"), (f2, "0"),
                      (f2, "T^2+T+1")]:
        assert parse_poly(cfg, text).text() == text
    # the star on scalar multiples is optional on input
    assert parse_poly(f3, "T^3+2T") == parse_poly(f3, "T^3+2*T")


def test_poly_divmod_and_exact_div(f2):
    a = parse_poly(f2, "T^4+T")
    b = parse_poly(f2, "T^2+T")
    q, r = a.divmod(b)
    assert q * b + r == a
    c = a * b
    assert c.exact_div(b) == a


def test_poly_frobenius(f2):
    p = parse_poly(f2, "T^2+T")
    assert p.frobenius(1) == parse_poly(f2, "T^4+T^2")


@pytest.mark.parametrize("m", [-1, -3])
def test_negative_frobenius_power_is_domain_error(f2, m):
    x = parse_poly(f2, "T^2+T")
    for value in (x, x.to_series(8)):
        with pytest.raises(DomainError, match="Frobenius power"):
            value.frobenius(m)


@given(st.integers(0, 1), st.data())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(which, data):
    cfg = FieldConfig(2) if which == 0 else FieldConfig(3)
    rnd = random.Random(data.draw(st.integers(0, 2 ** 30)))
    a = random_poly(cfg, rnd, 6)
    b = random_poly(cfg, rnd, 6)
    c = random_poly(cfg, rnd, 6)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# poly_enumerate
# ---------------------------------------------------------------------------

def test_enumerate_examples(f2):
    texts = [p.text() for p in poly_enumerate(f2, 1, "deg_lt")]
    assert texts == ["0", "1"]
    texts = [p.text() for p in poly_enumerate(f2, 2, "deg_lt")]
    assert texts == ["0", "1", "T", "T+1"]
    texts = [p.text() for p in poly_enumerate(f2, 1, "monic_deg_eq")]
    assert texts == ["T", "T+1"]


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2)])
def test_enumerate_counts(q, n):
    cfg = FieldConfig(2, 2) if q == 4 else FieldConfig(q)
    lt = poly_enumerate(cfg, n, "deg_lt")
    assert len(lt) == q ** n
    assert len(set(p.text() for p in lt)) == q ** n
    mo = poly_enumerate(cfg, n, "monic_deg_eq")
    assert len(mo) == q ** n
    assert all(p.is_monic and p.degree == n for p in mo)


def test_enumerate_budget(f2):
    with pytest.raises(BudgetError):
        poly_enumerate(f2, 9, "deg_lt", budget=256)


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------

def test_series_frobenius_example(f2):
    x = TruncSeries(f2, 1, (1, 1), 8)  # T + T^2 known mod T^8
    y = x.frobenius(1)
    assert y.prec == 16
    assert y.matches(parse_poly(f2, "T^4+T^2"))


def test_series_invert_unit_example(f2):
    # 1/[1] = 1/(T^2+T): valuation -1, output precision 6 - 2*1 = 4.
    x = parse_poly(f2, "T^2+T").to_series(6)
    y = x.invert_unit()
    assert y.prec == 4
    # long-division oracle: (T^2+T) * y == 1 on the known digits
    prod = x * y
    assert prod.matches(Poly.one(f2))
    assert y.valuation == -1
    for i in range(-1, 4):
        assert y.coeff(i) == 1


def test_series_add_min_prec(f2):
    a = TruncSeries(f2, 0, (1, 1), 4)  # 1 + T mod T^4
    b = TruncSeries(f2, 1, (1,), 2)    # T mod T^2
    s = a + b
    assert s.prec == 2
    assert s.coeff(0) == 1 and s.coeff(1) == 0


def test_series_zero_to_prec(f2):
    z = TruncSeries.zero(f2, 10)
    assert z.is_zero_to_prec
    n = valuation_norm(z)
    assert n.is_bound and n.value == pytest.approx(2 ** -10)
    with pytest.raises(DomainError):
        z.invert_unit()


def test_valuation_norm_examples(f2):
    x = parse_poly(f2, "T^3+T^2")
    n = valuation_norm(x)
    assert n.v == 2 and n.value == pytest.approx(2 ** -2)
    y = TruncSeries(f2, -1, (1, 1), 5)  # T^-1 + 1
    n = valuation_norm(y)
    assert n.v == -1 and n.value == 2


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_series_frobenius_is_ring_hom(seed):
    cfg = FieldConfig(3)
    rnd = random.Random(seed)
    x = random_series(cfg, rnd, 8)
    y = random_series(cfg, rnd, 8)
    assert (x * y).frobenius(1).matches(x.frobenius(1) * y.frobenius(1))
    assert (x + y).frobenius(1).matches(x.frobenius(1) + y.frobenius(1))


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_precision_soundness(seed):
    # Truncating inputs then operating agrees with operating exactly then
    # truncating to the contracted output precision.
    cfg = FieldConfig(2)
    rnd = random.Random(seed)
    a = random_poly(cfg, rnd, 10)
    b = random_poly(cfg, rnd, 10)
    N = 6
    at, bt = a.to_series(N), b.to_series(N)
    exact_sum = (a + b).to_series(EXACT)
    assert (at + bt).matches(exact_sum)
    exact_prod = (a * b).to_series(EXACT)
    assert (at * bt).matches(exact_prod)
    assert at.frobenius(1).matches(a.frobenius(1).to_series(EXACT))


def test_mixed_poly_series_ops(f2):
    p = parse_poly(f2, "T^2+T")
    s = TruncSeries(f2, 0, (1,), 5)  # 1 mod T^5
    assert (p + s).coeff(1) == 1
    assert (p * s).matches(p)
    assert isinstance(p + s, TruncSeries)


def test_series_drops_digits_past_precision(f2):
    # A window that starts at or past the precision is zero to precision.
    assert TruncSeries(f2, 3, (1, 1, 1), 1).text() == "O(T^1)"
    assert TruncSeries(f2, 2, (1, 1, 1, 1), 10).truncate(1).text() == "O(T^1)"
    assert TruncSeries(f2, 2, (1, 1, 1, 1), 10).truncate(3).text() == "T^2+O(T^3)"


def test_mul_truncation_edges(f2):
    # Zero to precision at its own valuation: the product is zero to
    # precision v_a + v_b.
    zero = TruncSeries(f2, -2, (1, 1), -2)
    cube = TruncSeries.monomial(f2, 3)
    assert zero * cube == TruncSeries.zero(f2, 1)
    # One known digit: the product keeps exactly one digit.
    x = TruncSeries(f2, -1, (1,), 0)
    assert x * parse_poly(f2, "T^3+T^2") == TruncSeries(f2, 1, (1,), 2)
    assert parse_poly(f2, "T^3+T^2") * x == TruncSeries(f2, 1, (1,), 2)


_MUL_FIELDS = {q: FieldConfig(*pe) for q, pe in FIELDS.items()}


def _operand(cfg, data, v_min=-3, v_max=6, long=False):
    # A Poly, an exact series, or a truncated series whose window starts at
    # v_min..v_max, of any precision down to zero to precision (prec == v).
    # Long operands have 16-300 coefficients, sparse or dense.
    kind = data.draw(st.sampled_from(("poly", "exact", "trunc")))
    if long:
        digits = _long_digits(cfg, data.draw(st.integers(16, 300)),
                              data.draw(st.sampled_from((0.1, 0.3, 0.7, 1.0))),
                              data.draw(st.integers(0, 2 ** 32)))
    else:
        digits = data.draw(st.lists(st.integers(0, cfg.q - 1), max_size=12))
    if kind == "poly":
        return Poly(cfg, digits)
    v = data.draw(st.integers(v_min, v_max))
    if kind == "exact":
        return TruncSeries(cfg, v, digits, EXACT)
    return TruncSeries(cfg, v, digits, v + data.draw(st.integers(0, len(digits) + 3)))


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook(q, data):
    # Poly.__mul__ and TruncSeries.__mul__ share one truncating kernel; the
    # schoolbook oracle forms every coefficient pair and truncates last.
    cfg = _MUL_FIELDS[q]
    a, b = _operand(cfg, data), _operand(cfg, data)
    for x, y in ((a, b), (b, a)):
        got, expected = x * y, schoolbook_mul(x, y)
        assert type(got) is type(expected)
        assert got == expected


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_mul_long_operands_match_schoolbook(q, data):
    # As above with one or both operands long, reaching both sides of the
    # Kronecker crossover; the kernel itself must return exactly the first
    # ``size`` coefficients.
    long_a = data.draw(st.booleans())
    cfg = _MUL_FIELDS[q]
    a = _operand(cfg, data, long=long_a)
    b = _operand(cfg, data, long=not long_a or data.draw(st.booleans()))
    for x, y in ((a, b), (b, a)):
        got, expected = x * y, schoolbook_mul(x, y)
        assert type(got) is type(expected)
        assert got == expected
    full = schoolbook_mul(Poly(cfg, a.coeffs), Poly(cfg, b.coeffs))
    size = data.draw(st.integers(0, len(a.coeffs) + len(b.coeffs)))
    assert algebra._mul(cfg, a.coeffs, b.coeffs, size) == \
        bytes(full.coeff(i) for i in range(size))


def _long_digits(cfg, length, density, seed):
    # ``length`` coefficients, each nonzero with probability ``density``.
    rng = random.Random(seed)
    return [rng.randrange(1, cfg.q) if rng.random() < density else 0
            for _ in range(length)]


def _kernel_widths(monkeypatch):
    # The slot width of every pack call the kernel makes.
    widths = []
    packer = algebra.pack
    monkeypatch.setattr(algebra, "pack",
                        lambda cfg, coeffs, width: widths.append(width)
                        or packer(cfg, coeffs, width))
    return widths


@pytest.mark.parametrize("q,shorter,longer,width", [
    # q = 2: slot bound = shorter length, 8 -> 16 bits from 256 on.
    (2, 255, 255, 8), (2, 256, 256, 16), (2, 255, 600, 8),
    # q = 9: slot bound = shorter length * e * (p - 1)**2 = 8 * length.
    (9, 31, 300, 8), (9, 32, 300, 16),
    # q = 8: slot bound = shorter length * e * (p - 1)**2 = 3 * length.
    (8, 85, 300, 8), (8, 86, 300, 16),
])
def test_kronecker_mul_at_slot_width_steps(monkeypatch, q, shorter, longer, width):
    # All-(q-1) factors fill the middle slots to exactly the slot bound; the
    # width follows the shorter factor, and the Kronecker product, full or
    # truncated inside the shorter factor or past it, equals schoolbook's.
    # The kernel is called directly: for p = 2 and e > 1 (q = 8) ``_mul``
    # takes the row kernel at every length.
    cfg = _MUL_FIELDS[q]
    widths = _kernel_widths(monkeypatch)
    a = Poly(cfg, [q - 1] * shorter)
    b = Poly(cfg, [q - 1] * longer)
    expected = schoolbook_mul(a, b)
    assert a * b == expected and b * a == expected
    for size in (shorter + longer - 1, shorter // 2, shorter + longer // 2):
        widths.clear()
        assert algebra._mul_kronecker(cfg, a.coeffs, b.coeffs, size) == \
            bytes(expected.coeff(i) for i in range(size))
        assert widths == [width] * 2
    for prec in (shorter // 2, shorter + longer // 2):
        got = a.to_series(prec) * b.to_series()
        assert got == schoolbook_mul(a.to_series(prec), b.to_series())


def test_mul_dispatch_takes_each_path(monkeypatch):
    # A product is packed when the loop work, the nonzero coefficients of
    # the shorter factor times the longer factor's length, exceeds
    # KRONECKER_CROSSOVER[p == 2, e > 1] times the slot count
    # (2e - 1)(len a + len b): a dense one and one with a single nonzero
    # over the bound are packed, one at the bound takes the loop kernel,
    # in either operand order.  The loop kernel is the row kernel for p = 2
    # (q = 2) and the schoolbook loop for odd p (q = 3, 9); for p = 2 and
    # e > 1 (q = 8) the constant is inf, and even a dense product takes
    # the rows.
    paths = []
    for name in ("_mul_rows", "_mul_schoolbook", "_mul_kronecker"):
        monkeypatch.setattr(algebra, name,
                            lambda *args, name=name, kernel=getattr(algebra, name):
                            paths.append(name) or kernel(*args))
    shorter, longer = 48, 64
    for q in (2, 3, 8, 9):
        cfg = _MUL_FIELDS[q]
        constant = algebra.KRONECKER_CROSSOVER[cfg.p == 2, cfg.e > 1]
        loop = "_mul_rows" if cfg.p == 2 else "_mul_schoolbook"
        if constant == math.inf:
            cases = ((shorter, loop),)
        else:
            slots = (2 * cfg.e - 1) * (shorter + longer)
            most = int(constant * slots / longer)
            cases = ((shorter, "_mul_kronecker"), (most + 1, "_mul_kronecker"),
                     (most, loop))
        b = Poly(cfg, _long_digits(cfg, longer, 1.0, 5))
        for nonzero, path in cases:
            digits = [0] * shorter
            for i in random.Random(nonzero).sample(range(shorter - 1), nonzero - 1):
                digits[i] = q - 1
            digits[-1] = 1
            a = Poly(cfg, digits)
            for x, y in ((a, b), (b, a)):
                expected = schoolbook_mul(x, y)
                paths.clear()
                assert x * y == expected
                assert paths == [path]


# The fields of characteristic 2, where sums are XORs: those of FIELDS,
# q = 16 and q = 256, whose rows fill all 256 bytes of a translate table.
_CHAR2_FIELDS = {q: FieldConfig(2, q.bit_length() - 1) for q in (2, 4, 8, 16, 256)}


@given(st.sampled_from(sorted(_CHAR2_FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_row_kernel_matches_schoolbook(q, data):
    # The row kernel against the schoolbook oracle: random, dense all-(q-1)
    # and empty factors, cut to any size, inside the shorter factor or past
    # it; then Poly and series products through the operators.
    cfg = _CHAR2_FIELDS[q]

    def factor():
        kind = data.draw(st.sampled_from(("random", "dense", "empty")))
        if kind == "empty":
            return b""
        if kind == "dense":
            return bytes([q - 1]) * data.draw(st.integers(1, 60))
        return bytes(data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                        max_size=60)))

    a, b = factor(), factor()
    full = schoolbook_mul(Poly(cfg, a), Poly(cfg, b))
    size = data.draw(st.integers(0, len(a) + len(b)))
    shorter, longer = sorted((a[:size], b[:size]), key=len)
    assert algebra._mul_rows(cfg, shorter, longer, size) == \
        bytes(full.coeff(i) for i in range(size))
    x, y = _operand(cfg, data), _operand(cfg, data, long=data.draw(st.booleans()))
    for u, w in ((x, y), (y, x)):
        assert_same(u * w, schoolbook_mul(u, w))


@given(st.sampled_from(sorted(_CHAR2_FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_xor_add_matches_digitwise(q, data):
    # For p = 2 ``_add`` is one XOR of the code strings: against the
    # table sum digit by digit, the longer string's tail kept, for strings
    # of any lengths (empty and trailing zeros included).
    cfg = _CHAR2_FIELDS[q]
    digits = st.lists(st.integers(0, q - 1), max_size=20)
    a, b = bytes(data.draw(digits)), bytes(data.draw(digits))
    n = max(len(a), len(b))
    a_pad, b_pad = a.ljust(n, b"\0"), b.ljust(n, b"\0")
    assert bytes(algebra._add(cfg, a, b)) == \
        bytes(cfg.add(x, y) for x, y in zip(a_pad, b_pad))


@pytest.mark.parametrize("q", [3, 4, 9, 16])
def test_product_sums_with_empty_factors(q):
    # Weighted sums of products where factors are empty (zero), on the XOR
    # path (q = 4, 16) and the packed one (q = 3, 9): an empty product adds
    # nothing, and a sum of only empty products is b"".
    cfg = FieldConfig(*{3: (3, 1), 4: (2, 2), 9: (3, 2), 16: (2, 4)}[q])
    a = bytes([q - 1, 1, 0, 2])
    left, right = [b"", a, b"", a, a], [b"", b"", a, b"\1", a]
    sums = algebra.product_sums(cfg, left, right, 2 * len(left))
    assert sums([(0, 1), (1, 1), (2, 1)]) == b""
    assert sums([]) == b""
    square = schoolbook_mul(Poly(cfg, a), Poly(cfg, a))
    assert sums(enumerate([1] * len(left))) == (square + Poly(cfg, a)).coeffs


# The fields of the packing tests and of the translate rows: those of the
# differential tests, the largest of each characteristic up to q = 256,
# p = 127, whose byte lanes must be reduced after every two wide-slot byte
# planes, and p = 251 > 128, whose residues a byte lane cannot sum.
_KERNEL_FIELDS = {q: FieldConfig(p, e) for q, (p, e) in
                  {**FIELDS, 16: (2, 4), 32: (2, 5), 49: (7, 2), 243: (3, 5),
                   256: (2, 8), 127: (127, 1), 251: (251, 1)}.items()}


@given(st.sampled_from(sorted(_KERNEL_FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_poly_add_neg_scale_match_digitwise(q, data):
    # The table-indexed element operations (negation and scaling translate
    # the codes by 256-byte rows) against one field call per digit.
    cfg = _KERNEL_FIELDS[q]
    digits = st.lists(st.integers(0, q - 1), max_size=10)
    a, b = Poly(cfg, data.draw(digits)), Poly(cfg, data.draw(digits))
    c = data.draw(st.integers(0, q - 1))
    n = max(len(a.coeffs), len(b.coeffs))
    assert a + b == Poly(cfg, [cfg.add(a.coeff(i), b.coeff(i)) for i in range(n)])
    assert a - b == Poly(cfg, [cfg.sub(a.coeff(i), b.coeff(i)) for i in range(n)])
    assert -a == Poly(cfg, [cfg.neg(x) for x in a.coeffs])
    assert a.scalar_mul(c) == Poly(cfg, [cfg.mul(c, x) for x in a.coeffs])


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_series_add_neg_scale_frobenius_match_digitwise(q, data):
    # TruncSeries shares Poly's addition and Frobenius kernels; the oracle
    # works one exponent at a time.  The second window may start past the
    # first one's end (disjoint windows) or overlap it.
    cfg = _MUL_FIELDS[q]
    a = _operand(cfg, data)
    if data.draw(st.booleans()):
        end = len(a.coeffs) + (a.v if isinstance(a, TruncSeries) else 0)
        b = _operand(cfg, data, end, end + 4)
    else:
        b = _operand(cfg, data)
    c = data.draw(st.integers(0, q - 1))
    m = data.draw(st.integers(0, 2))
    for x, y in ((a, b), (b, a)):
        assert_same(x + y, digitwise(cfg.add, x, y))
        assert_same(x - y, digitwise(cfg.sub, x, y))
    assert_same(-a, digitwise(cfg.neg, a))
    # 0 * a is exactly zero, whatever a's precision.
    zero = Poly.zero(cfg) if isinstance(a, Poly) else TruncSeries.zero(cfg)
    scaled = digitwise(lambda d: cfg.mul(c, d), a) if c else zero
    assert_same(a.scalar_mul(c), scaled)
    assert_same(a.frobenius(m), frobenius_by_digits(a, m))


def assert_same(got, expected):
    assert type(got) is type(expected)
    assert got == expected


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_sums_match_schoolbook(q, data):
    # sum a_i * b_i through pack / integer products / unpack, against the
    # schoolbook products: empty sums, zero and length-1 operands included.
    cfg = _MUL_FIELDS[q]
    digits = st.lists(st.integers(0, q - 1), max_size=9)
    pairs = data.draw(st.lists(st.tuples(digits, digits), max_size=6))
    pairs = [(Poly(cfg, a), Poly(cfg, b)) for a, b in pairs]
    length = min(max((len(x.coeffs) for x in side), default=0)
                 for side in zip(*pairs)) if pairs else 0
    width = slot_width(cfg, len(pairs), length)
    packed = sum(pack(cfg, a.coeffs, width) * pack(cfg, b.coeffs, width)
                 for a, b in pairs)
    expected = Poly.zero(cfg)
    for a, b in pairs:
        expected = expected + schoolbook_mul(a, b)
    codes = unpack(cfg, packed, width)
    assert Poly(cfg, codes) == expected and not codes.endswith(b"\0")
    for a, _ in pairs:
        assert Poly(cfg, unpack(cfg, pack(cfg, a.coeffs, width), width)) == a


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_packed_sum_at_slot_width_bound(q):
    # All-(p-1) digits with the slot bound terms * length * e * (p-1)**2 at
    # its largest value below 2**8: the fullest slot holds exactly that
    # bound, and one more term moves the width to 16 bits.
    cfg = _MUL_FIELDS[q]
    p, e = cfg.p, cfg.e
    top = q - 1  # every base-p digit is p - 1
    length = 3
    terms = 255 // (length * e * (p - 1) ** 2)
    assert slot_width(cfg, terms, length) == 8
    assert slot_width(cfg, terms + 1, length) == (
        8 if (terms + 1) * length * e * (p - 1) ** 2 < 256 else 16)
    a = Poly(cfg, [top] * length)
    packed = terms * pack(cfg, a.coeffs, 8) ** 2
    expected = Poly.zero(cfg)
    for _ in range(terms):
        expected = expected + schoolbook_mul(a, a)
    assert Poly(cfg, unpack(cfg, packed, 8)) == expected
    middle = packed >> (8 * (2 * e - 1) * (length - 1) + 8 * (e - 1))
    assert middle & 0xFF == terms * length * e * (p - 1) ** 2


def test_slot_width_steps():
    f2 = _MUL_FIELDS[2]
    assert [slot_width(f2, 1, n) for n in (0, 255, 256, 2 ** 16, 2 ** 32)] == \
        [8, 8, 16, 32, 64]
    with pytest.raises(BudgetError):
        slot_width(f2, 2 ** 32, 2 ** 32)


@given(st.sampled_from(sorted(_KERNEL_FIELDS)), st.sampled_from((8, 16, 32, 64)),
       st.data())
@settings(max_examples=400, deadline=None)
def test_pack_unpack_match_slot_oracles(q, width, data):
    # pack against the slot-by-slot definition, for list, tuple and bytes
    # input (e = 1 at 8 bits reads the codes as one int), and unpack
    # against the per-slot loop on values whose slots reach 2**width - 1,
    # the most that slot_width admits at that width; empty and all-zero
    # sequences and slots included.
    cfg = _KERNEL_FIELDS[q]
    codes = data.draw(st.lists(st.integers(0, q - 1), max_size=30))
    packed = pack(cfg, codes, width)
    assert packed == pack_by_slots(cfg, codes, width)
    for form in (tuple, bytes):
        assert pack(cfg, form(codes), width) == packed
    assert unpack(cfg, packed, width) == bytes(codes).rstrip(b"\0")
    top = (1 << width) - 1
    slot = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    slots = data.draw(st.lists(slot, max_size=30 * (2 * cfg.e - 1)))
    value = sum(s << width * i for i, s in enumerate(slots))
    assert unpack(cfg, value, width) == unpack_by_slots(cfg, value, width)


@pytest.mark.parametrize("q", sorted(_KERNEL_FIELDS))
@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_pack_unpack_empty_and_zero(q, width):
    cfg = _KERNEL_FIELDS[q]
    for codes in ([], [0], [0] * 7):
        assert pack(cfg, codes, width) == 0
    assert unpack(cfg, 0, width) == b""
    full = [q - 1] * 5
    assert unpack(cfg, pack(cfg, [0, 0] + full + [0], width), width) == \
        bytes([0, 0] + full)


def _left_fold_power(x, a):
    out = x
    for _ in range(a - 1):
        out = schoolbook_mul(out, x)
    return out


@pytest.mark.parametrize("q", [2, 4, 9])
def test_power_products(monkeypatch, q):
    # x**1 costs no product and x**a at most 2 * bit_length(a) - 2; values
    # equal the left-fold product x * x * ... * x.
    cfg = _MUL_FIELDS[q]
    rng = random.Random(q)
    calls = []
    kernel = algebra._mul
    monkeypatch.setattr(algebra, "_mul",
                        lambda *args: calls.append(1) or kernel(*args))
    for x in (random_poly(cfg, rng, 4, nonzero=True),
              TruncSeries(cfg, 1, [rng.randrange(1, q)] + [rng.randrange(q)
                                                            for _ in range(7)], 30)):
        for a in range(1, 20):
            calls.clear()
            got = x ** a
            assert len(calls) <= 2 * a.bit_length() - 2
            assert got == _left_fold_power(x, a)
        calls.clear()
        assert x ** 1 == x and not calls
        assert x ** 0 == Poly.one(cfg) and not calls
