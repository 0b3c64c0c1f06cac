"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every check is exact — zero tolerance — at desk scale.  The whole module
is budgeted to run in well under a minute.
"""

import random
from fractions import Fraction

import pytest

from carlitzbases import (
    Basis,
    BasisExpansion,
    FieldConfig,
    LinearFunc,
    Poly,
    TruncSeries,
    bracket,
    carlitz_F,
    carlitz_coeffs,
    check_addition_law,
    check_reduced_basis,
    classify_linearity,
    digit_coeffs,
    digit_coeffs_linear,
    e_poly,
    eval_D,
    eval_E,
    eval_G,
    hasse_derivative,
    inverse_matrix,
    lucas_binom,
    powered_D,
    powered_digit_coeffs,
    synthesize,
    valuation_norm,
    voloch_matrix,
    wagner_coeffs,
)
from carlitzbases.algebra import random_poly, random_series, values_match
from carlitzbases.identities import (
    VERIFIED,
    _linearity_corpus,
    orthogonality_suite,
)
from carlitzbases.transforms import (
    Dj_func,
    G_func,
    D_func,
    E_func,
    add_func,
    default_level,
    matrix_product_block,
    powered_D_func,
    scale_func,
)
from oracles import delta_minus, delta_minus_power_at

SEED = 987123


@pytest.fixture
def report(request, capsys):
    """Print a single pass/fail line for the enclosing criterion."""
    label = request.node.name.replace("test_", "")
    outcome = {"ok": True}
    yield outcome
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"[acceptance] {label}: {status}")


def guard(outcome):
    """Mark the criterion failed if the test body raises."""
    class _Guard:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None:
                outcome["ok"] = False
            return False

    return _Guard()


def field(q):
    return FieldConfig(2, 2) if q == 4 else FieldConfig(q)


# ---------------------------------------------------------------------------
# 1. Orthogonality, exhaustive (both families, both variants)
# ---------------------------------------------------------------------------

def test_criterion_1_orthogonality(report):
    with guard(report):
        for q, levels in ((2, (1, 2, 3)), (3, (1, 2)), (4, (1, 2))):
            cfg = field(q)
            for n in levels:
                reports = orthogonality_suite(cfg, n)
                assert len(reports) == 4
                for r in reports:
                    assert r.status == VERIFIED, (q, n, r.config, r.witness)


# ---------------------------------------------------------------------------
# 2. Coefficient-recovery round-trips, all five bases
# ---------------------------------------------------------------------------

def _linear_analyzer(analyze):
    def run(f, N, cfg):
        return analyze(LinearFunc(cfg, f, linear=True), N)
    return run


def _roundtrip_linear(cfg, rng, basis, analyze, basis_fn, m=0):
    # basis elements come back as delta sequences
    for k in range(4):
        exp = analyze(basis_fn(cfg, k), 5)
        for n, c in enumerate(exp.coeffs):
            expected = Poly.one(cfg) if n == k else Poly.zero(cfg)
            assert values_match(c, expected), (basis, k, n, str(c))
    # analyze -> synthesize of random finite expansions
    for _ in range(20):
        coeffs = [random_poly(cfg, rng, 2) for _ in range(4)]
        orig = BasisExpansion(cfg, basis, coeffs, m=m, tail_bound=Fraction(0))
        f = LinearFunc(cfg, lambda x: synthesize(orig, x)[0], linear=True)
        got = analyze(f, 4)
        for a, b in zip(got.coeffs, orig.coeffs):
            assert values_match(a, b)
        for _ in range(10):
            x = random_poly(cfg, rng, 4)
            assert values_match(synthesize(got, x)[0], f(x))
        for _ in range(10):
            x = random_series(cfg, rng, 64)
            assert values_match(synthesize(got, x)[0], f(x))


def _roundtrip_enumeration(cfg, rng, basis, analyze, basis_fn):
    for j in range(4):
        exp = analyze(basis_fn(cfg, j), 4, cfg)
        for i, c in enumerate(exp.coeffs):
            expected = Poly.one(cfg) if i == j else Poly.zero(cfg)
            assert values_match(c, expected), (basis, j, i, str(c))
    for _ in range(20):
        coeffs = [random_poly(cfg, rng, 2) for _ in range(4)]
        orig = BasisExpansion(cfg, basis, coeffs, tail_bound=Fraction(0))
        f = lambda x: synthesize(orig, x)[0]
        got = analyze(f, 4, cfg)
        for a, b in zip(got.coeffs, orig.coeffs):
            assert values_match(a, b)
        for _ in range(10):
            x = random_poly(cfg, rng, 3)
            assert values_match(synthesize(got, x)[0], f(x))
        for _ in range(10):
            x = random_series(cfg, rng, 64)
            assert values_match(synthesize(got, x)[0], f(x))


def test_criterion_2_coefficient_recovery(report):
    with guard(report):
        cfg = FieldConfig(2)
        rng = random.Random(SEED)
        _roundtrip_linear(cfg, rng, Basis.LINEAR_E, wagner_coeffs, E_func)
        _roundtrip_linear(cfg, rng, Basis.LINEAR_D, digit_coeffs_linear, D_func)
        for m in (0, 1, 2):
            _roundtrip_linear(
                cfg, rng, Basis.POWERED_D,
                lambda f, N, m=m: powered_digit_coeffs(f, m, N),
                lambda c, k, m=m: powered_D_func(c, k, m), m=m)
        _roundtrip_enumeration(cfg, rng, Basis.CARLITZ_G, carlitz_coeffs, G_func)
        _roundtrip_enumeration(cfg, rng, Basis.DIGIT_D, digit_coeffs, Dj_func)


# ---------------------------------------------------------------------------
# 3. Matrix inversion
# ---------------------------------------------------------------------------

def test_criterion_3_matrix_inversion(report):
    with guard(report):
        for q in (2, 3):
            cfg = field(q)
            A = voloch_matrix(cfg, 6, 24)
            B = inverse_matrix(cfg, 6)
            # B exactly triangular with unit diagonal
            for n in range(6):
                assert B.entry(n, n) == Poly.one(cfg)
                for m in range(n):
                    assert B.entry(m, n).is_zero
            # valuations of A obey v(A_{n,m}) >= n - m
            for n in range(6):
                for m in range(n + 1):
                    nm = valuation_norm(A.entry(n, m))
                    if nm.v is not None:
                        assert nm.v >= n - m
            # A·B and B·A are the identity to all 24 digits of A
            for left, right in ((A, B), (B, A)):
                block = matrix_product_block(left, right, 6)
                for i in range(6):
                    for j in range(6):
                        entry = block[i][j]
                        assert entry.prec >= 24, (i, j, entry.prec)
                        expected = (Poly.one(cfg) if i == j
                                    else Poly.zero(cfg))
                        assert values_match(entry, expected), (i, j, str(entry))


# ---------------------------------------------------------------------------
# 4. Identity families
# ---------------------------------------------------------------------------

def test_criterion_4_identity_families(report):
    with guard(report):
        rng = random.Random(SEED)
        for q in (2, 3):
            cfg = FieldConfig(q)
            # addition laws, all j < q^3, 10 seeded (x, u) pairs each
            pairs = [(random_poly(cfg, rng, 3), random_poly(cfg, rng, 3))
                     for _ in range(10)]
            for family in ("G", "Gp", "D", "Dp"):
                for j in range(q ** 3):
                    for x, u in pairs:
                        r = check_addition_law(cfg, family, j, x, u)
                        assert r.status == VERIFIED, (q, family, j, r.witness)
            # Hasse product and composition rules, n + m <= 8
            for n in range(9):
                for m in range(9 - n):
                    x = random_poly(cfg, rng, 8)
                    y = random_poly(cfg, rng, 8)
                    prod = Poly.zero(cfg)
                    for i in range(n + 1):
                        prod = prod + (hasse_derivative(cfg, i, x)
                                       * hasse_derivative(cfg, n - i, y))
                    assert hasse_derivative(cfg, n, x * y) == prod
                    lhs = hasse_derivative(cfg, n, hasse_derivative(cfg, m, x))
                    c = lucas_binom(n + m, m, cfg.p)
                    assert lhs == hasse_derivative(cfg, n + m, x).scalar_mul(c)
            # Voloch identity on polynomials of degree <= 10, m <= 2
            for m in (1, 2):
                br = bracket(cfg, m)
                for _ in range(5):
                    x = random_poly(cfg, rng, 10)
                    rhs = Poly.zero(cfg)
                    for i in range(12):
                        rhs = rhs + br ** i * hasse_derivative(cfg, i, x)
                    assert x.frobenius(m) == rhs
            # recursions for n <= 3
            for n in range(4):
                en, en1 = e_poly(cfg, n), e_poly(cfg, n + 1)
                scale = carlitz_F(cfg, n) ** (q - 1)
                x = random_poly(cfg, rng, 6, nonzero=True)
                assert en1(x) == en(x).frobenius(1) - scale * en(x)
                y = random_poly(cfg, rng, 6)
                assert (eval_E(cfg, n, y).frobenius(1)
                        == bracket(cfg, n + 1) * eval_E(cfg, n + 1, y)
                        + eval_E(cfg, n, y))
            # Carlitz step identity, n <= 4, m <= 12
            T = Poly.T(cfg)
            for n in range(1, 5):
                for m in range(13):
                    tm = Poly.monomial(cfg, m)
                    assert (eval_E(cfg, n, Poly.monomial(cfg, m + 1))
                            == T * eval_E(cfg, n, tm)
                            + eval_E(cfg, n - 1, tm).frobenius(1))


# ---------------------------------------------------------------------------
# 5. Norm-distance bounds and reduced bases
# ---------------------------------------------------------------------------

def test_criterion_5_distance_bounds(report):
    with guard(report):
        cfg = FieldConfig(2)
        for n in range(5):
            for i in range(51):
                t = Poly.monomial(cfg, i)
                ev = eval_E(cfg, n, t)
                dv = hasse_derivative(cfg, n, t)
                diff = ev - dv
                assert diff.is_zero or diff.valuation >= 1, (n, i)
                # E_n^q = [n+1] E_{n+1} + E_n, exactly
                assert (ev.frobenius(1)
                        == bracket(cfg, n + 1) * eval_E(cfg, n + 1, t) + ev)
                for m in (1, 2):
                    pdiff = powered_D(cfg, n, m, t) - dv
                    assert pdiff.is_zero or pdiff.valuation >= 1, (n, i, m)
        for q in (2, 3):
            assert check_reduced_basis(field(q), 6).status == VERIFIED


# ---------------------------------------------------------------------------
# 6. Linearity characterization on the 20-function corpus
# ---------------------------------------------------------------------------

def test_criterion_6_linearity(report):
    with guard(report):
        cfg = FieldConfig(2)
        rng = random.Random(SEED)
        J = cfg.q ** 3
        corpus = _linearity_corpus(cfg)
        assert len(corpus) == 20
        for analyze in (carlitz_coeffs, digit_coeffs):
            for func, expected in corpus:
                exp = analyze(func, J, cfg)
                r = classify_linearity(exp, evaluator=func, rng=rng)
                assert r.status == VERIFIED, (func.name, r.witness)
                assert r.witness["linear"] == expected, func.name


# ---------------------------------------------------------------------------
# 7. Closed double sum vs literal (delta - [m] I)^n iteration
# ---------------------------------------------------------------------------

def test_criterion_7_double_sum(report):
    with guard(report):
        cfg = FieldConfig(2)
        rng = random.Random(SEED)
        for f in (D_func(cfg, 1), add_func(E_func(cfg, 1),
                                           scale_func(Poly.T(cfg),
                                                      D_func(cfg, 0)))):
            for m in (0, 1, 2):
                for n in range(6):
                    g = f
                    for _ in range(n):
                        g = delta_minus(g, m)
                    for _ in range(10):
                        x = random_poly(cfg, rng, 3)
                        closed = delta_minus_power_at(f, m, n, x)
                        assert values_match(closed, g(x)), (f.name, m, n, str(x))


# ---------------------------------------------------------------------------
# 8. Level independence of the enumeration formulas
# ---------------------------------------------------------------------------

def test_criterion_8_level_independence(report):
    with guard(report):
        for q in (2, 3):
            cfg = FieldConfig(q)
            J = q ** 3 - 1
            n = default_level(cfg, J)
            funcs = [lambda x: x * x,                      # nonlinear
                     lambda x: eval_G(cfg, min(3, J - 1), x),
                     lambda x: x.frobenius(1)]             # linear
            for analyze in (carlitz_coeffs, digit_coeffs):
                for f in funcs:
                    lo = analyze(f, J, cfg, level=n, budget=q ** (n + 1))
                    hi = analyze(f, J, cfg, level=n + 1, budget=q ** (n + 1))
                    for j, (a, b) in enumerate(zip(lo.coeffs, hi.coeffs)):
                        assert values_match(a, b), (q, analyze.__name__, j)
