"""Identity checkers: orthogonality, addition laws, linearity, distances."""

import importlib.util
import itertools
import json
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitzbases import (
    BudgetError,
    DomainError,
    FieldConfig,
    Poly,
    TruncSeries,
    check_addition_law,
    check_orthogonality,
    check_power_criterion,
    check_reduced_basis,
    classify_linearity,
    digit_coeffs,
    eval_D,
    eval_E,
    eval_G,
    hasse_derivative,
    identities,
    parse_poly,
    poly_enumerate,
)
from carlitzbases.algebra import random_poly
from carlitzbases.identities import (
    BUDGET_EXHAUSTED,
    FALSIFIED,
    VERIFIED,
    VerdictReport,
    _gram_entries,
    basis_distance,
    orthogonality_suite,
    reports_to_csv,
    reports_to_json_text,
    run_suite,
)
from carlitzbases.transforms import (
    D_func,
    Dj_func,
    G_func,
    add_func,
    carlitz_coeffs,
    constant_func,
    frobenius_func,
    identity_func,
    monomial_func,
)
from oracles import (
    FIELDS,
    addition_convolution,
    basis_distance_exact,
    orthogonality_suite_by_pairs,
    orthogonality_sum_by_pairs,
)


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------

def test_orthogonality_hand_examples(f2):
    # q=2, DIGIT, deg_lt, n=1, k=0, l=1: sum over {0,1} of 1*(m-1) = -1 = (-1)^1
    r = check_orthogonality(f2, "DIGIT", "deg_lt", 1, 0, 1)
    assert r.status == VERIFIED
    # q=2, CARLITZ, monic, n=1, k=0, l=1: (T-1) + T = -1 over F_2
    r = check_orthogonality(f2, "CARLITZ", "monic", 1, 0, 1)
    assert r.status == VERIFIED


def test_orthogonality_off_diagonal_zero(f3):
    for k, l in [(0, 0), (1, 3), (2, 2)]:
        assert k + l != 3 ** 1 - 1 or pytest.skip("diagonal pair")
    r = check_orthogonality(f3, "CARLITZ", "deg_lt", 1, 1, 3 - 1)
    # k + l = 3 = q - 1 + 1 != q^1 - 1 = 2, so the sum must be zero
    assert r.status == VERIFIED


def test_orthogonality_precondition(f2):
    with pytest.raises(DomainError):
        check_orthogonality(f2, "DIGIT", "deg_lt", 1, 0, 2)  # l >= q^n
    with pytest.raises(DomainError):
        check_orthogonality(f2, "DIGIT", "monic", 1, 5, 1)   # k >= q^n


def test_orthogonality_suite_budget(f2):
    reports = orthogonality_suite(f2, 9, budget=256)
    assert all(r.status == BUDGET_EXHAUSTED and r.notes for r in reports)
    want = orthogonality_suite_by_pairs(f2, 9, budget=256)
    assert [r.to_json() for r in reports] == [r.to_json() for r in want]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 1), (4, 1), (2, 1), (2, 3), (3, 2),
                                 (4, 2), (5, 1), (8, 1), (9, 1), (2, 4)])
def test_orthogonality_exhaustive_small(q, n):
    # The power-sum suite gives the reports of the per-pair oracle, byte
    # for byte.
    cfg = FieldConfig(*FIELDS[q])
    reports = orthogonality_suite(cfg, n)
    assert len(reports) == 4
    assert all(r.status == VERIFIED for r in reports)
    want = orthogonality_suite_by_pairs(cfg, n)
    assert reports_to_json_text(reports) == reports_to_json_text(want)


def test_verified_orthogonality_forms_no_gram_entry(monkeypatch):
    # A verified suite rests on the primed check and the power sums alone:
    # the Gram product runs only after a mismatch.
    def no_gram(*args):
        raise AssertionError("Gram product formed")
    monkeypatch.setattr(identities, "_gram_entries", no_gram)
    for q, n in ((2, 5), (3, 2), (4, 1), (9, 1)):
        cfg = FieldConfig(*FIELDS[q])
        assert all(r.ok for r in orthogonality_suite(cfg, n))


def _power_sum(cfg, base, polys, s):
    """sum over m of prod_t base(cfg, t, m)**s_t, one Poly power, product
    and addition at a time."""
    total = Poly.zero(cfg)
    for m in polys:
        term = Poly.one(cfg)
        for t, st in enumerate(s):
            term = term * base(cfg, t, m) ** st
        total = total + term
    return total


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (4, 2), (5, 2)])
@pytest.mark.parametrize("base", [eval_E, hasse_derivative])
@pytest.mark.parametrize("kind", ["deg_lt", "monic_deg_eq"])
def test_power_sums_closed_form(q, n, base, kind):
    # S(s) = sum_m prod_t b_t(m)**s_t is (-1)**n when every s_t is q - 1 or
    # 2q - 2, and 0 otherwise, for b_t = E_t and b_t = D_t: the closed form
    # that the orthogonality suite compares its power sums with.
    cfg = FieldConfig(*FIELDS[q])
    polys = poly_enumerate(cfg, n, kind)
    for s in itertools.product(range(2 * q - 1), repeat=n):
        closed = all(st in (q - 1, 2 * q - 2) for st in s)
        want = Poly.constant(cfg, cfg.sign(n)) if closed else Poly.zero(cfg)
        assert _power_sum(cfg, base, polys, s) == want, s


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_gram_entries_match_per_pair_sums(q, data):
    # Any (k, l) subset, any order, k past q**n on deg_lt: every entry is the
    # per-pair sum.
    cfg = FieldConfig(*FIELDS[q])
    n = data.draw(st.integers(1, 2 if q <= 4 else 1))
    family = data.draw(st.sampled_from(["CARLITZ", "DIGIT"]))
    variant = data.draw(st.sampled_from(["deg_lt", "monic"]))
    top = q ** n if variant == "monic" else q ** (n + 1)
    ks = data.draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=4))
    ls = data.draw(st.lists(st.integers(0, q ** n - 1), min_size=1, max_size=4))
    f = eval_G if family == "CARLITZ" else eval_D
    kind = "deg_lt" if variant == "deg_lt" else "monic_deg_eq"
    polys = poly_enumerate(cfg, n, kind)
    got = list(_gram_entries(cfg, family, variant, n, ks, ls, 256))
    assert got == [(k, l, orthogonality_sum_by_pairs(cfg, f, polys, k, l))
                   for k in ks for l in ls]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_gram_entries_at_slot_bound(monkeypatch, q):
    # Values of all-(p-1) digits, as long as the 8-bit slot can just not
    # hold: the width must follow the tabulated lengths, or the sums carry
    # into the next slot.
    cfg = FieldConfig(*FIELDS[q])
    n = 1
    length = 256 // (q ** n * cfg.e * (cfg.p - 1) ** 2) + 1
    full = Poly(cfg, [q - 1] * length)

    def f(cfg, j, x, primed=False):
        return full
    monkeypatch.setattr(identities, "eval_G", f)
    polys = poly_enumerate(cfg, n, "deg_lt")
    got = list(_gram_entries(cfg, "CARLITZ", "deg_lt", n, [0, 1], [0], 256))
    assert got == [(k, 0, orthogonality_sum_by_pairs(cfg, f, polys, k, 0))
                   for k in (0, 1)]


def _patched(f, j, m, delta, primed=False):
    """f with f(j, m) moved by delta, unprimed or (``primed``) primed
    only: a planted fault."""
    planted = primed

    def wrapper(cfg, i, x, primed=False):
        value = f(cfg, i, x, primed=primed)
        if i == j and x == m and primed == planted:
            value = value + delta
        return value
    return wrapper


@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
def test_orthogonality_falsified_report_matches_oracle(monkeypatch, family,
                                                       name):
    # Moving F_2(T + 1) by T breaks the deg_lt sums of row k = 2 (T + 1 is
    # not monic of degree 2); the suite and the oracle must name the same
    # first (k, l), sum and expected value.
    cfg = FieldConfig(3)
    evaluators = {"CARLITZ": eval_G, "DIGIT": eval_D}
    evaluators[family] = _patched(evaluators[family], 2, Poly(cfg, (1, 1)),
                                  Poly.T(cfg))
    monkeypatch.setattr(identities, name, evaluators[family])
    got = orthogonality_suite(cfg, 2)
    want = orthogonality_suite_by_pairs(cfg, 2, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    bad, = [r for r in got if r.status == FALSIFIED]
    assert (bad.config["family"], bad.config["variant"], bad.config["k"]) == \
        (family, "deg_lt", 2)
    assert bad.witness["sum"] != bad.witness["expected"]
    single = check_orthogonality(cfg, family, "deg_lt", 2, 2, bad.config["l"])
    assert single.to_json() == bad.to_json()


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (5, 1)])
@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
@pytest.mark.parametrize("primed", [False, True, "both"])
@pytest.mark.parametrize("where", ["top", "plain", "monic"])
def test_orthogonality_planted_faults_match_oracle(monkeypatch, q, n, family,
                                                   name, primed, where):
    # One value moved by 1, unprimed, primed or both, at an index whose top
    # digit is maximal (q**n - 1) or that has no maximal digit (1), at a
    # point of degree < n or monic of degree n: the suite names the same
    # first (k, l), sum and expected value as the oracle.  Moved both ways
    # at q**n - 1, the primed values still match their subset expansion,
    # and only the power sums see the fault.
    cfg = FieldConfig(*FIELDS[q])
    j = 1 if where == "plain" else q ** n - 1
    m = Poly.monomial(cfg, n) if where == "monic" else Poly.one(cfg)
    evaluators = {"CARLITZ": eval_G, "DIGIT": eval_D}
    f = evaluators[family]
    for flag in ((False, True) if primed == "both" else (primed,)):
        f = _patched(f, j, m, Poly.one(cfg), primed=flag)
    evaluators[family] = f
    monkeypatch.setattr(identities, name, evaluators[family])
    got = orthogonality_suite(cfg, n)
    want = orthogonality_suite_by_pairs(cfg, n, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    variant = "monic" if where == "monic" else "deg_lt"
    assert [(r.config["family"], r.config["variant"])
            for r in got if r.status == FALSIFIED] == [(family, variant)]


@pytest.mark.parametrize("q,n", [(2, 9), (3, 7)])
def test_primed_check_at_slot_bound(q, n):
    # Constant tables, F = q - 1 and F' = 0 wherever l has a maximal digit:
    # the subset sum of l = q**n - 1 has 2**n terms, half of them times
    # p - 1, and overflows an 8-bit slot, so the width must follow 2**n.
    cfg = FieldConfig(*FIELDS[q])
    full = (q - 1,) * 3
    size = q ** n
    values = [[full] for _ in range(size)]
    primed = [[full if all(l // q ** t % q != q - 1 for t in range(n)) else ()]
              for l in range(size)]
    assert identities._primed_values_match(cfg, n, values, primed)
    primed[-1] = [(1,)]
    assert not identities._primed_values_match(cfg, n, values, primed)


def test_orthogonality_budget_error_while_tabulating(monkeypatch, f2):
    # A BudgetError raised by an evaluator (as the degree budget of E_n
    # would) makes only that family's reports budget_exhausted.
    def over_budget(cfg, j, x, primed=False):
        raise BudgetError(f"E_{j} degree budget exceeded")
    monkeypatch.setattr(identities, "eval_D", over_budget)
    got = orthogonality_suite(f2, 2)
    want = orthogonality_suite_by_pairs(
        f2, 2, evaluators={"CARLITZ": eval_G, "DIGIT": over_budget})
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [r.status for r in got] == [VERIFIED, VERIFIED,
                                       BUDGET_EXHAUSTED, BUDGET_EXHAUSTED]


@pytest.mark.parametrize("raises", ["primed", "top index"])
def test_orthogonality_budget_error_late_in_tabulation(monkeypatch, f2, raises):
    # A BudgetError raised only by primed values, or only at the last index,
    # after other values were tabulated, still gives budget_exhausted with
    # the oracle's note.
    def over_budget(cfg, j, x, primed=False):
        if primed if raises == "primed" else j == 3:
            raise BudgetError(f"E_{j} degree budget exceeded")
        return eval_D(cfg, j, x, primed=primed)
    monkeypatch.setattr(identities, "eval_D", over_budget)
    got = orthogonality_suite(f2, 2)
    want = orthogonality_suite_by_pairs(
        f2, 2, evaluators={"CARLITZ": eval_G, "DIGIT": over_budget})
    assert reports_to_json_text(got) == reports_to_json_text(want)
    assert [r.status for r in got] == [VERIFIED, VERIFIED,
                                       BUDGET_EXHAUSTED, BUDGET_EXHAUSTED]


# ---------------------------------------------------------------------------
# Addition laws
# ---------------------------------------------------------------------------

def test_addition_law_hand_example(f2):
    # q=2, j=3, family D: D_3(T+1) = sum_{e+f=3} C(3,e) D_e(T) D_f(1).
    r = check_addition_law(f2, "D", 3, Poly.T(f2), Poly.one(f2))
    assert r.status == VERIFIED


def test_addition_law_scaling_f3(f3):
    # G_2(2x) = 2^2 G_2(x) = G_2(x); exercised inside the check for all alpha.
    r = check_addition_law(f3, "G", 2, Poly.T(f3), Poly.one(f3))
    assert r.status == VERIFIED


@pytest.mark.parametrize("family", ["G", "Gp", "D", "Dp"])
def test_addition_law_families(f2, family, rng):
    for j in range(8):
        for _ in range(3):
            x = random_poly(f2, rng, 3)
            u = random_poly(f2, rng, 3)
            r = check_addition_law(f2, family, j, x, u)
            assert r.status == VERIFIED, r.witness


def test_addition_law_top_digit_index(f3, rng):
    # j = q^m - 1 additionally triggers the signed forms, including x - u.
    for j in (2, 8):  # 3 - 1 and 9 - 1
        x = random_poly(f3, rng, 2)
        u = random_poly(f3, rng, 2)
        r = check_addition_law(f3, "G", j, x, u)
        assert r.status == VERIFIED, r.witness
        r = check_addition_law(f3, "D", j, x, u)
        assert r.status == VERIFIED, r.witness


@pytest.mark.parametrize("identity,family,j,fault_at", [
    ("addition_law", "G", 4, "sum"),
    ("addition_scaling", "Dp", 5, "scaled"),
    ("addition_diff_form", "D", 8, "diff"),
])
def test_addition_law_planted_faults(monkeypatch, f3, identity, family, j, fault_at):
    # F_j moved at x + u, at 2x or at x - u (j = q^2 - 1) breaks the law
    # that reads it: the report names that law, carries x and u as text in
    # the config of a passing check, and the two sides as its witness.
    # Planted at every point, the suite's report for the family is the
    # first falsified check's.
    x, u = parse_poly(f3, "T^2+1"), parse_poly(f3, "2*T+2")
    at = {"sum": x + u, "scaled": x.scalar_mul(2), "diff": x - u}[fault_at]
    name = "eval_" + family[0]
    evaluate = getattr(identities, name)

    def planted(points):
        def wrapper(cfg, k, y, primed=False):
            value = evaluate(cfg, k, y, primed=primed)
            return value + Poly.one(cfg) if k == j and y in points else value
        return wrapper

    clean = check_addition_law(f3, family, j, x, u)
    assert clean.status == VERIFIED
    assert clean.config == {"family": family, "q": 3, "j": j,
                            "x": "T^2+1", "u": "2*T+2"}
    monkeypatch.setattr(identities, name, planted([at]))
    r = check_addition_law(f3, family, j, x, u)
    assert (r.identity, r.status, r.config) == (identity, FALSIFIED, clean.config)
    assert {"lhs", "rhs"} <= set(r.witness)
    monkeypatch.setattr(identities, name, planted(poly_enumerate(f3, 3, "deg_lt")))
    report = next(r for r in run_suite(f3, "addition", seed=5)
                  if r.config["family"] == family)
    assert report.status == FALSIFIED and report.config["j"] == j
    assert report.to_json() == check_addition_law(
        f3, family, j, parse_poly(f3, report.config["x"]),
        parse_poly(f3, report.config["u"])).to_json()


@pytest.mark.parametrize("family", ["Gp", "Dp"])
def test_addition_law_forms_each_product_once(monkeypatch, f3, family):
    # Every F_e(x) F'_{j-e}(u) is formed once per check, also when the
    # signed and x - u forms of j = q^m - 1 reuse it; the verdicts agree.
    x, u = parse_poly(f3, "T^2+1"), parse_poly(f3, "2*T+2")
    evaluate = eval_G if family == "Gp" else eval_D
    calls = []

    def counting(cfg, k, y, primed=False):
        calls.append((k, y, primed))
        return evaluate(cfg, k, y, primed=primed)

    monkeypatch.setattr(identities, "eval_" + family[0], counting)
    for j in (2, 5, 8):
        calls.clear()
        assert check_addition_law(f3, family, j, x, u).status == VERIFIED
        weighted = [e for e in range(j + 1) if identities.lucas_binom(j, e, 3)]
        assert [k for k, y, primed in calls if y == x and not primed] == weighted
        assert [j - k for k, y, primed in calls if y == u] == weighted


def test_binomial_rows_formed_once(monkeypatch, f3, rng):
    # Each (j, p) row of binomials is formed once, whatever the number of
    # checks at j, and holds the nonzero C(j, e) mod p in order of e.
    identities._binomial_row.cache_clear()
    calls = []
    binom = identities.lucas_binom
    monkeypatch.setattr(identities, "lucas_binom",
                        lambda *args: calls.append(args) or binom(*args))
    for j in range(9):
        for _ in range(3):
            x, u = random_poly(f3, rng, 3), random_poly(f3, rng, 3)
            assert check_addition_law(f3, "G", j, x, u).ok
            assert check_addition_law(f3, "Dp", j, x, u).ok
        weights, support = identities._binomial_row(j, 3)
        assert support == tuple(e for e in range(j + 1) if binom(j, e, 3))
        assert weights == tuple(binom(j, e, 3) for e in support)
    assert sorted(calls) == sorted((j, e, 3) for j in range(9)
                                   for e in range(j + 1))
    identities._binomial_row.cache_clear()


@given(st.sampled_from(sorted(FIELDS)), st.sampled_from(["G", "Gp", "D", "Dp"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_addition_convolutions_match_per_product_sums(q, family, data):
    # The packed convolutions of the addition law against one product,
    # scalar multiple and addition per e: binomial, signed, unit and
    # all-(p - 1) weights, the last at the slot bound's weight factor, for
    # j up to q**2 - 1 and every j = q**m - 1 among them.
    cfg = FieldConfig(*FIELDS[q])
    p = cfg.p
    j = data.draw(st.one_of(st.sampled_from((q - 1, q * q - 1)),
                            st.integers(0, q * q - 1)))
    x = Poly(cfg, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    u = Poly(cfg, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    evaluate = eval_G if family[0] == "G" else eval_D
    primed = family.endswith("p")
    support = [e for e in range(j + 1) if identities.lucas_binom(j, e, p)]
    convolution = identities._addition_convolution(cfg, evaluate, primed, j, x, u,
                                                   support)
    for weight in (lambda e: identities.lucas_binom(j, e, p), cfg.sign,
                   lambda e: 1, lambda e: p - 1):
        want = addition_convolution(cfg, evaluate, primed, j, x, u,
                                    lambda e: weight(e) if e in support else 0)
        assert convolution([weight(e) for e in support]) == want


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_addition_convolution_at_slot_bound(q):
    # All-(q-1) factors of length 3 and all-(p-1) weights fill the middle
    # slot to terms * (p-1) * 3 * e * (p-1)**2, the slot bound: with the
    # most terms that 8 bits hold and then one more, the sums must equal
    # the per-product ones, or a slot has carried.
    cfg = FieldConfig(*FIELDS[q])
    p, e = cfg.p, cfg.e

    def evaluate(cfg, k, y, primed=False):
        return Poly(cfg, [q - 1] * 3)
    per_term = (p - 1) * 3 * e * (p - 1) ** 2
    for terms in (255 // per_term, 255 // per_term + 1):
        support = list(range(terms))
        x = u = Poly.one(cfg)
        got = identities._addition_convolution(cfg, evaluate, False, terms - 1,
                                               x, u, support)([p - 1] * terms)
        assert got == addition_convolution(cfg, evaluate, False, terms - 1, x, u,
                                           lambda e: p - 1)


# ---------------------------------------------------------------------------
# Linearity classification
# ---------------------------------------------------------------------------

def test_classify_linearity_examples(f2, rng):
    exp = digit_coeffs(Dj_func(f2, 1), 8, f2)
    r = classify_linearity(exp, evaluator=Dj_func(f2, 1), rng=rng)
    assert r.status == VERIFIED and r.witness["linear"]

    exp = carlitz_coeffs(G_func(f2, 3), 8, f2)
    r = classify_linearity(exp, evaluator=G_func(f2, 3), rng=rng)
    assert r.status == VERIFIED and not r.witness["linear"]

    exp = digit_coeffs(frobenius_func(f2, 1), 8, f2)
    r = classify_linearity(exp, evaluator=frobenius_func(f2, 1), rng=rng)
    assert r.status == VERIFIED and r.witness["linear"]


def test_classify_linearity_needs_digit_basis(f2):
    from carlitzbases.transforms import Basis, BasisExpansion, wagner_coeffs
    exp = wagner_coeffs(identity_func(f2), 3)
    with pytest.raises(DomainError):
        classify_linearity(exp)


# ---------------------------------------------------------------------------
# Distances, power criterion, reduced basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair", ["E_vs_D", "Dq_vs_D", "Eq_vs_E"])
def test_basis_distance_verified(f2, pair):
    for n in range(3):
        r = basis_distance(f2, pair, n, i_max=25)
        assert r.status == VERIFIED, r.witness
        assert any("certified" in note for note in r.notes)


def test_basis_distance_witness_value(f2):
    # E_1(T^2) - D_1(T^2) = (T^2 + T) - 0 has valuation 1: the 1/q bound is tight.
    from carlitzbases import eval_E, hasse_derivative
    t2 = Poly.monomial(f2, 2)
    diff = eval_E(f2, 1, t2) - hasse_derivative(f2, 1, t2)
    assert diff == parse_poly(f2, "T^2+T")
    assert diff.valuation == 1


def _planted(f, at, delta):
    """f(cfg, n, t) moved by delta (polynomial text, or a Poly), at t = T**at
    only, exact or truncated (T**at + O(T**N), N > at), or everywhere when
    at is None: a planted fault."""
    def wrapper(cfg, n, t):
        value = f(cfg, n, t)
        if at is None or _is_monomial(t, at):
            value = value + (parse_poly(cfg, delta) if isinstance(delta, str)
                             else delta)
        return value
    return wrapper


def _is_monomial(t, at):
    if isinstance(t, TruncSeries):
        return (t.v, t.coeffs) == (at, b"\1")
    return t == Poly.monomial(t.cfg, at)


@pytest.mark.parametrize("name,at,delta,label,witness", [
    # A constant added to E_2 breaks the reductions mod T: v(f - g) = 0 at
    # i = 0, reported by the valuation check.
    ("eval_E", None, "1", "basis_distance",
     {"i": 0, "difference": "1", "valuation": 0}),
    # D_2(T^2) = 1 moved by T: v(f - g) stays 1, the delta pattern at i = n
    # fails.
    ("hasse_derivative", 2, "T", "basis_distance_delta",
     {"i": 2, "value": "T+1"}),
    # E_2(T) = 0 moved by T: v(f - g) stays 1, the delta pattern at i < n
    # fails.
    ("eval_E", 1, "T", "basis_distance_delta", {"i": 1, "f": "T", "g": "0"}),
])
def test_basis_distance_falsified_labels(monkeypatch, f3, name, at, delta,
                                         label, witness):
    monkeypatch.setattr(identities, name,
                        _planted(getattr(identities, name), at, delta))
    r = basis_distance(f3, "E_vs_D", 2, i_max=6)
    assert (r.status, r.identity, r.witness) == (FALSIFIED, label, witness)


DISTANCE_FIELDS = {**FIELDS, 7: (7, 1)}
PAIRS = ("E_vs_D", "Dq_vs_D", "Eq_vs_E")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from(sorted(DISTANCE_FIELDS)),
       n=st.integers(0, 4), i_max=st.integers(0, 50),
       pair=st.sampled_from(PAIRS))
def test_basis_distance_matches_the_exact_oracle(data, q, n, i_max, pair):
    # The certificate mod T^P against the exact one, report for report,
    # with or without a planted fault: a polynomial of degree <= 1 (the
    # digits read at P = 2) added to eval_E or hasse_derivative at one
    # T^at (often at or below the level, where the delta pattern is read)
    # or everywhere.  The degree budget of the witnesses is lifted, so
    # every falsified witness is exact on both sides.
    cfg = FieldConfig(*DISTANCE_FIELDS[q])
    fault = data.draw(st.none() | st.tuples(
        st.sampled_from(["eval_E", "hasse_derivative"]),
        st.none() | st.integers(0, 5) | st.integers(0, 50),
        st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))))
    with ExitStack() as stack:
        stack.enter_context(patch.object(identities, "DEGREE_BUDGET", 1 << 40))
        if fault is not None:
            name, at, coeffs = fault
            planted = _planted(getattr(identities, name), at, Poly(cfg, coeffs))
            stack.enter_context(patch.object(identities, name, planted))
        got = basis_distance(cfg, pair, n, i_max=i_max).to_json()
        expected = basis_distance_exact(cfg, pair, n, i_max=i_max).to_json()
    assert got == expected


def test_basis_distance_witness_past_the_degree_budget():
    # At q = 7 the exact E_4(T^40) has degree 7^4 * 36, past DEGREE_BUDGET:
    # a fault there is witnessed by the difference mod T^37, the digits the
    # certificate read (P = 40 - 4 + 1), not by the exact difference.
    cfg = FieldConfig(7)
    t = Poly.monomial(cfg, 40)
    with patch.object(identities, "eval_E", _planted(eval_E, 40, "1")):
        r = basis_distance(cfg, "E_vs_D", 4, i_max=40)
    exact = eval_E(cfg, 4, t) + Poly.one(cfg) - hasse_derivative(cfg, 4, t)
    assert r.status == FALSIFIED and r.identity == "basis_distance"
    assert r.witness == {"i": 40, "difference": str(exact.to_series(37)),
                         "valuation": 0}
    assert r.witness["difference"].endswith("+O(T^37)")


@pytest.mark.parametrize("q", [131, 251])
def test_basis_distance_suite_past_the_degree_budget(q):
    # Exact E_4 values at q = 131 have degree 131^4 (i - 4): the certificate
    # reads them mod T^P instead, with the sup note's least valuation exact.
    cfg = FieldConfig(q)
    reports = run_suite(cfg, "distance", n=4)
    assert len(reports) == 15
    assert all(r.status == VERIFIED for r in reports)
    sups = [r.notes[0].split()[5] for r in reports]
    assert sups == ["0"] + [f"1/{q}"] * 14


def test_basis_distance_fault_past_the_degree_budget_is_read_mod_T_P():
    # A fault at T^50 in E_vs_D at q = 131, level 2: the exact witness
    # would hold E_2(T^50), of degree 131^2 * 48; the one given is the
    # difference mod T^49, with the planted constant term.
    cfg = FieldConfig(131)
    with patch.object(identities, "eval_E",
                      _planted(identities.eval_E, 50, "1")):
        r = basis_distance(cfg, "E_vs_D", 2)
    assert (r.status, r.identity) == (FALSIFIED, "basis_distance")
    assert r.witness["i"] == 50 and r.witness["valuation"] == 0
    assert r.witness["difference"].startswith("1+")
    assert r.witness["difference"].endswith("+O(T^49)")


def test_power_criterion(f2, rng):
    from carlitzbases.transforms import E_func
    assert check_power_criterion(f2, E_func(f2, 1), 1, rng=rng).status == VERIFIED
    assert check_power_criterion(f2, G_func(f2, 3), 1, rng=rng).status == VERIFIED
    one = constant_func(f2, Poly.one(f2))
    assert check_power_criterion(f2, one, 1, rng=rng).status == VERIFIED


def test_power_criterion_falsifies_escape(f2, rng):
    from carlitzbases import TruncSeries
    tinv = TruncSeries(f2, -1, (1,), 30)
    bad = lambda x: tinv + x
    r = check_power_criterion(f2, bad, 1, rng=rng)
    assert r.status == FALSIFIED and r.witness is not None


@pytest.mark.parametrize("q", [2, 3])
def test_reduced_basis(q):
    cfg = FieldConfig(q)
    assert check_reduced_basis(cfg, 6).status == VERIFIED
    assert check_reduced_basis(cfg, 1).status == VERIFIED


@pytest.mark.parametrize("q", [11, 13, 17, 131, 251])
def test_reduced_basis_past_the_degree_budget(q):
    # Exact E_5(T^5) has degree 5 q**5, past the degree budget for q >= 11;
    # on T^j + O(T^(i+1)) the suite forms no such value.
    assert run_suite(FieldConfig(q), "reduced")[0].status == VERIFIED


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_reduced_basis_constant_terms_are_exact(q):
    # E_i(T^j + O(T^(i+1))) keeps one digit, the constant term of the
    # exact E_i(T^j).
    cfg = FieldConfig(*FIELDS.get(q, (q, 1)))
    for i in range(6):
        for j in range(6):
            exact = eval_E(cfg, i, Poly.monomial(cfg, j))
            truncated = eval_E(cfg, i, TruncSeries.monomial(cfg, j, 1, i + 1))
            assert truncated.prec == 1
            assert truncated.coeff(0) == exact.coeff(0)


def test_run_verification_reports_a_raising_suite(capsys):
    # A suite that raises BudgetError (here the distance suite, made to
    # raise): the script prints a FAILED line naming the error, runs the
    # suites after it, and exits 2 instead of raising.
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run_suite = script.run_suite

    def raising(cfg, selector, **kwargs):
        if selector == "distance":
            raise BudgetError("E_9 degree budget exceeded")
        return run_suite(cfg, selector, **kwargs)

    script.run_suite = raising
    rc = script.main(["--q", "2", "--n", "1", "--i-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    status = {line.split()[1]: line.split()[-1]
              for line in lines if line.startswith("q=2")}
    assert status == {"suite=ortho": "ok", "suite=addition": "ok",
                      "suite=linearity": "ok", "suite=distance": "FAILED",
                      "suite=power": "ok", "suite=reduced": "ok"}
    assert "    BudgetError: E_9 degree budget exceeded" in lines


# ---------------------------------------------------------------------------
# Suite runner and report serialization
# ---------------------------------------------------------------------------

def test_run_suite_all_small(f3):
    reports = run_suite(f3, "all", n=1, budget=256, seed=11, i_max=12)
    assert reports
    assert all(r.status == VERIFIED for r in reports), \
        [(r.identity, r.config, r.witness) for r in reports if r.status != VERIFIED]


def test_run_suite_unknown_selector(f2):
    with pytest.raises(DomainError):
        run_suite(f2, "nonsense")


@pytest.mark.parametrize("selector", ["distance", "ortho", "all"])
def test_run_suite_rejects_negative_level(f2, selector):
    with pytest.raises(DomainError):
        run_suite(f2, selector, n=-2)


@pytest.mark.parametrize("budget", [0, -4])
def test_run_suite_rejects_budget_below_one(f2, budget):
    # A budget of 0 ran no addition case and still reported "verified".
    with pytest.raises(DomainError):
        run_suite(f2, "addition", budget=budget)


def test_reports_serialization(f2):
    reports = run_suite(f2, "reduced")
    text = reports_to_json_text(reports)
    docs = json.loads(text)
    assert docs[0]["schema"] == "carlitzbases/v1"
    assert docs[0]["status"] == VERIFIED
    csv_text = reports_to_csv(reports)
    assert csv_text.splitlines()[0] == "identity,config,status"


def test_falsified_reports_carry_witness(f2):
    r = VerdictReport("demo", {}, FALSIFIED, witness={"x": "T"})
    assert not r.ok
    assert r.to_json()["witness"] == {"x": "T"}
