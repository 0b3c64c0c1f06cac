"""Identity checkers: orthogonality, addition laws, linearity, distances."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
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
from carlitzbases import algebra
from carlitzbases.algebra import random_poly
from carlitzbases.identities import (
    BUDGET_EXHAUSTED,
    FALSIFIED,
    VERIFIED,
    VerdictReport,
    _gram_entries,
    _tabulate,
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
    LinearFunc,
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
    digit_product_by_digits,
    orthogonality_suite_by_pairs,
    orthogonality_sum_by_pairs,
    power_sums_match,
    primed_values_match,
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
    # deg_lt admits any k >= 0, k >= q^n included; a negative k is refused
    # by its evaluator.
    for family in ("CARLITZ", "DIGIT"):
        with pytest.raises(DomainError, match="digit index must be non-negative"):
            check_orthogonality(f2, family, "deg_lt", 1, -1, 0)


def test_orthogonality_suite_budget(f2):
    reports = orthogonality_suite(f2, 9, budget=256)
    assert all(r.status == BUDGET_EXHAUSTED and r.notes for r in reports)
    want = orthogonality_suite_by_pairs(f2, 9, budget=256)
    assert [r.to_json() for r in reports] == [r.to_json() for r in want]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 1), (4, 1), (2, 1), (2, 3), (3, 2),
                                 (4, 2), (5, 1), (8, 1), (9, 1), (2, 4)])
def test_orthogonality_exhaustive_small(q, n):
    # The certified suite gives the reports of the per-pair oracle, byte
    # for byte.
    cfg = FieldConfig(*FIELDS[q])
    reports = orthogonality_suite(cfg, n)
    assert len(reports) == 4
    assert all(r.status == VERIFIED for r in reports)
    want = orthogonality_suite_by_pairs(cfg, n)
    assert reports_to_json_text(reports) == reports_to_json_text(want)


def test_verified_orthogonality_forms_no_gram_entry(monkeypatch):
    # A verified suite rests on the level certificate alone: no G_j or D_j
    # is evaluated, nothing is tabulated and no Gram product is formed.
    def unused(*args, **kwargs):
        raise AssertionError("the suite left its certificate")
    for name in ("_gram_entries", "_tabulate", "eval_G", "eval_D"):
        monkeypatch.setattr(identities, name, unused)
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
    # that the orthogonality suite's level certificate proves.
    cfg = FieldConfig(*FIELDS[q])
    polys = poly_enumerate(cfg, n, kind)
    for s in itertools.product(range(2 * q - 1), repeat=n):
        closed = all(st in (q - 1, 2 * q - 2) for st in s)
        want = Poly.constant(cfg, cfg.sign(n)) if closed else Poly.zero(cfg)
        assert _power_sum(cfg, base, polys, s) == want, s


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_gram_entries_match_per_pair_sums(q, data):
    # Any (k, l) subset, any order, k past q**n on deg_lt: every entry of
    # the Gram product of the tabulated rows is the per-pair sum.
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
    values, primed = _tabulate(cfg, family, variant, n, 256, ks, ls)
    assert (len(values), len(primed)) == (len(ks), len(ls))
    got = list(_gram_entries(cfg, ks, ls, values, primed))
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
    values, primed = _tabulate(cfg, "CARLITZ", "deg_lt", n, 256, [0, 1], [0])
    got = list(_gram_entries(cfg, [0, 1], [0], values, primed))
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


# The level of each family, and its name in ``identities``.
LEVELS = {"CARLITZ": ("eval_E", eval_E),
          "DIGIT": ("hasse_derivative", hasse_derivative)}


def _level_fault(family, t, m, delta):
    """The level b_t of ``family`` (E_t or D_t) with b_t(m) moved by
    delta: a planted level fault."""
    base = LEVELS[family][1]

    def level(cfg, i, x):
        value = base(cfg, i, x)
        if i == t and x == m:
            value = value + delta
        return value
    return level


def _plant_level(monkeypatch, family, name, level):
    """Make ``level`` the level of ``family`` wherever the suite reads it:
    in its certificate, and in its tabulated values (``name``, eval_G or
    eval_D), as digit products of ``level`` formed one digit at a time
    (nothing kept in a tower).  Returns the evaluators of the per-pair
    oracle."""
    monkeypatch.setattr(identities, LEVELS[family][0], level)

    def f(cfg, j, x, primed=False):
        return digit_product_by_digits(cfg, j, x, primed, level)
    monkeypatch.setattr(identities, name, f)
    evaluators = {"CARLITZ": eval_G, "DIGIT": eval_D}
    evaluators[family] = f
    return evaluators


@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
def test_orthogonality_falsified_report_matches_oracle(monkeypatch, family,
                                                       name):
    # Moving b_1(T + 1) by T fails the certificate of deg_lt only (T + 1
    # is not monic of degree 2); the Gram product read after it must name
    # the oracle's first (k, l), sum and expected value.
    cfg = FieldConfig(3)
    level = _level_fault(family, 1, Poly(cfg, (1, 1)), Poly.T(cfg))
    evaluators = _plant_level(monkeypatch, family, name, level)
    got = orthogonality_suite(cfg, 2)
    want = orthogonality_suite_by_pairs(cfg, 2, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    bad, = [r for r in got if r.status == FALSIFIED]
    assert (bad.config["family"], bad.config["variant"]) == (family, "deg_lt")
    assert bad.witness["sum"] != bad.witness["expected"]
    single = check_orthogonality(cfg, family, "deg_lt", 2, bad.config["k"],
                                 bad.config["l"])
    assert single.to_json() == bad.to_json()


@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
def test_falsified_suite_evaluates_each_value_once(monkeypatch, family, name):
    # Only a (family, variant) whose certificate fails tabulates, and the
    # witness is read from the values it tabulated: each (j, m, primed) is
    # evaluated once, 2 q**(2n) calls, point by point, every unprimed j
    # and then every primed one, both ascending.  A level moved at T + 1
    # fails the certificate of deg_lt only, so monic evaluates nothing.
    cfg = FieldConfig(3)
    n = 2
    _plant_level(monkeypatch, family, name,
                 _level_fault(family, 1, Poly(cfg, (1, 1)), Poly.T(cfg)))
    planted = getattr(identities, name)
    calls = []

    def counted(cfg, j, x, primed=False):
        calls.append((x.coeffs, primed, j))
        return planted(cfg, j, x, primed=primed)
    monkeypatch.setattr(identities, name, counted)
    reports = orthogonality_suite(cfg, n)
    assert [r.status for r in reports if r.config["family"] == family] == \
        [FALSIFIED, VERIFIED]
    want = [(m.coeffs, primed, j) for m in poly_enumerate(cfg, n, "deg_lt")
            for primed in (False, True) for j in range(3 ** n)]
    assert len(want) == 2 * 3 ** (2 * n)
    assert calls == want


@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
@pytest.mark.parametrize("variant,kind", [("deg_lt", "deg_lt"),
                                          ("monic", "monic_deg_eq")])
def test_check_orthogonality_evaluates_two_values_per_point(monkeypatch, family,
                                                             name, variant, kind):
    # One unprimed F_k(m) and one primed F'_l(m) per point, 2 q**n calls.
    cfg = FieldConfig(3)
    n, k, l = 2, 5, 3
    evaluate = getattr(identities, name)
    calls = []

    def counted(cfg, j, x, primed=False):
        calls.append((x.coeffs, primed, j))
        return evaluate(cfg, j, x, primed=primed)
    monkeypatch.setattr(identities, name, counted)
    assert check_orthogonality(cfg, family, variant, n, k, l).ok
    want = [(m.coeffs, primed, j) for m in poly_enumerate(cfg, n, kind)
            for primed, j in ((False, k), (True, l))]
    assert len(want) == 2 * 3 ** n
    assert calls == want


@pytest.mark.parametrize("q,n,t", [(3, 2, 0), (3, 2, 1), (4, 2, 1), (5, 1, 0),
                                   (2, 3, 2)])
@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
@pytest.mark.parametrize("where", ["deg_lt", "monic", "base", "monomial"])
def test_orthogonality_planted_level_faults_match_oracle(monkeypatch, q, n, t,
                                                         family, name, where):
    # b_t(m) moved by 1, at the top level or below it, at a point of degree
    # < n, at a monic point, at the monic base T**n, or at T**t: the suite
    # names the same first (k, l), sum and expected value as the oracle.
    # At T**t, a point of deg_lt that the monic sums never read, the monic
    # certificate fails (its affine sums read b_t(T**t)) and the Gram
    # product, read after it, verifies.
    cfg = FieldConfig(*FIELDS[q])
    m = {"deg_lt": Poly(cfg, [q - 1] + [1] * (n - 1)),  # no monomial
         "monic": Poly(cfg, [q - 1] + [0] * (n - 1) + [1]),
         "base": Poly.monomial(cfg, n),
         "monomial": Poly.monomial(cfg, t)}[where]
    evaluators = _plant_level(monkeypatch, family, name,
                              _level_fault(family, t, m, Poly.one(cfg)))
    got = orthogonality_suite(cfg, n)
    want = orthogonality_suite_by_pairs(cfg, n, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    variant = "deg_lt" if where in ("deg_lt", "monomial") else "monic"
    assert [(r.config["family"], r.config["variant"])
            for r in got if r.status == FALSIFIED] == [(family, variant)]


@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
def test_orthogonality_fault_at_the_unit_level_value(monkeypatch, family, name):
    # At q = 2, n = 1, b_0(1) moved by 1 to 0 keeps b_0 affine on the
    # points 0 and 1 of deg_lt, yet the Gram sums break: only the check
    # b_t(T**t) = 1 sees it.  The monic certificate fails too (its affine
    # sums read b_0(1)), and its Gram product verifies.
    cfg = FieldConfig(2)
    evaluators = _plant_level(monkeypatch, family, name,
                              _level_fault(family, 0, Poly.one(cfg), Poly.one(cfg)))
    got = orthogonality_suite(cfg, 1)
    want = orthogonality_suite_by_pairs(cfg, 1, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    assert [(r.config["family"], r.config["variant"])
            for r in got if r.status == FALSIFIED] == [(family, "deg_lt")]


@pytest.mark.parametrize("family", ["CARLITZ", "DIGIT"])
def test_level_certificate_checks_the_delta_pattern(monkeypatch, family):
    # b_1(1) moved to 1 at q = 3, n = 2: the monic sums never read the point
    # 1 and its affine sums read b_1(T**i) for i >= 1 only, so only the
    # check b_t(T**i) = 0, i < t, rejects the levels.
    cfg = FieldConfig(3)
    monkeypatch.setattr(identities, LEVELS[family][0],
                        _level_fault(family, 1, Poly.one(cfg), Poly.one(cfg)))
    assert not identities._levels_certified(cfg, family, "monic", 2, 256)


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=25, deadline=None)
def test_certified_levels_imply_the_oracle(q, data):
    # One random level fault (t, m, delta), delta possibly 0, m a point of
    # either variant (so also any T**i, i <= n): wherever the certificate
    # accepts, the tabulated values pass the primed check and every power
    # sum, and the per-pair Gram sums verify; and the suite always gives
    # the per-pair oracle's reports, byte for byte.
    cfg = FieldConfig(*FIELDS[q])
    n = data.draw(st.integers(1, {2: 3, 3: 2, 4: 2}.get(q, 1)), label="n")
    family, name = data.draw(st.sampled_from([("CARLITZ", "eval_G"),
                                              ("DIGIT", "eval_D")]), label="family")
    t = data.draw(st.integers(0, n - 1), label="t")
    points = (poly_enumerate(cfg, n, "deg_lt")
              + poly_enumerate(cfg, n, "monic_deg_eq"))
    m = data.draw(st.sampled_from(points), label="m")
    delta = Poly(cfg, data.draw(st.lists(st.integers(0, q - 1), max_size=2),
                                label="delta"))
    with pytest.MonkeyPatch.context() as mp:
        evaluators = _plant_level(mp, family, name,
                                  _level_fault(family, t, m, delta))
        got = orthogonality_suite(cfg, n)
        want = orthogonality_suite_by_pairs(cfg, n, evaluators=evaluators)
        assert reports_to_json_text(got) == reports_to_json_text(want)
        indices = range(q ** n)
        for variant, report in zip(("deg_lt", "monic"),
                                   [r for r in want if r.config["family"] == family]):
            if identities._levels_certified(cfg, family, variant, n, 256):
                values, primed = _tabulate(cfg, family, variant, n, 256,
                                           indices, indices)
                assert primed_values_match(cfg, n, values, primed)
                assert power_sums_match(cfg, n, values)
                assert report.status == VERIFIED


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (5, 1)])
@pytest.mark.parametrize("family,name", [("CARLITZ", "eval_G"),
                                         ("DIGIT", "eval_D")])
@pytest.mark.parametrize("primed", [False, True, "both"])
@pytest.mark.parametrize("where", ["top", "plain", "monic"])
def test_orthogonality_planted_faults_match_oracle(monkeypatch, q, n, family,
                                                   name, primed, where):
    # One value moved by 1 through the rows only, unprimed, primed or both,
    # at an index whose top digit is maximal (q**n - 1) or that has no
    # maximal digit (1), at a point of degree < n or monic of degree n.
    # No level moves, so the suite, which rests on the levels, verifies:
    # such a fault is the oracle's to catch.  The per-pair sums name the
    # falsified (family, variant), and the tabulated values fail the
    # primed check or, moved both ways where the primed values still match
    # their subset expansion, a power sum.
    cfg = FieldConfig(*FIELDS[q])
    j = 1 if where == "plain" else q ** n - 1
    m = Poly.monomial(cfg, n) if where == "monic" else Poly.one(cfg)
    evaluators = {"CARLITZ": eval_G, "DIGIT": eval_D}
    f = evaluators[family]
    for flag in ((False, True) if primed == "both" else (primed,)):
        f = _patched(f, j, m, Poly.one(cfg), primed=flag)
    evaluators[family] = f
    monkeypatch.setattr(identities, name, f)
    assert all(r.ok for r in orthogonality_suite(cfg, n))
    want = orthogonality_suite_by_pairs(cfg, n, evaluators=evaluators)
    variant = "monic" if where == "monic" else "deg_lt"
    assert [(r.config["family"], r.config["variant"])
            for r in want if r.status == FALSIFIED] == [(family, variant)]
    indices = range(q ** n)
    values, primed_values = _tabulate(cfg, family, variant, n, 256, indices,
                                      indices)
    # At n > 1, F_1 is a term of the subset expansion of F'_l for every
    # l = 1 + (q - 1) q**t, so the primed check sees any move at 1.
    consistent = primed == "both" and (where != "plain" or n == 1)
    assert primed_values_match(cfg, n, values, primed_values) == consistent
    if consistent:
        assert not power_sums_match(cfg, n, values)


@pytest.mark.parametrize("q,n", [(2, 9), (3, 7)])
def test_primed_check_at_slot_bound(q, n):
    # Constant tables, F = q - 1 and F' = 0 wherever l has a maximal digit:
    # the subset sum of l = q**n - 1 has 2**n terms, half of them times
    # p - 1, and overflows an 8-bit slot, so the oracle's width must
    # follow 2**n.
    cfg = FieldConfig(*FIELDS[q])
    full = (q - 1,) * 3
    size = q ** n
    values = [[full] for _ in range(size)]
    primed = [[full if all(l // q ** t % q != q - 1 for t in range(n)) else ()]
              for l in range(size)]
    assert primed_values_match(cfg, n, values, primed)
    primed[-1] = [(1,)]
    assert not primed_values_match(cfg, n, values, primed)


def test_orthogonality_budget_error_while_tabulating(monkeypatch, f2):
    # A BudgetError raised by a level evaluator (as the degree budget of
    # E_n would) makes only that family's reports budget_exhausted.
    def over_budget(cfg, t, x):
        raise BudgetError(f"D_{t} degree budget exceeded")
    evaluators = _plant_level(monkeypatch, "DIGIT", "eval_D", over_budget)
    got = orthogonality_suite(f2, 2)
    want = orthogonality_suite_by_pairs(f2, 2, evaluators=evaluators)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [r.status for r in got] == [VERIFIED, VERIFIED,
                                       BUDGET_EXHAUSTED, BUDGET_EXHAUSTED]


@pytest.mark.parametrize("raises", ["last point", "top index"])
def test_orthogonality_budget_error_late_in_tabulation(monkeypatch, f2, raises):
    # A BudgetError raised only at the last point of deg_lt, or only by the
    # top level, after other level values were read, still gives
    # budget_exhausted with the oracle's note; the monic sums never read
    # the last point of deg_lt.
    last = Poly(f2, (1, 1))

    def over_budget(cfg, t, x):
        if x == last if raises == "last point" else t == 1:
            raise BudgetError(f"D_{t} degree budget exceeded")
        return hasse_derivative(cfg, t, x)
    evaluators = _plant_level(monkeypatch, "DIGIT", "eval_D", over_budget)
    got = orthogonality_suite(f2, 2)
    want = orthogonality_suite_by_pairs(f2, 2, evaluators=evaluators)
    assert reports_to_json_text(got) == reports_to_json_text(want)
    monic = VERIFIED if raises == "last point" else BUDGET_EXHAUSTED
    assert [r.status for r in got] == [VERIFIED, VERIFIED,
                                       BUDGET_EXHAUSTED, monic]


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
    # j = q^m - 1 additionally triggers the x - u form.
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


def _digit_boxes(q, p, j):
    # Per base-q digit d_t != 0 of j: (t, d_t, the a <= d_t with C(d_t, a)
    # != 0 mod p).  j has at most bit_length(j) digits.
    digits = []
    for t in range(j.bit_length()):
        d = j // q ** t % q
        if d:
            digits.append((t, d, [a for a in range(d + 1)
                                  if identities.lucas_binom(d, a, p)]))
    return digits


@pytest.mark.parametrize("family", ["Gp", "Dp"])
def test_addition_law_reads_each_one_digit_value_once(monkeypatch, family):
    # Within one check the right sides read x and u only at one-digit
    # indices a q**t, a in the box of the digit d_t of j (F_0 = 1 is not
    # read): F_{a q**t}(x) for a != 0 and F'_{(d_t - a) q**t}(u) for
    # a != d_t, each once, also when the x - u form of j = q**m - 1
    # reuses the sums.  The primed families read F'_j(x) for
    # the scaling law, so the right side's reads at x are the unprimed ones.
    # q = 4 and 9 have digits whose box leaves out some a <= d_t.
    for q in (3, 4, 9):
        cfg = FieldConfig(*FIELDS[q])
        x, u = Poly(cfg, [1, 0, 1]), Poly(cfg, [1, 1])
        evaluate = eval_G if family == "Gp" else eval_D
        calls = []

        def counting(cfg, k, y, primed=False):
            calls.append((k, y, primed))
            return evaluate(cfg, k, y, primed=primed)

        monkeypatch.setattr(identities, "eval_" + family[0], counting)
        for j in sorted({0, 1, q - 1, q, 2 * q + 1, q * q - 1, q * q + q - 1,
                         2 * q * q, q ** 3 - 1}):
            calls.clear()
            assert check_addition_law(cfg, family, j, x, u).status == VERIFIED
            boxes = _digit_boxes(q, cfg.p, j)
            at_x = sorted(a * q ** t for t, d, box in boxes for a in box if a)
            at_u = sorted((d - a) * q ** t for t, d, box in boxes for a in box
                          if a < d)
            assert sorted(k for k, y, primed in calls if y == x and not primed) == at_x
            assert sorted(k for k, y, primed in calls if y == u and primed) == at_u
            assert not [k for k, y, primed in calls if y == u and not primed]
            assert all(k == j for k, y, primed in calls
                       if y != u and (y != x or primed))
        monkeypatch.undo()


@given(st.sampled_from(sorted(FIELDS)), st.sampled_from(["G", "Gp", "D", "Dp"]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_factored_convolution_matches_per_product_sums(q, family, data):
    # The code product of one-digit sums, with the tabulated binomial and
    # unit rows of each digit (``_digit_weights``) and the signed row
    # (-1)**a over its box, against one product, scalar multiple and
    # addition per e (``oracles.addition_convolution``) with the weights
    # read per e: C(j, e) mod p, and (-1)**e and 1 on the e with
    # C(j, e) != 0 mod p; for j < q**3 and every j = q**m - 1, at points
    # that may be 0.  No law uses the signed row, but it is not binomial
    # (q = 5, d = 2), so it checks that the convolution sums the row given.
    cfg = FieldConfig(*FIELDS[q])
    p = cfg.p
    j = data.draw(st.one_of(st.sampled_from((0, q - 1, q * q - 1, q ** 3 - 1)),
                            st.integers(0, q ** 3 - 1)))
    point = st.one_of(st.just([]), st.lists(st.integers(0, q - 1), max_size=3))
    x, u = Poly(cfg, data.draw(point)), Poly(cfg, data.draw(point))
    evaluate = eval_G if family[0] == "G" else eval_D
    primed = family.endswith("p")
    convolution = identities._addition_convolution(cfg, evaluate, primed, j, x, u)
    support = lambda e: identities.lucas_binom(j, e, p)
    for row, weight in (
            (lambda w: w.binomial, support),
            (lambda w: tuple(cfg.sign(a) for a in w.box),
             lambda e: support(e) and cfg.sign(e)),
            (lambda w: w.unit, lambda e: support(e) and 1)):
        want = addition_convolution(cfg, evaluate, primed, j, x, u, weight)
        assert convolution(row) == want.coeffs


def test_digit_weights_rows():
    # Each digit's box and rows, tabulated once per (d, p), against Lucas,
    # entry by entry: the box holds the a <= d with C(d, a) != 0 mod p, and
    # the rows are C(d, a) mod p and 1 over it.  At d = q - 1 the binomial
    # row is the signed one, C(q - 1, a) = (-1)**a mod p, so a signed form
    # at j = q**m - 1 (all digits q - 1) would repeat the binomial law;
    # below q - 1 it need not be (q = 5, d = 2: C(2, 1) = 2 against
    # -1 = 4).
    for q in sorted(FIELDS):
        cfg = FieldConfig(*FIELDS[q])
        p = cfg.p
        for d in range(1, q):
            w = identities._digit_weights(d, p)
            assert list(w.box) == [a for a in range(d + 1) if math.comb(d, a) % p]
            assert list(w.binomial) == [math.comb(d, a) % p for a in w.box]
            assert list(w.unit) == [1] * len(w.box)
        w = identities._digit_weights(q - 1, p)
        assert list(w.binomial) == [cfg.sign(a) for a in w.box]
    w = identities._digit_weights(2, 5)
    assert list(w.binomial) != [FieldConfig(5).sign(a) for a in w.box]


def test_addition_suite_tabulates_weights_and_multiplies_codes(monkeypatch):
    # One q = 4 addition suite, cold: the digit weights come from one table
    # entry per digit d < q, so identities.lucas_binom is called at most
    # once per (d, a), a <= d < q (9 calls; 9.8k when each check rebuilt
    # its boxes and weights), and the right sides multiply code strings:
    # no Poly product while a convolution is formed.
    q = 4
    cfg = FieldConfig(*FIELDS[q])
    identities._digit_weights.cache_clear()
    binom, build = identities.lucas_binom, identities._addition_convolution
    mul = Poly.__mul__
    binomials, inside, products = [], [], []

    def counting_binom(*args):
        binomials.append(args)
        return binom(*args)

    def counting_build(*args):
        convolution = build(*args)

        def counted(row):
            inside.append(row)
            try:
                return convolution(row)
            finally:
                inside.pop()
        return counted

    def counting_mul(self, other):
        if inside:
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(identities, "lucas_binom", counting_binom)
    monkeypatch.setattr(identities, "_addition_convolution", counting_build)
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    reports = run_suite(cfg, "addition")
    assert [r.status for r in reports] == [VERIFIED] * 4
    assert len(binomials) <= q * (q + 1) // 2
    assert len(set(binomials)) == len(binomials)
    assert identities._digit_weights.cache_info().currsize == q - 1
    assert products == []


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("family", ["G", "Gp"])
def test_addition_law_negative_index_is_a_domain_error(q, family):
    # As eval_G(cfg, -1, x) is: j = -1 has no base-q digits.
    cfg = FieldConfig(*FIELDS[q])
    with pytest.raises(DomainError, match="non-negative"):
        check_addition_law(cfg, family, -1, Poly.T(cfg), Poly.one(cfg))


def test_addition_law_negative_index_for_D_ends():
    # For D, a digit loop that took j = -1 would never end: the check runs
    # in one child process under a timeout, so such a loop fails the test
    # instead of hanging the suite.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from carlitzbases import DomainError, FieldConfig, Poly\n"
            "from carlitzbases import check_addition_law\n"
            "for q in (2, 3):\n"
            "    cfg, x = FieldConfig(q), Poly.T(FieldConfig(q))\n"
            "    for family in ('D', 'Dp'):\n"
            "        try:\n"
            "            check_addition_law(cfg, family, -1, x, x)\n"
            "        except DomainError as exc:\n"
            "            print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "digit index must be non-negative\n" * 4


@pytest.mark.parametrize("q", [q for q in sorted(FIELDS) if q % 2])
def test_addition_convolution_at_slot_width_step(monkeypatch, q):
    # A one-digit j = d, all-(q - 1) values of length L and an all-(p - 1)
    # weight row: the one-digit sum over the box of d has |box| (p - 1) terms,
    # so its slot bound is |box| (p - 1) L e (p - 1)**2.  At the longest L
    # that 8 bits hold and at one longer the factors must be packed at 8
    # and then 16 bits, and the sum must equal the per-product one.  d is
    # the largest digit for which L = 1 fits 8 bits.  For p = 2 the sums
    # XOR and pack nothing (``test_xor_convolution_matches_packed``).
    cfg = FieldConfig(*FIELDS[q])
    p, e = cfg.p, cfg.e
    per_length = {d: len(_digit_boxes(q, p, d)[0][2]) * (p - 1) ** 3 * e
                  for d in range(1, q)}
    d = max(d for d, c in per_length.items() if c <= 255)
    low = 255 // per_length[d]
    x = u = Poly.one(cfg)
    for length, width in ((low, 8), (low + 1, 16)):
        def evaluate(cfg, k, y, primed=False):
            return Poly(cfg, [q - 1] * length) if k else Poly.one(cfg)
        widths = []
        packer = algebra.pack
        monkeypatch.setattr(algebra, "pack", lambda cfg, coeffs, w: widths.append(w)
                            or packer(cfg, coeffs, w))
        convolution = identities._addition_convolution(cfg, evaluate, False, d,
                                                       x, u)
        monkeypatch.undo()
        assert set(widths) == {width}
        got = convolution(lambda w: [p - 1] * len(w.box))
        want = addition_convolution(cfg, evaluate, False, d, x, u,
                                    lambda a: identities.lucas_binom(d, a, p)
                                    and p - 1)
        assert got == want.coeffs and got


@pytest.mark.parametrize("q,a,t", [(2, 1, 2), (3, 2, 1), (4, 3, 1), (5, 4, 0),
                                   (8, 3, 1), (9, 5, 1)])
@pytest.mark.parametrize("family", ["G", "Gp", "D", "Dp"])
def test_addition_law_fault_in_one_one_digit_value(monkeypatch, q, a, t, family):
    # F_{a q**t}(x) + 1 at x only, unprimed only: the checks at j in order
    # verify until the first j whose box at t holds a, which is a q**t,
    # and that one is falsified as the addition law, with the planted value
    # on its right side only.
    cfg = FieldConfig(*FIELDS[q])
    x, u = Poly(cfg, [1, 0, 1]), Poly(cfg, [0, 1, 1])
    name = "eval_" + family[0]
    evaluate = getattr(identities, name)

    def planted(cfg, k, y, primed=False):
        value = evaluate(cfg, k, y, primed=primed)
        return value + Poly.one(cfg) if (k, y, primed) == (a * q ** t, x, False) else value

    monkeypatch.setattr(identities, name, planted)
    def holds(j):  # the box of the digit of j at t holds a
        return any(s == t and a in box for s, _, box in _digit_boxes(q, cfg.p, j))

    first = next(j for j in range(q ** 3) if holds(j))
    assert first == a * q ** t
    for j in range(first):
        assert check_addition_law(cfg, family, j, x, u).status == VERIFIED
    r = check_addition_law(cfg, family, first, x, u)
    assert (r.identity, r.status) == ("addition_law", FALSIFIED)
    assert r.witness["lhs"] != r.witness["rhs"]


@given(st.sampled_from([4, 8]), st.sampled_from(["G", "Gp", "D", "Dp"]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_xor_convolution_matches_packed(q, family, data):
    # For p = 2 the convolution XORs the products of odd weight: against
    # the packed sum (``packed_sums``) of those products, for the binomial
    # and unit weights of the addition law, the signed weights (all equal
    # mod 2 on the support) and an arbitrary weight per e, for j up to
    # q**2 - 1 and every j = q**m - 1 among them.
    cfg = FieldConfig(*FIELDS[q])
    j = data.draw(st.one_of(st.sampled_from((q - 1, q * q - 1)),
                            st.integers(0, q * q - 1)))
    x = Poly(cfg, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    u = Poly(cfg, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    evaluate = eval_G if family[0] == "G" else eval_D
    primed = family.endswith("p")
    support = [e for e in range(j + 1) if identities.lucas_binom(j, e, 2)]
    left = [evaluate(cfg, e, x).coeffs for e in support]
    right = [evaluate(cfg, j - e, u, primed=primed).coeffs for e in support]
    xor = algebra.product_sums(cfg, left, right, len(support))
    arbitrary = data.draw(st.lists(st.integers(0, 1), min_size=len(support),
                                   max_size=len(support)))
    for weights in ([identities.lucas_binom(j, e, 2) for e in support],
                    [cfg.sign(e) for e in support], [1] * len(support), arbitrary):
        odd = [i for i, w in enumerate(weights) if w % 2]
        packed = next(algebra.packed_sums(cfg, [[left[i] for i in odd]],
                                          [[right[i] for i in odd]])) if odd else b""
        assert xor(enumerate(weights)) == packed


@pytest.mark.parametrize("q", [4, 8])
def test_addition_suite_catches_a_planted_value_in_the_xor_sum(monkeypatch, q):
    # F_1(y) + 1 at every point y, unprimed only, in both families: each
    # of the four addition reports is falsified.  For Gp and Dp the left
    # side F'_j(x + u) is untouched and only the XOR sum of the products
    # F_e(x) F'_{j-e}(u) carries the fault.  The clean suite packs nothing:
    # its products take the row kernel and its sums XOR.
    cfg = FieldConfig(*FIELDS[q])
    packer, unpacker = algebra.pack, algebra.unpack

    def no_packing(*args):
        raise AssertionError("the p = 2 addition suite packed a value")

    monkeypatch.setattr(algebra, "pack", no_packing)
    monkeypatch.setattr(algebra, "unpack", no_packing)
    clean = run_suite(cfg, "addition", seed=3, budget=16)
    assert [r.status for r in clean] == [VERIFIED] * 4
    monkeypatch.setattr(algebra, "pack", packer)
    monkeypatch.setattr(algebra, "unpack", unpacker)

    def planted(evaluate):
        def wrapper(cfg, k, y, primed=False):
            value = evaluate(cfg, k, y, primed=primed)
            return value + Poly.one(cfg) if k == 1 and not primed else value
        return wrapper

    for name in ("eval_G", "eval_D"):
        monkeypatch.setattr(identities, name, planted(getattr(identities, name)))
    reports = run_suite(cfg, "addition", seed=3, budget=16)
    assert [(r.config["family"], r.config["j"], r.identity, r.status)
            for r in reports] == [(family, 1, "addition_law", FALSIFIED)
                                  for family in ("G", "Gp", "D", "Dp")]
    assert all(r.witness["lhs"] != r.witness["rhs"] for r in reports)


def _scaled_reads(monkeypatch, cfg):
    # Runs cfg's addition suite and returns, per check in order, its family
    # and the alpha of each F_j read at a point formed as x.scalar_mul(alpha)
    # from that check's x.
    checks, failure, scalar_mul = [], identities._addition_failure, Poly.scalar_mul

    def checking(cfg, family, j, x, u, alphas):
        checks.append((family, j, x, [], []))
        return failure(cfg, family, j, x, u, alphas)

    def scaling(self, c):
        point = scalar_mul(self, c)
        if checks and self is checks[-1][2]:
            checks[-1][3].append((point, c))
        return point

    def reading(evaluate):
        def wrapper(cfg, k, y, primed=False):
            _, j, _, points, read = checks[-1]
            read.extend(c for point, c in points if point is y and k == j)
            return evaluate(cfg, k, y, primed=primed)
        return wrapper

    monkeypatch.setattr(identities, "_addition_failure", checking)
    monkeypatch.setattr(Poly, "scalar_mul", scaling)
    for name in ("eval_G", "eval_D"):
        monkeypatch.setattr(identities, name, reading(getattr(identities, name)))
    reports = run_suite(cfg, "addition")
    monkeypatch.undo()
    assert [r.status for r in reports] == [VERIFIED] * 4
    return [(family, read) for family, _, _, _, read in checks]


@pytest.mark.parametrize("q", [5, 8, 9])
def test_addition_suite_reads_every_alpha(monkeypatch, q):
    # The suite reads the scaling law at one alpha per check, in turn, so
    # each family reads every alpha in 2..q-1 (3 j_max checks per family).
    checks = _scaled_reads(monkeypatch, FieldConfig(*FIELDS[q]))
    for family in ("G", "Gp", "D", "Dp"):
        read = [alpha for f, alphas in checks if f == family for alpha in alphas]
        assert set(read) == set(range(2, q))


def test_addition_suite_reads_one_scaled_point_per_check(monkeypatch):
    # At q = 9 each check reads F_j at one scaled point, not at all seven
    # alpha x: 3 checks per j < 256 (the default budget) and family.
    checks = _scaled_reads(monkeypatch, FieldConfig(*FIELDS[9]))
    assert len(checks) == 4 * 3 * 256
    assert all(len(alphas) == 1 for _, alphas in checks)


@pytest.mark.parametrize("alpha", [2, 3, 4])
@pytest.mark.parametrize("family", ["G", "Gp", "D", "Dp"])
def test_addition_suite_catches_a_fault_at_one_alpha(monkeypatch, family, alpha):
    # F_j(y) + 1 only where y was formed as a scalar multiple by alpha: a
    # check that reads another alpha passes, and the suite, which reads
    # each alpha in turn, is falsified by the scaling law at alpha.
    cfg = FieldConfig(*FIELDS[5])
    scalar_mul, scaled = Poly.scalar_mul, []

    def scaling(self, c):
        point = scalar_mul(self, c)
        if c == alpha:
            scaled.append(point)
        return point

    name = "eval_" + family[0]
    evaluate = getattr(identities, name)

    def planted(cfg, k, y, primed=False):
        value = evaluate(cfg, k, y, primed=primed)
        return value + Poly.one(cfg) if any(y is s for s in scaled) else value

    monkeypatch.setattr(Poly, "scalar_mul", scaling)
    monkeypatch.setattr(identities, name, planted)
    x, u = Poly(cfg, [1, 0, 1]), Poly(cfg, [0, 1, 1])
    for other in (2, 3, 4):
        failure = identities._addition_failure(cfg, family, 3, x, u, (other,))
        assert (failure is None) == (other != alpha)
    report = run_suite(cfg, "addition", budget=8)[("G", "Gp", "D", "Dp").index(family)]
    assert (report.identity, report.status) == ("addition_scaling", FALSIFIED)
    assert report.witness["alpha"] == alpha


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


def test_classify_linearity_sampling_disagrees(f3, rng):
    # An expansion read against the wrong evaluator is FALSIFIED with both
    # answers: x -> x**2 keeps f(0) = 0, so the additivity samples answer;
    # x -> x + T is refused at f(0), after that one evaluation.
    linear = digit_coeffs(identity_func(f3), 9, f3)
    nonlinear = digit_coeffs(monomial_func(f3, 2), 9, f3)
    shifted, calls = add_func(identity_func(f3), constant_func(f3, Poly.T(f3))), []
    counted = LinearFunc(f3, lambda x: calls.append(x) or shifted(x), linear=False)
    for exp, evaluator, says in ((linear, monomial_func(f3, 2), True),
                                 (linear, counted, True),
                                 (nonlinear, identity_func(f3), False)):
        r = classify_linearity(exp, evaluator=evaluator, rng=rng)
        assert (r.identity, r.status) == ("linearity", FALSIFIED)
        assert r.witness == {"expansion_says": says, "sampling_says": not says}
    assert calls == [Poly.zero(f3)]


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


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_difference_valuation_matches_subtraction(q, data):
    # v(f - g) read from the codes aligned as ints, against the valuation of
    # the subtraction: unequal valuations and precisions, values zero to
    # precision, equal values, and differences that start at or past the
    # lesser precision.
    cfg = FieldConfig(*FIELDS[q])
    digits = st.lists(st.integers(0, q - 1), max_size=8)
    v, prec = data.draw(st.integers(-3, 5)), data.draw(st.integers(0, 12))
    f = TruncSeries(cfg, v, data.draw(digits), v + prec)
    kind = data.draw(st.sampled_from(("free", "equal", "moved")))
    if kind == "free":
        w = data.draw(st.integers(-3, 5))
        g = TruncSeries(cfg, w, data.draw(digits), w + data.draw(st.integers(0, 12)))
    else:
        g = f.truncate(data.draw(st.integers(v - 2, v + prec)))
        if kind == "moved":
            g = g + TruncSeries.monomial(cfg, data.draw(st.integers(v - 3, v + prec + 3)),
                                         data.draw(st.integers(1, q - 1)))
    for a, b in ((f, g), (g, f)):
        assert identities._difference_valuation(a, b) == (a - b).valuation


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
    assert (r.identity, r.status) == ("power_criterion", FALSIFIED)
    assert set(r.witness) == {"x", "f(x)", "reason"}
    assert r.witness["reason"] == "value escapes O"


@pytest.mark.parametrize("q", [2, 3])
def test_reduced_basis(q):
    cfg = FieldConfig(q)
    assert check_reduced_basis(cfg, 6).status == VERIFIED
    assert check_reduced_basis(cfg, 1).status == VERIFIED


@pytest.mark.parametrize("cell,planted,both,witness", [
    ((1, 0), 1, False, None), ((2, 2), 2, True, {"diagonal": (2, 2)}),
    ((3, 1), 1, True, {"entry": (3, 1, 1)})])
def test_reduced_basis_falsified_witnesses(monkeypatch, cell, planted, both, witness):
    # The reduced value at cell (i, j) planted in D_i(T^j) alone (the two
    # matrices differ), or in E_i(T^j) and D_i(T^j) alike, on the diagonal
    # or below it: each check reports its own witness.
    cfg = FieldConfig(3)
    E, D = identities.eval_E, identities.hasse_derivative
    monkeypatch.setattr(identities, "eval_E", lambda cfg, i, x: Poly(cfg, [planted])
                        if both and (i, x.v) == cell else E(cfg, i, x))
    monkeypatch.setattr(identities, "hasse_derivative",
                        lambda cfg, i, x: Poly(cfg, [planted])
                        if (i, x.degree) == cell else D(cfg, i, x))
    r = check_reduced_basis(cfg, 6)
    assert (r.identity, r.status) == ("reduced_basis", FALSIFIED)
    i, j = cell
    if witness is None:
        assert set(r.witness) == {"E", "D"}
        assert r.witness["D"][i][j] == planted and r.witness["E"][i][j] == 0
    else:
        assert r.witness == witness


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_reduced_basis_reads_one_point_per_j(monkeypatch, q):
    # E_i(T^j) mod T for every i < n_max from the one point T^j + O(T^n_max):
    # at most n_max distinct points reach eval_E.
    points, E = set(), identities.eval_E
    monkeypatch.setattr(identities, "eval_E",
                        lambda cfg, i, x: points.add(x) or E(cfg, i, x))
    assert check_reduced_basis(FieldConfig(*FIELDS[q]), 6).status == VERIFIED
    assert len(points) <= 6


@pytest.mark.parametrize("q", [11, 13, 17, 131, 251])
def test_reduced_basis_past_the_degree_budget(q):
    # Exact E_5(T^5) has degree 5 q**5, past the degree budget for q >= 11;
    # on T^j + O(T^6) the suite forms no such value.
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
