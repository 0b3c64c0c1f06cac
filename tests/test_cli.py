"""Command-line interface: parsing, output formats, exit-status contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carlitzbases import FieldConfig, Poly, bracket, parse_poly
from carlitzbases.algebra import random_poly, values_match
from carlitzbases.cli import FUNC_GRAMMAR, RunConfig, main, parse_func


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# RunConfig and the function grammar
# ---------------------------------------------------------------------------

def test_runconfig_roundtrip():
    run = RunConfig(p=3, e=1, prec=16, budget=128, seed=7, format="csv")
    assert RunConfig.from_text(run.to_text()) == run


def test_parse_func_simple(f2):
    f = parse_func(f2, "D:1")
    from carlitzbases import hasse_derivative
    t3 = Poly.monomial(f2, 3)
    assert f(t3) == hasse_derivative(f2, 1, t3)


def test_parse_func_combination(f2, rng):
    f = parse_func(f2, "T*E:1+D:2")
    from carlitzbases import eval_E, hasse_derivative
    for _ in range(5):
        x = random_poly(f2, rng, 4)
        expected = Poly.T(f2) * eval_E(f2, 1, x) + hasse_derivative(f2, 2, x)
        assert values_match(f(x), expected)
    assert f.linear


def test_parse_func_unknown_name(f2):
    from carlitzbases import DomainError
    with pytest.raises(DomainError):
        parse_func(f2, "mystery:3")


@pytest.mark.parametrize("spec,same_as", [
    ("(T+1)*E:1", "T*E:1+E:1"),
    ("(T)*E:1+D:2", "T*E:1+D:2"),
    ("D:2+(T^2+1)*E:1", "D:2+T^2*E:1+E:1"),
])
def test_expand_parenthesised_scalar(capsys, spec, same_as):
    # '+' inside parentheses belongs to the scalar, not the term list.
    runs = []
    for f in (spec, same_as):
        code, out, err = run_cli(capsys, "--q", "2", "expand", "--f", f,
                                 "--basis", "E", "--terms", "3")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc.pop("function") == f
        runs.append(doc)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("spec", ["(T+1*E:1", "T+1)*E:1", "(T+1))*E:1", "((T)*E:1"])
def test_expand_unbalanced_parentheses_exit_two(capsys, spec):
    code, out, err = run_cli(capsys, "--q", "2", "expand", "--f", spec,
                             "--basis", "E", "--terms", "3")
    assert code == 2
    assert out == "" and "unbalanced parentheses" in err
    from carlitzbases import DomainError
    with pytest.raises(DomainError):
        parse_func(FieldConfig(2), spec)


@pytest.mark.parametrize("spec,term", [
    ("2*(T+1)*E:1", "2*(T+1)*E:1"),
    ("(T+1)*(T)*E:1", "(T+1)*(T)*E:1"),
    ("E:abc", "E:abc"),
])
def test_expand_unreadable_term_exit_two(capsys, spec, term):
    # A scalar or index the grammar cannot read is named with the grammar,
    # not with Python's int() message.
    code, out, err = run_cli(capsys, "--q", "3", "expand", "--f", spec,
                             "--basis", "E", "--terms", "2")
    assert code == 2 and out == ""
    assert repr(term) in err and FUNC_GRAMMAR in err
    assert "int()" not in err
    from carlitzbases import DomainError
    with pytest.raises(DomainError):
        parse_func(FieldConfig(3), spec)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_delta_sequence(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "expand", "--f", "D:1",
                           "--basis", "linear-D", "--terms", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "carlitzbases/v1"
    assert doc["entries"] == ["0", "1", "0", "0", "0"]


def test_expand_frobenius_bracket_powers(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "expand", "--f", "frobenius:1",
                           "--basis", "linear-D", "--terms", "4")
    assert code == 0
    doc = json.loads(out)
    f2 = FieldConfig(2)
    br = bracket(f2, 1)
    assert [parse_poly(f2, t) for t in doc["entries"]] == [br ** i for i in range(4)]


def test_expand_G3_in_D_basis(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "expand", "--f", "G:3",
                           "--basis", "D", "--level", "2", "--terms", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "D" and len(doc["entries"]) == 4


def test_expand_nonlinear_in_linear_basis_fails(capsys):
    code, _, err = run_cli(capsys, "--q", "2", "expand", "--f", "G:3",
                           "--basis", "linear-D", "--terms", "4")
    assert code == 2
    assert "linear" in err


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def test_matrix_inverse_unit_diagonal(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "matrix", "--which", "inverse",
                           "--size", "4")
    assert code == 0
    doc = json.loads(out)
    for n in range(4):
        assert doc["entries"][n][n] == "1"


def test_matrix_voloch_column(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "matrix", "--which", "voloch",
                           "--size", "4", "--prec", "12")
    assert code == 0
    doc = json.loads(out)
    f2 = FieldConfig(2)
    from carlitzbases import carlitz_L
    for n in range(1, 4):
        entry = doc["entries"][n][1]
        expected = str(carlitz_L(f2, n - 1).to_series(12))
        assert entry == expected


def test_matrix_size_one(capsys):
    code, out, _ = run_cli(capsys, "--q", "3", "matrix", "--which", "voloch",
                           "--size", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1+O(T^24)"]]


def test_matrix_voloch_size_30(capsys):
    # Past size 18 an exact L_{n-1} would need [17], over the degree budget.
    code, out, _ = run_cli(capsys, "--q", "2", "matrix", "--which", "voloch",
                           "--size", "30", "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 30 and doc["entries"][29][29] == "1+O(T^128)"


@pytest.mark.parametrize("argv", [
    ("matrix", "--which", "voloch", "--size", "-1"),
    ("matrix", "--which", "voloch", "--size", "0"),
    ("matrix", "--which", "inverse", "--size", "0"),
    ("matrix", "--which", "voloch", "--prec", "0"),
    ("matrix", "--which", "voloch", "--prec", "-3"),
    ("--prec", "0", "matrix", "--which", "voloch"),
    ("expand", "--f", "D:1", "--basis", "E", "--terms", "-3"),
    ("expand", "--f", "D:1", "--basis", "linear-D", "--terms", "0"),
    ("expand", "--f", "D:1", "--basis", "powered-D", "--terms", "0"),
    ("expand", "--f", "G:3", "--basis", "G", "--terms", "0"),
    ("expand", "--f", "G:3", "--basis", "D", "--terms", "-3"),
    ("verify", "--suite", "distance", "--n", "-2"),
    ("verify", "--suite", "all", "--n", "-1"),
    ("--budget", "0", "verify", "--suite", "addition"),
    ("--budget", "-1", "verify", "--suite", "all"),
])
def test_vacuous_requests_exit_two(capsys, argv):
    # An empty matrix, expansion or sweep is an input error, never an empty
    # success.
    code, out, err = run_cli(capsys, "--q", "2", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv,flag", [
    (("--f", "D:1", "--basis", "E", "--level", "3"), "--level"),
    (("--f", "D:1", "--basis", "linear-D", "--level", "2"), "--level"),
    (("--f", "D:1", "--basis", "powered-D", "--level", "2"), "--level"),
    (("--f", "D:1", "--basis", "E", "--m", "2"), "--m"),
    (("--f", "D:1", "--basis", "linear-D", "--m", "1"), "--m"),
    (("--f", "G:3", "--basis", "G", "--m", "1"), "--m"),
    (("--f", "G:3", "--basis", "D", "--level", "2", "--m", "2"), "--m"),
])
def test_expand_rejects_a_flag_its_basis_ignores(capsys, argv, flag):
    # --level is read by the G and D bases only, --m by powered-D only: any
    # other basis would silently ignore it.
    code, out, err = run_cli(capsys, "--q", "2", "expand", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and f"{flag} is not read" in err


def test_expand_powered_m_defaults_to_one(capsys):
    argv = ("--q", "3", "expand", "--f", "E:1+D:2", "--basis", "powered-D",
            "--terms", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["m"] == 1
    assert run_cli(capsys, *argv, "--m", "1")[1] == out


def test_matrix_inverse_rejects_prec(capsys):
    # The inverse matrix is exact: a --prec for it would be silently ignored.
    code, out, err = run_cli(capsys, "--q", "2", "matrix", "--which", "inverse",
                             "--size", "2", "--prec", "5")
    assert code == 2
    assert out == "" and "--prec" in err


@pytest.mark.parametrize("argv", [
    ("--q", "2", "--modulus", "u^2+u+1"),
    ("--p", "3", "--modulus", "u^2+1"),
    ("--modulus", "u+1"),
])
def test_modulus_for_prime_field_exits_two(capsys, argv):
    # A prime field has no modulus; one given beside it is an error, not
    # silently dropped.
    code, out, err = run_cli(capsys, *argv, "info")
    assert code == 2
    assert out == "" and "modulus" in err


@pytest.mark.parametrize("modulus,term", [("garbage", "garbage"),
                                          ("u^2+x+1", "x"), ("u^a+u+1", "u^a")])
def test_unreadable_modulus_exits_two(capsys, modulus, term):
    # A modulus term that cannot be read is named in the error, beside the
    # accepted form, not reported as a bare int() failure.
    code, out, err = run_cli(capsys, "--q", "4", "--modulus", modulus, "info")
    assert code == 2 and out == ""
    assert f"cannot read polynomial term {term!r}" in err
    assert "T^4, 2*T or 3" in err and "int()" not in err


@pytest.mark.parametrize("argv", [
    ("--q", "4", "--e", "3"),
    ("--q", "4", "--e", "1"),
    ("--q", "4", "--p", "3"),
    ("--q", "9", "--p", "3", "--e", "1"),
    ("--q", "2", "--p", "2", "--e", "2"),
])
def test_q_disagreeing_with_p_or_e_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "info")
    assert code == 2
    assert out == "" and "disagrees" in err


@pytest.mark.parametrize("argv,run_config", [
    ((), '{"budget": 256, "e": 1, "format": "json", "modulus": null, "p": 2, '
         '"prec": 24, "seed": 0}'),
    (("--q", "4"), '{"budget": 256, "e": 2, "format": "json", "modulus": null, '
                   '"p": 2, "prec": 24, "seed": 0}'),
    (("--q", "4", "--p", "2", "--e", "2"),
     '{"budget": 256, "e": 2, "format": "json", "modulus": null, "p": 2, '
     '"prec": 24, "seed": 0}'),
    (("--q", "9", "--e", "2", "--modulus", "u^2+1"),
     '{"budget": 256, "e": 2, "format": "json", "modulus": "u^2+1", "p": 3, '
     '"prec": 24, "seed": 0}'),
    (("--p", "3", "--seed", "4", "--prec", "7"),
     '{"budget": 256, "e": 1, "format": "json", "modulus": null, "p": 3, '
     '"prec": 7, "seed": 4}'),
    (("--p", "2", "--e", "3"), '{"budget": 256, "e": 3, "format": "json", '
                               '"modulus": null, "p": 2, "prec": 24, "seed": 0}'),
])
def test_field_flags_run_config(capsys, argv, run_config):
    # Agreeing or absent field flags keep the run_config bytes.
    code, out, _ = run_cli(capsys, *argv, "info")
    assert code == 0
    assert json.loads(out)["run_config"] == run_config


def test_matrix_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "--format", "csv",
                           "matrix", "--which", "inverse", "--size", "3")
    assert code == 0
    assert out.splitlines()[0] == "row,col,entry"


# The CSV bytes of each command, as sha256 of stdout, recorded when every
# command still built its CSV text eagerly.
CSV_RUNS = [
    (("--q", "2", "matrix", "--which", "voloch", "--size", "5", "--prec", "24"),
     "29e99e93735f264ec6f563fd33188fd422ef5735e4f8858920f32dc5ab0ac35a"),
    (("--q", "3", "matrix", "--which", "inverse", "--size", "4"),
     "0c730f7f1cfdc8ccb1c1b547939214c64ee14de14c55476007a93e7401e8228d"),
    (("--q", "3", "expand", "--f", "T*E:1+D:2", "--basis", "G", "--terms", "9"),
     "1c49bc04663f0cc610955e71d3aff856b90dc393599fffb6e55e876a30fce916"),
    (("--q", "2", "expand", "--f", "E:2+D:1", "--basis", "E", "--terms", "6"),
     "02b10a52873500937814bbbf3dcbd3097348a504d4f2cacef0234dd71f2f47d4"),
    (("--q", "3", "verify", "--suite", "power"),
     "ca77b4afb88eee85d86ca03d02766c8a163f9ac148b257f61b8a2788480f1919"),
    (("--q", "2", "verify", "--suite", "ortho", "--n", "3"),
     "8c15bcd174c776eac18611d0678ec88e376a9464efcc633d3cd642dad11eea63"),
]


@pytest.mark.parametrize("argv,digest", CSV_RUNS)
def test_csv_bytes_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "--format", "csv", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The JSON bytes of E_n paths that the benchmark's reference digests do not
# reach: fields with e > 1 (q = 8 and 16 take the XOR scan, q = 9 and 27
# pack the widest blocks of odd p), and the p > 128 fields, whose slots are
# two bytes wide.  Recorded before the bracket step moved onto pack/unpack.
# The next five pin the closed sums of the powered-D and linear-D bases and
# of the inverse matrix (odd p with e = 1 and e > 1, q = 16, and q = 2 at
# size 12), recorded while each still added its terms one at a time.  The
# last four pin powered-D at m = 1, 2, 3 (q = 2, 4, 5, 9), recorded while
# beta still came from b by the [m]-power conversion weights.
E_PATH_RUNS = [
    (("--q", "8", "matrix", "--which", "inverse", "--size", "4"),
     "9379039eb6b1bf1f727e4c2b7a1f02bef1d93603164f7e440ffe41f7cedf3aa9"),
    (("--q", "9", "expand", "--f", "E:2+D:1", "--basis", "E", "--terms", "5"),
     "79c74f8fda8304da67b1f0babbbf1cc76740f2ee5033dc7ee1296ec7eedc8138"),
    (("--q", "16", "verify", "--suite", "reduced"),
     "fe40a34f8369bae020f612af87e10e889c9008e5b78743ed66efaf505688b9b7"),
    (("--q", "27", "verify", "--suite", "distance", "--n", "2"),
     "ac1a6412bbe82581610affd89f0c3866ecbf5924872da9e571f542c2d9c1dfc6"),
    (("--q", "131", "verify", "--suite", "distance", "--n", "3"),
     "8504c9e10c07a1cf657cb631ae57fa9be4ab4a0e0e37b61fd129a856d1a9e7d6"),
    (("--q", "251", "verify", "--suite", "reduced"),
     "9a39e1d68fbf59d5f2b798daee4bdf419050232874ca398ef998f26f3befe3a7"),
    (("--q", "3", "expand", "--f", "E:2+frobenius:1", "--basis", "powered-D",
      "--m", "2", "--terms", "7"),
     "769b7574f09cec395d4c928492337862e8f8a02df74b0779ef3ae05c063ef275"),
    (("--q", "5", "expand", "--f", "T*E:2+D:3", "--basis", "linear-D",
      "--terms", "9"),
     "7062ad1d91113ad2c1335b0162d45bb1ef7dc4fcf6d2ddfb9efb2ae9a52d5877"),
    (("--q", "9", "expand", "--f", "E:1+D:2", "--basis", "linear-D",
      "--terms", "16"),
     "d7bc983319c8dfe40bb586b3b0ef8fe8dffcdefc7c5c1e29ea4c97216932fcad"),
    (("--q", "16", "matrix", "--which", "inverse", "--size", "4"),
     "88ecd4e2271eda1ee9a100a9525af2ba4cd69198fcaba36380658ba535baed38"),
    (("--q", "2", "matrix", "--which", "inverse", "--size", "12"),
     "bc84145ea2fcc1b592b886d726fffc591de86dd504347dbd5c73f6c6c14e70ab"),
    (("--q", "2", "expand", "--f", "E:3+D:2", "--basis", "powered-D",
      "--m", "3", "--terms", "32"),
     "c74a3334b0238d071a83e13d5a0c7c9055d5f5e15565c8292b44592505cd007d"),
    (("--q", "4", "expand", "--f", "E:2+D:1", "--basis", "powered-D",
      "--m", "2", "--terms", "16"),
     "cddbe58e33482a0e71c702fddd84dce718bfd886b1e3877fcdfb8845b4c7ca6b"),
    (("--q", "9", "expand", "--f", "E:1+D:2", "--basis", "powered-D",
      "--m", "1", "--terms", "12"),
     "32351d77a8273df0f0da934fee89552967bc49b44d07a890b40ae0beec326567"),
    (("--q", "5", "expand", "--f", "T*E:2+D:3", "--basis", "powered-D",
      "--terms", "20"),
     "aa9be4ae56c332dbe7e4cd72f3c503ea1c8dc7e6e7b92a0ca222b8a36a7e352f"),
]


@pytest.mark.parametrize("argv,digest", E_PATH_RUNS)
def test_e_path_bytes_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in CSV_RUNS])
def test_json_output_builds_no_csv(monkeypatch, capsys, argv):
    # Every CSV builder is replaced by one that fails the test: JSON output
    # never calls it, and --format csv does, so the replacement is the one
    # the command reaches.
    from carlitzbases import cli, identities, transforms

    def refuse(*args):
        raise AssertionError("CSV text built")

    monkeypatch.setattr(transforms.BasisMatrix, "to_csv", refuse)
    monkeypatch.setattr(cli, "_expansion_csv", refuse)
    monkeypatch.setattr(identities, "reports_to_csv", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["run_config"]
    with pytest.raises(AssertionError, match="CSV text built"):
        main(["--format", "csv", *argv])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ortho_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "verify", "--suite", "ortho",
                           "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["falsified"] == 0
    assert doc["summary"]["budget_exhausted"] == 0


def test_verify_all_q3(capsys):
    code, out, _ = run_cli(capsys, "--q", "3", "verify", "--suite", "all",
                           "--n", "2")
    assert code == 0


def test_verify_budget_exhausted_exit_two(capsys):
    code, out, _ = run_cli(capsys, "--q", "2", "--budget", "256",
                           "verify", "--suite", "ortho", "--n", "9")
    assert code == 2
    doc = json.loads(out)
    assert doc["summary"]["budget_exhausted"] > 0


@pytest.mark.parametrize("q", [2, 3])
def test_verify_addition_at_budget_one_exit_two(capsys, q):
    # A budget of 1 admits only j = 0, where both sides are the constant 1:
    # no family is verified on that, each is budget_exhausted with a note
    # naming the budget.  A budget of 2 checks j = 1 and verifies.
    code, out, _ = run_cli(capsys, "--q", str(q), "--budget", "1",
                           "verify", "--suite", "addition")
    assert code == 2
    reports = json.loads(out)["reports"]
    assert [r["config"]["family"] for r in reports] == ["G", "Gp", "D", "Dp"]
    assert {r["status"] for r in reports} == {"budget_exhausted"}
    assert all(r["config"]["j_max"] == 1 and "budget 1 " in r["notes"][0]
               for r in reports)
    code, out, _ = run_cli(capsys, "--q", str(q), "--budget", "2",
                           "verify", "--suite", "addition")
    assert code == 0 and json.loads(out)["summary"]["verified"] == 4


@pytest.mark.parametrize("suite", ["addition", "linearity", "power", "reduced"])
def test_verify_rejects_n_for_a_suite_without_levels(capsys, suite):
    # --n is read by the ortho and distance suites (and so by all) only:
    # any other suite would silently ignore it.
    code, out, err = run_cli(capsys, "--q", "2", "verify", "--suite", suite,
                             "--n", "7")
    assert code == 2
    assert out == "" and err.startswith("error:") and "--n is not read" in err
    assert "ortho, distance and all" in err


@pytest.mark.parametrize("suite", ["ortho", "distance", "all"])
def test_verify_n_defaults_to_two(capsys, suite):
    argv = ("--q", "2", "verify", "--suite", suite)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--n", "2") == (0, out, "")


def test_verify_falsified_exit_one(monkeypatch, capsys):
    # A planted wrong expectation in the linearity corpus: the classification
    # itself verifies, and the suite reports the expected-versus-classified
    # mismatch as FALSIFIED; exit 1, with one falsified: line per report on
    # stderr.
    from carlitzbases import identities
    from carlitzbases.transforms import identity_func
    monkeypatch.setattr(identities, "_linearity_corpus", lambda cfg: [
        (identity_func(cfg), False), (identity_func(cfg), True)])
    code, out, err = run_cli(capsys, "--q", "3", "verify", "--suite", "linearity")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"] == {"verified": 1, "falsified": 1, "budget_exhausted": 0}
    bad, good = doc["reports"]
    assert (bad["identity"], bad["status"], good["status"]) == (
        "linearity", "falsified", "verified")
    assert bad["witness"] == {"function": "identity", "expected": False,
                              "classified": True}
    assert err.splitlines() == [
        "falsified: linearity {'basis': 'D', 'q': 3, 'trunc': 27, "
        "'function': 'identity'} witness={'function': 'identity', "
        "'expected': False, 'classified': True}"]


def test_verify_text_format_lists_reports(capsys):
    # --format text writes a list value as its key line and one indented
    # line per item.
    code, out, _ = run_cli(capsys, "--q", "2", "--format", "text", "verify",
                           "--suite", "power")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("reports:")
    items = lines[at + 1:at + 4]
    assert all(line.startswith("  {'schema': 'carlitzbases/v1'") for line in items)
    assert all("'identity': 'power_criterion'" in line for line in items)
    assert lines[at + 4].startswith("run_config: {")
    assert lines[-1] == "summary: {'verified': 3, 'falsified': 0, 'budget_exhausted': 0}"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "--q", "2", "verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err


# ---------------------------------------------------------------------------
# info, determinism, files
# ---------------------------------------------------------------------------

def test_info(capsys):
    code, out, _ = run_cli(capsys, "--q", "4", "info")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 4 and doc["p"] == 2 and doc["e"] == 2
    assert doc["modulus"] is not None


@pytest.mark.parametrize("q,p,e", [(32, 2, 5), (49, 7, 2)])
def test_info_without_shipped_modulus(capsys, q, p, e):
    # No modulus ships for these q: the first irreducible one is found.
    from carlitzbases.algebra import _is_irreducible
    code, out, err = run_cli(capsys, "--q", str(q), "info")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["q"], doc["p"], doc["e"]) == (q, p, e)
    assert len(doc["modulus"]) == e + 1 and doc["modulus"][-1] == 1
    assert _is_irreducible(tuple(doc["modulus"]), p)


def test_q_shorthand_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "--q", "6", "info")
    assert code == 2


def test_determinism_byte_identical(capsys):
    args = ("--q", "2", "--seed", "5", "verify", "--suite", "distance", "--n", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_built_once_and_reused(monkeypatch, capsys):
    # main builds its parser on first use only; a reused parser leaves no
    # state between calls, so each call (a bad one among them) prints what
    # it prints with a parser of its own.
    from carlitzbases import cli
    calls = [("--q", "3", "--seed", "4", "verify", "--suite", "power"),
             ("--q", "3", "verify", "--suite", "nope"),
             ("--q", "3", "verify", "--bogus"),
             ("--q", "2", "matrix", "--which", "voloch", "--size", "2",
              "--prec", "6"),
             ("--q", "2", "matrix", "--which", "inverse", "--size", "2"),
             ("--format", "text", "info")]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run_cli(capsys, *argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert built == [1]
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0, 0]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code, out, _ = run_cli(capsys, "--q", "2", "--out", str(target),
                           "matrix", "--which", "inverse", "--size", "3")
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "matrix-inverse"


def test_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "--q", "2", "--out", str(target), "info")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("spec,basis,message", [
    ("frobenius:-1", "D", "Frobenius power must be non-negative"),
    ("frobenius:-1", "E", "Frobenius power must be non-negative"),
    ("G:-1", "G", "digit index must be non-negative"),
    ("Dj:-2", "D", "digit index must be non-negative"),
])
def test_negative_index_exits_two(capsys, spec, basis, message):
    # Exit 2 (configuration error), not 1 (falsified), with one error line.
    code, out, err = run_cli(capsys, "--q", "2", "expand", "--f", spec,
                             "--basis", basis, "--terms", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_powered_D_past_the_degree_budget_exits_two(capsys):
    # q**m = 2**17 passes the degree budget: exit 2 with one error line.
    code, out, err = run_cli(capsys, "--q", "2", "expand", "--f", "D:1",
                             "--basis", "powered-D", "--m", "17", "--terms", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degree budget" in err


def test_unknown_basis_exits_two(capsys):
    code, out, err = run_cli(capsys, "--q", "2", "expand", "--f", "D:1",
                             "--basis", "H")
    assert code == 2 and out == ""
    assert err == ("error: unknown basis 'H'; choose from "
                   "['D', 'E', 'G', 'linear-D', 'powered-D']\n")


def test_out_of_memory_exits_two():
    # A Voloch matrix of size 20000 outgrows 1 GiB of address space within
    # seconds: exit 2 with one error line, not 1 (falsified) with a traceback.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "carlitzbases.cli", "--q", "2", "matrix",
         "--which", "voloch", "--size", "20000", "--prec", "4"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the run ran out of memory\n"


def test_derivative_past_the_degree_prints_zeros_at_once():
    # D_n of a polynomial of degree < n is zero without a binomial row:
    # order 10**8 prints its zero coefficients within the timeout, where an
    # n-byte row of the zeros C(i, n), i < n, ran past a minute.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "carlitzbases.cli", "--q", "2", "expand",
         "--f", "D:100000000", "--basis", "linear-D", "--terms", "2"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["entries"] == ["0", "0"]


def test_E_past_the_degree_budget_exits_two_at_once():
    # E_30000000 passes the degree budget by its index alone: exit 2 with one
    # error line well within the timeout, where forming q**n first took
    # 18.5 s.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "carlitzbases.cli", "--q", "3", "expand",
         "--f", "E:30000000", "--basis", "linear-D", "--terms", "2"],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "degree budget" in proc.stderr
