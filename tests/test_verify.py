"""Self-check suites behind the verify subcommand."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcdensity as q
from qcdensity import cli, quadratic, verify
from qcdensity.residues import ResidueClassSet
from qcdensity.verify import (
    RESIDUE_DISCRIMINANTS,
    SUITES,
    _coprime_almost_counts,
    _legendre_symbols,
    _prime_factor_counts,
    check_recursions,
    format_report,
)

PINS = Path(__file__).resolve().parent.parent / "qcbench" / "pins.json"


def test_suite_names():
    assert SUITES == ("orthogonality", "recursions", "residues", "quadratic", "sandwich")


def test_all_suites_pass(table):
    results = q.run_suite(table, "all", 500)
    assert len(results) == 109
    assert all(r.passed for r in results)
    # "all" preserves the declared suite order
    seen = [r.suite for r in results]
    assert seen == sorted(seen, key=SUITES.index)


@pytest.mark.parametrize("suite,count", [
    ("orthogonality", 60),
    ("recursions", 12),
    ("residues", 13),
    ("quadratic", 6),
    ("sandwich", 18),
])
def test_each_suite_result_count(table, suite, count):
    results = q.run_suite(table, suite, 500)
    assert len(results) == count
    assert all(r.passed for r in results)
    assert all(r.suite == suite for r in results)


def test_unknown_suite_rejected(table):
    with pytest.raises(ValueError):
        q.run_suite(table, "nope", 500)


def test_report_formatting(table):
    results = q.run_suite(table, "residues", 500)
    report = q.format_report(results)
    lines = report.splitlines()
    assert lines[0].startswith("PASS [residues] D=2:")
    assert lines[-1] == "13/13 checks passed"
    assert report.endswith("\n")


def test_check_results_are_immutable(table):
    result = q.run_suite(table, "residues", 500)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.passed = False


RECURSIONS_REPORT = """\
PASS [recursions] log_sum N=4 k=1: max residual 5.85e-15 over 9 cases
PASS [recursions] log_sum N=4 k=2: max residual 3.02e-15 over 12 cases
PASS [recursions] reciprocal_sum N=4 k=1: max residual 2.30e-15 over 6 cases
PASS [recursions] reciprocal_sum N=4 k=2: max residual 8.88e-16 over 9 cases
PASS [recursions] error_term N=4 k=1: max residual 3.31e-15 over 9 cases
PASS [recursions] error_term N=4 k=2: max residual 1.63e-15 over 12 cases
PASS [recursions] log_sum N=5 k=1: max residual 9.68e-15 over 30 cases
PASS [recursions] log_sum N=5 k=2: max residual 6.51e-15 over 60 cases
PASS [recursions] reciprocal_sum N=5 k=1: max residual 1.11e-15 over 12 cases
PASS [recursions] reciprocal_sum N=5 k=2: max residual 6.11e-16 over 30 cases
PASS [recursions] error_term N=5 k=1: max residual 5.67e-15 over 30 cases
PASS [recursions] error_term N=5 k=2: max residual 1.40e-14 over 60 cases
12/12 checks passed
"""


def test_recursion_residuals_print_as_pinned(table):
    """The printed residuals are float noise, so any reordering of the sums
    behind them shows here first."""
    assert format_report(check_recursions(table, 10**4)) == RECURSIONS_REPORT


def test_verify_all_report_prints_as_pinned(monkeypatch, capsys):
    """The whole verify-all report, orthogonality errors and recursion
    residuals included, hashes to the benchmark's pin: a float sum taken in
    another order fails here on every Python, not only in the benchmark."""
    pins = set(json.loads(PINS.read_text())["verify-all"].values())
    assert len(pins) == 1  # the report does not depend on the benchmark's D
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    assert cli.main(["verify", "--suite", "all", "--x", "10000"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pins.pop()


def test_quadratic_reports_each_forms_first_counterexample(table, monkeypatch):
    """A form whose formula goes wrong fails at its first bad modulus; the
    other forms still compare every modulus."""
    expected = [r.detail for r in verify.check_quadratic(table, 500)]
    formula = verify.count_roots_formula

    def wrong_for_d5(form, fi):
        return formula(form, fi) + (form.discriminant == 5 and fi.n >= 101)

    monkeypatch.setattr(verify, "count_roots_formula", wrong_for_d5)
    results = verify.check_quadratic(table, 500)
    assert [r.name for r in results if not r.passed] == ["D=5"]
    assert results[0].detail.startswith("count mismatch at n=101: ")
    assert [r.detail for r in results[1:]] == expected[1:]


def test_quadratic_reports_a_wrong_scan_at_its_first_modulus(table, monkeypatch):
    """A scan off by one at n = 15 fails exactly the forms whose moduli
    include 15 (D = 13 and D = -7), each at n = 15."""
    expected = [r.detail for r in verify.check_quadratic(table, 500)]
    root_counts = verify._root_counts

    def off_at_15(form, moduli):
        counts = root_counts(form, moduli)
        return [c + (n == 15) for n, c in zip(moduli, counts)]

    monkeypatch.setattr(verify, "_root_counts", off_at_15)
    results = verify.check_quadratic(table, 500)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["D=13", "D=-7"]
    n15 = q.factorize(table, 15)
    for form, result, want in zip(verify.QUADRATIC_FORMS, results, expected):
        if result.passed:
            assert result.detail == want
        else:
            formula = q.count_roots_formula(form, n15)
            assert result.detail == f"count mismatch at n=15: {formula} != {formula + 1}"


def test_quadratic_takes_each_symbol_once(table, monkeypatch):
    """The formula and the full-root flag of every modulus read one cached
    (D/p) per form and prime: one kronecker call per (D, p), not one per
    (form, modulus, prime)."""
    calls = []

    def counted(d, p):
        calls.append((d, p))
        return q.kronecker(d, p)

    monkeypatch.setattr(quadratic, "kronecker", counted)
    quadratic._symbol.cache_clear()
    results = verify.check_quadratic(table)
    quadratic._symbol.cache_clear()
    assert all(r.passed for r in results)
    assert len(calls) == len(set(calls))
    assert len(calls) <= len(verify.QUADRATIC_FORMS) * q.prime_count(table, 5000)
    assert {d for d, _ in calls} == {f.discriminant for f in verify.QUADRATIC_FORMS}


def test_sandwich_reference_counts_match_factorize(small_table):
    """The numpy reference counts of the sandwich suite against factorize,
    one n at a time."""
    counts = _prime_factor_counts(small_table, 2000)
    factors = [q.factorize(small_table, n).factors for n in range(1, 2001)]
    assert [(counts[0][n], counts[1][n]) for n in range(2001)] == [(0, 0)] + [
        (len(f), sum(e for _, e in f)) for f in factors
    ]
    for modulus in (1, 3, 4, 5, 8, 12):
        for x in (100, 500, 2000):
            squarefree, multiplicity = [0] * 4, [0] * 4
            for n, f in enumerate(factors[1:x], start=2):
                big = sum(e for _, e in f)
                if math.gcd(n, modulus) == 1 and big <= 3:
                    multiplicity[big] += 1
                    squarefree[big] += big == len(f)
            want = (squarefree, multiplicity)
            assert _coprime_almost_counts(counts, x, modulus, 3) == want


@pytest.mark.parametrize("d", RESIDUE_DISCRIMINANTS)
def test_euler_criterion_matches_kronecker(small_table, d):
    primes = np.array([p for p in small_table.primes_list if p != 2], dtype=np.int64)
    symbols = _legendre_symbols(d, primes)
    assert symbols.tolist() == [q.kronecker(d, p) for p in primes.tolist()]


def test_residues_catch_swapped_unit_classes(table, monkeypatch):
    """One class moved from B(+) to B(-) and one back keeps sizes, overlap
    and coverage right and both constructions agreeing; only periodicity,
    checked against Euler's criterion, can see it, at the smallest prime in
    either swapped class."""
    d = 13
    plus = q.residue_classes_direct(d, 1)
    minus = q.residue_classes_direct(d, -1)
    a, b = plus.classes[-1], minus.classes[-1]
    swapped = {
        1: tuple(sorted(set(plus.classes) - {a} | {b})),
        -1: tuple(sorted(set(minus.classes) - {b} | {a})),
    }

    def swapping(construct):
        def patched(disc, eps):
            classes = construct(disc, eps)
            if disc != d:
                return classes
            return ResidueClassSet(disc, classes.modulus, eps, swapped[eps])

        return patched

    for name in ("residue_classes_direct", "residue_classes_constructive"):
        monkeypatch.setattr(verify, name, swapping(getattr(verify, name)))
    expected = next(p for p in table.primes_list if p % plus.modulus in (a, b))
    results = verify.check_residues(table)
    assert [r.name for r in results if not r.passed] == [f"D={d}"]
    failed = next(r for r in results if not r.passed)
    assert failed.detail == f"periodicity fails at p={expected}"
