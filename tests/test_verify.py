"""Self-check suites behind the verify subcommand."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcdensity as q
from qcdensity import characters, cli, quadratic, verify
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
    expected = [r.detail for r in verify.check_quadratic(table)]
    formula_counts = verify._formula_counts

    def wrong_for_d5(d, primes):
        # each row of primes is one squarefree modulus, padded with 1
        moduli = primes.prod(axis=-1)
        return formula_counts(d, primes) + ((d == 5) & (moduli >= 101))

    monkeypatch.setattr(verify, "_formula_counts", wrong_for_d5)
    results = verify.check_quadratic(table)
    assert [r.name for r in results if not r.passed] == ["D=5"]
    assert results[0].detail.startswith("count mismatch at n=101: ")
    assert [r.detail for r in results[1:]] == expected[1:]


def test_quadratic_reports_a_wrong_scan_at_its_first_modulus(table, monkeypatch):
    """A scan off by one at n = 15 fails exactly the forms whose moduli
    include 15 (D = 13 and D = -7), each at n = 15."""
    expected = [r.detail for r in verify.check_quadratic(table)]
    root_count_grid = verify._root_count_grid

    def off_at_15(forms, moduli):
        counts = root_count_grid(forms, moduli)
        return counts + (np.array(moduli) == 15)[:, None]

    monkeypatch.setattr(verify, "_root_count_grid", off_at_15)
    results = verify.check_quadratic(table)
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
    """The formula of every modulus reads (D/p) once per form and prime: one
    kronecker call per (D, p), not one per (form, modulus, prime)."""
    calls = []

    def counted(d, p):
        calls.append((d, p))
        return q.kronecker(d, p)

    monkeypatch.setattr(quadratic, "kronecker", counted)
    results = verify.check_quadratic(table)
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
def test_euler_criterion_matches_kronecker(table, d):
    """The residues suite's symbols, by Gauss's lemma, against kronecker at
    every odd prime of the table the suite reads, 0 where p divides d."""
    primes = np.array([p for p in table.primes_list if p != 2], dtype=np.int64)
    symbols = _legendre_symbols(d, primes)
    assert symbols.tolist() == [q.kronecker(d, p) for p in primes.tolist()]


@pytest.mark.parametrize("form", verify.QUADRATIC_FORMS)
def test_formula_kernel_matches_a_product_of_symbols(small_table, form):
    """The formula kernel over every odd squarefree n <= 5000 coprime to D,
    in one call, against prod(1 + (D/p)) taken in Python, n by n."""
    d = form.discriminant
    factored = [q.factorize(small_table, n) for n in range(1, 5001, 2)]
    kept = [
        [p for p, _ in fi.factors] for fi in factored
        if fi.is_squarefree() and math.gcd(fi.n, d) == 1
    ]
    want = [math.prod(1 + q.kronecker(d, p) for p in primes) for primes in kept]
    width = max(map(len, kept))
    padded = np.array([primes + [1] * (width - len(primes)) for primes in kept])
    assert quadratic._formula_counts(d, padded).tolist() == want


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


def _cli_failures(monkeypatch, capsys, suite):
    """{check name: detail} of the FAIL lines that `verify --suite suite
    --x 10000` prints, which must exit 1."""
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    assert cli.main(["verify", "--suite", suite, "--x", "10000"]) == 1
    prefix = f"FAIL [{suite}] "
    failed = [
        line[len(prefix):].split(": ", 1)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    ]
    return dict(failed)


def test_orthogonality_reports_a_wrong_non_unit_sum(monkeypatch, capsys):
    orthogonality_sum = verify.orthogonality_sum

    def wrong_mod_12(group, m, n):
        return 1.0 if group.modulus == 12 else orthogonality_sum(group, m, n)

    monkeypatch.setattr(verify, "orthogonality_sum", wrong_mod_12)
    failed = _cli_failures(monkeypatch, capsys, "orthogonality")
    # the first unit of the modulus takes the error; later equal ones keep it
    assert failed == {"N=12": "phi=4 max error 1.00e+00 at pair (1, 0)"}


def test_unit_pair_sums_are_symmetric_in_absolute_value():
    """The orthogonality suite takes each unit pair's sum once, m <= n: it
    rests on |vdot(b, a)| == |vdot(a, b)| bit for bit, for every unit pair
    of every modulus it checks."""
    for n_mod in range(1, 61):
        matrix, units = q.build_character_group(n_mod).unit_value_matrix()
        for i in range(len(units)):
            for j in range(i):
                a, b = matrix[:, i], matrix[:, j]
                assert abs(np.vdot(a, b)) == abs(np.vdot(b, a)), (n_mod, i, j)


def _full_scan_detail(matrix, units):
    """The orthogonality detail of a scan of every ordered unit pair that
    keeps only strictly larger errors."""
    phi = len(units)
    worst, bad = 0.0, None
    for i in range(phi):
        for j in range(phi):
            err = abs(complex(np.vdot(matrix[:, i], matrix[:, j])) - phi * (i == j))
            if err > worst:
                worst, bad = err, (units[i], units[j])
    return f"phi={phi} max error {worst:.2e} at pair {bad}"


def test_orthogonality_names_a_faulty_pair_as_the_full_scan_would(monkeypatch, capsys):
    """Unit 7's column mod 20 takes half of unit 3's: the pair fails in both
    orders, and the upper-triangle scan names the pair the full scan of
    every ordered pair names first."""
    unit_value_matrix = characters.CharacterGroup.unit_value_matrix

    def mixed_mod_20(group):
        matrix, units = unit_value_matrix(group)
        if group.modulus == 20:
            i, j = units.index(7), units.index(3)
            assert i > j
            matrix[:, i] += 0.5 * matrix[:, j]
        return matrix, units

    monkeypatch.setattr(characters.CharacterGroup, "unit_value_matrix", mixed_mod_20)
    want = _full_scan_detail(*q.build_character_group(20).unit_value_matrix())
    assert want == "phi=8 max error 4.00e+00 at pair (3, 7)"
    failed = _cli_failures(monkeypatch, capsys, "orthogonality")
    assert failed == {"N=20": want}


def test_recursions_report_the_case_of_the_largest_residual(monkeypatch, capsys):
    recursion_residuals = verify._recursion_residuals
    bad = ("log_sum", 1000, 1, q.ResidueConstraint(4, (1, 3)))

    def one_bad_case(table, identity, x, k, modulus, multisets):
        residuals = recursion_residuals(table, identity, x, k, modulus, multisets)
        for i, ms in enumerate(multisets):
            if (identity, x, k, q.ResidueConstraint(modulus, ms)) == bad:
                residuals[i] = 1.0
        return residuals

    monkeypatch.setattr(verify, "_recursion_residuals", one_bad_case)
    failed = _cli_failures(monkeypatch, capsys, "recursions")
    assert failed == {
        "log_sum N=4 k=1": "max residual 1.00e+00 over 9 cases at x=1000 m=(1, 3)"
    }


def test_residues_report_a_wrong_constructive_set(monkeypatch, capsys):
    constructive = verify.residue_classes_constructive

    def swapped_for_d5(disc, eps):
        return constructive(disc, -eps if disc == 5 else eps)

    monkeypatch.setattr(verify, "residue_classes_constructive", swapped_for_d5)
    failed = _cli_failures(monkeypatch, capsys, "residues")
    assert failed == {
        "D=5": "constructive mismatch at eps=+1; constructive mismatch at eps=-1"
    }


def test_residues_report_every_problem_of_a_wrong_direct_set(monkeypatch, capsys):
    """B(+) mod 20 of D = 5 gains 3 and B(-) loses 17: the sets differ from
    the constructive ones, have the wrong sizes, overlap at 3, miss 17, and
    the prime 17, where (5/17) = -1, is in neither."""
    direct = verify.residue_classes_direct

    def wrong_for_d5(disc, eps):
        classes = direct(disc, eps)
        if disc != 5:
            return classes
        changed = set(classes.classes) ^ ({3} if eps == 1 else {17})
        return ResidueClassSet(disc, classes.modulus, eps, tuple(sorted(changed)))

    monkeypatch.setattr(verify, "residue_classes_direct", wrong_for_d5)
    failed = _cli_failures(monkeypatch, capsys, "residues")
    assert failed == {
        "D=5": "constructive mismatch at eps=+1; constructive mismatch at eps=-1;"
        " sizes 5/3 != 4; sign sets overlap; sign sets do not cover the units;"
        " periodicity fails at p=17"
    }


def test_sandwich_reports_an_ordered_count_past_its_bound(monkeypatch, capsys):
    ordered_tuple_count = verify.ordered_tuple_count

    def shifted_mod_5(table, x, k, constraint):
        shift = constraint.modulus == 5 and k == 1
        return ordered_tuple_count(table, x, k, constraint) + shift

    monkeypatch.setattr(verify, "ordered_tuple_count", shifted_mod_5)
    failed = _cli_failures(monkeypatch, capsys, "sandwich")
    assert failed == {"N=5 k=1": "sandwich fails at x=100 m=(1,)"}


def test_sandwich_reports_a_wrong_multiplicity_count(table, monkeypatch, capsys):
    """One more k = 2 count with multiplicity keeps every sandwich: mod 8 the
    first distinct pair (1, 3) loses its equality, and mod 1, with no
    distinct pair, the counts no longer partition the reference."""
    count_almost_primes = verify.count_almost_primes

    def shifted(table, x, k, constraint, mode):
        shift = mode is q.CountMode.WITH_MULTIPLICITY and k == 2
        shift &= constraint.modulus in (1, 8)
        return count_almost_primes(table, x, k, constraint, mode) + shift

    monkeypatch.setattr(verify, "count_almost_primes", shifted)
    failed = _cli_failures(monkeypatch, capsys, "sandwich")
    assert list(failed) == ["N=1 k=2", "N=8 k=2"]
    reference = _coprime_almost_counts(_prime_factor_counts(table, 100), 100, 1, 3)
    sf, wm = (counts[2] for counts in reference)
    assert failed["N=1 k=2"] == f"partition fails at x=100: {sf}/{sf} sf, {wm + 1}/{wm} wm"
    assert failed["N=8 k=2"] == "distinct-case equality fails at x=100 m=(1, 3)"
