"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line. Tolerances and grids are pinned here and nowhere else.

Runtime-bounded checks time the computation itself (table construction is
shared session setup and excluded, as the bounds assume a warm table),
except criteria 11 and 12, which time whole CLI runs in fresh processes.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import pytest

import qcdensity as q
from qcdensity import CountMode, ResidueConstraint, SignConstraint
from qcdensity.verify import (
    check_orthogonality,
    check_quadratic,
    check_recursions,
    check_residues,
    check_sandwich,
)


def _report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_character_orthogonality():
    """Sum over characters of conj(chi(m))*chi(n) is phi(N)*[m=n mod N]."""
    t0 = time.monotonic()
    results = check_orthogonality(60)
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in results) and len(results) == 60 and elapsed < 10
    _report(1, ok, f"{len(results)} moduli, tolerance 1e-9, {elapsed:.2f}s (< 10s)")


def test_criterion_02_character_sum_collapse(table):
    """The character-sum route equals direct ordered-tuple counting."""
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    for modulus in (1, 3, 4, 5, 8, 12):
        units = [a for a in range(modulus) if math.gcd(a, modulus) == 1] or [0]
        for k in (1, 2, 3):
            for residues in itertools.combinations_with_replacement(units, k):
                constraint = ResidueConstraint(modulus, residues)
                for x in (100, 500, 2000):
                    via = q.ordered_tuple_count_via_characters(table, x, k, constraint)
                    direct = q.ordered_tuple_count(table, x, k, constraint)
                    worst = max(worst, abs(via - direct))
                    cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60
    _report(2, ok, f"{cases} cases, worst |diff| {worst:.2e} (<= 1e-6), {elapsed:.2f}s (< 60s)")


def test_criterion_03_exact_recursions(table):
    """Log, reciprocal, and error-term recursions close with residual < 1e-9."""
    t0 = time.monotonic()
    results = check_recursions(table, 10**4)
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in results) and elapsed < 60
    _report(3, ok, f"{len(results)} identity/N/k combinations, residual < 1e-9, "
                   f"{elapsed:.2f}s (< 60s)")


def test_criterion_04_ordered_count_sandwich(table):
    """k!*squarefree <= ordered <= k!*multiset, equality when residues distinct."""
    results = check_sandwich(table, 2000)
    ok = all(r.passed for r in results)
    _report(4, ok, f"{len(results)} (N,k) cells over x in {{100,500,2000}}, exact")


def test_criterion_05_quadratic_root_formula(table):
    """Root-count formula equals brute force on all admissible n <= 5000."""
    t0 = time.monotonic()
    results = check_quadratic(table, 5000)
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in results) and elapsed < 30
    _report(5, ok, f"6 discriminants, exact, {elapsed:.2f}s (< 30s)")


def test_criterion_06_residue_class_construction(table):
    """Direct and constructive class sets agree; membership decides the symbol."""
    results = check_residues(table)
    ok = all(r.passed for r in results) and len(results) == 13
    _report(6, ok, "13 discriminants, both signs, primes to 1e5, exact")


def test_criterion_07_sign_to_residue_reduction(table):
    """Odd-n sign counts equal sums over positional residue-class boxes."""
    x, k = 10**4, 2
    failures = []
    for d in (5, -3):
        period = q.kronecker_period(d)
        for epsilons in itertools.product((1, -1), repeat=k):
            classes = [q.residue_classes_direct(d, e).classes for e in epsilons]
            box_sum = sum(
                q.count_almost_primes_positional(table, x, k, combo, period)
                for combo in itertools.product(*classes)
            )
            direct = q.count_sign_constrained(
                table, x, k, SignConstraint(d, epsilons), odd_only=True
            )
            if direct != box_sum:
                failures.append((d, epsilons, direct, box_sum))
    _report(7, not failures, f"D in {{5,-3}}, x=1e4, k=2, exact; failures={failures}")


def test_criterion_08_four_root_semiprimes(table):
    """n with 4 roots of x^2 - 5 are exactly the (+,+) squarefree semiprimes."""
    x = 10**4
    form = q.QuadraticForm(0, -5)
    sign_set = set()
    brute_set = set()
    for n in range(2, x + 1):
        factors = q.factorize(table, n).factors
        if len(factors) != 2 or any(e > 1 for _, e in factors):
            continue
        signs = tuple(q.kronecker(20, p) for p, _ in factors)
        if signs == (1, 1):
            sign_set.add(n)
        if q.count_roots_bruteforce(form, n) == 4:
            brute_set.add(n)
    counted = q.count_sign_constrained(table, x, 2, SignConstraint(20, (1, 1)))
    ok = sign_set == brute_set and counted == len(sign_set)
    _report(8, ok, f"{len(brute_set)} semiprimes <= 1e4 with 4 roots, set-equal, "
                   f"count {counted}")


def test_criterion_09_density_convergence(big_table):
    """Sign densities near their limits at desk scale; exact class partition.

    The k=2 bracket lives on odd n (the residue-class universe): the prime 2
    always has symbol -1 for D=5 and would pin the first slot of every even
    semiprime, a bias that decays too slowly to clear 0.17 by x=1e7.
    """
    t0 = time.monotonic()
    rows = [
        q.empirical_sign_density(big_table, 10**6, 1, SignConstraint(5, (s,)))
        for s in (1, -1)
    ]
    k1_ok = all(abs(row.empirical_density - 0.5) <= 0.01 for row in rows)

    counts = {
        eps: q.count_sign_constrained(
            big_table, 10**7, 2, SignConstraint(5, eps), odd_only=True
        )
        for eps in itertools.product((1, -1), repeat=2)
    }
    everything = q.count_almost_primes(big_table, 10**7, 2, ResidueConstraint(1, (1, 1)))
    evens = q.prime_count(big_table, 5 * 10**6) - 1
    fives = q.prime_count(big_table, 2 * 10**6) - 1
    reference = everything - evens - fives + 1  # +1: n=10 subtracted twice
    partition_ok = sum(counts.values()) == reference
    densities = {eps: c / reference for eps, c in counts.items()}
    bracket_ok = all(0.17 <= dens <= 0.33 for dens in densities.values())
    elapsed = time.monotonic() - t0
    ok = k1_ok and partition_ok and bracket_ok and elapsed < 300
    _report(
        9,
        ok,
        f"k=1 empirical {rows[0].empirical_density:.4f}/{rows[1].empirical_density:.4f}"
        f" (|d-0.5| <= 0.01), k=2 densities "
        + "/".join(f"{densities[e]:.4f}" for e in sorted(densities, reverse=True))
        + f" in [0.17,0.33], partition {sum(counts.values())}=={reference}, "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_10_landau_trend(big_table):
    """2-almost-prime counts track x(loglog x)/log x; bracket asserted at 1e7."""
    unconstrained = ResidueConstraint(1, (1, 1))
    ratios = []
    for x in (10**5, 10**6, 10**7):
        count = q.count_almost_primes(
            big_table, x, 2, unconstrained, CountMode.WITH_MULTIPLICITY
        )
        ratios.append(count / q.landau_asymptotic(x, 2))
    trend = " -> ".join(f"{r:.4f}" for r in ratios)
    ok = 0.8 <= ratios[-1] <= 1.6
    _report(10, ok, f"ratio at 1e7 {ratios[-1]:.4f} in [0.8,1.6]; trend {trend} (reported)")


# squarefree semiprimes up to x: A066265(x) - pi(sqrt x)
_SQUAREFREE_SEMIPRIMES = {
    10**8: 17426029,
    10**9: 160785135,
    10**10: 1493766851,
}


def _run_measured(args, out_path):
    """Run the CLI in a fresh process: (exit code, stdout, wall s, peak RSS MiB)."""
    env = os.environ.copy()
    env.pop("QCD_SPF_CACHE", None)
    package_root = os.path.dirname(os.path.dirname(q.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    start = time.monotonic()
    with open(out_path, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcdensity", *args],
            stdout=out,
            stderr=subprocess.DEVNULL,
            env=env,
        )
    # reaped here for its rusage; Popen is told the exit code
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    with open(out_path) as fh:
        stdout = fh.read()
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_11_sign_densities_to_ten_to_the_ten(tmp_path, k):
    """Exact k = 2, 3 sign-density tables for D = 5 at x = 1e8, 1e9, 1e10,
    each in a fresh process under 60 s and 200 MiB peak RSS."""
    grid = sorted(_SQUAREFREE_SEMIPRIMES)
    code, stdout, wall, rss = _run_measured(
        ["table", "--x", ",".join(map(str, grid)), "--k", str(k), "--disc", "5"],
        tmp_path / "table.csv",
    )
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    sums_ok = len(rows) == len(grid) * (2**k + 1)
    references = {}
    for x in grid:
        block = [r for r in rows if r[0] == str(x)]
        signs = [int(r[4]) for r in block if r[3].startswith("eps=")]
        totals = [int(r[4]) for r in block if r[3] == "sum"]
        sums_ok = sums_ok and len(signs) == 2**k and totals == [sum(signs)]
        references[x] = int(block[-1][5]) if block else None
    reference_ok = k != 2 or references == _SQUAREFREE_SEMIPRIMES
    ok = code == 0 and sums_ok and reference_ok and wall < 60 and rss < 200
    _report(
        11,
        ok,
        f"k={k} exit {code}, sign rows add up {sums_ok}, references "
        + "/".join(str(references[x]) for x in grid)
        + f", {wall:.1f}s (< 60s), {rss:.0f} MiB (< 200 MiB)",
    )


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_12_cross_checks_to_ten_to_the_ten(table, tmp_path, k):
    """The k = 2, 3 sign-density tables of criterion 11 with --cross-check,
    in a fresh process under 60 s and 200 MiB peak RSS: at every x, the
    residue-class box rows under each sign row add up to the odd-n sign
    count, computed here on the sign oracle."""
    grid = sorted(_SQUAREFREE_SEMIPRIMES)
    code, stdout, wall, rss = _run_measured(
        ["table", "--x", ",".join(map(str, grid)), "--k", str(k), "--disc", "5"]
        + ["--cross-check"],
        tmp_path / "table.csv",
    )
    # each sign row, then its box rows, one per class tuple of B(eps) mod 20
    boxes: dict = {}
    for line in stdout.splitlines()[1:]:
        x, _, _, label, count = line.split(",")[:5]
        if label.startswith("eps="):
            key = (int(x), label)
            boxes[key] = []
        elif label.startswith("m="):
            boxes[key].append(int(count))
    checked, sums_ok = 0, len(boxes) == len(grid) * 2**k
    for (x, label), counts in sorted(boxes.items()):
        eps = tuple(1 if s == "+" else -1 for s in label[len("eps="):])
        constraint = SignConstraint(5, eps)
        odd = q.count_sign_constrained(table, x, k, constraint, odd_only=True)
        sums_ok = sums_ok and len(counts) == 4**k and sum(counts) == odd
        checked += 1
    ok = code == 0 and sums_ok and wall < 60 and rss < 200
    _report(
        12,
        ok,
        f"k={k} exit {code}, box rows add up to the odd-n sign count at"
        f" {checked} sign rows {sums_ok}, {wall:.1f}s (< 60s),"
        f" {rss:.0f} MiB (< 200 MiB)",
    )
