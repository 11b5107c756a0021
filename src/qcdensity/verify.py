"""Self-check suites behind the CLI verify subcommand.

Each suite re-derives a family of identities by two independent routes and
compares exactly (or within the stated float tolerance). One CheckResult is
emitted per family; when a family fails, the detail line carries the first
counterexample found.

Where the symbols come from: the residues suite reads (D/p) from Euler's
criterion, d^((p-1)/2) mod p, computed for every prime at once in numpy, so
the symbol it checks the class sets against shares no code with kronecker.
The quadratic suite's formula reads (D/p) from kronecker, once per (D, p),
through quadratic._symbol's bounded cache; its scan counts each form's
roots with one evaluation of f(x) for all of its moduli
(quadratic._root_counts) and one floor division per modulus, and the two
are compared modulus by modulus.

The orthogonality errors and the recursion residuals printed here are
rounding noise, pinned byte for byte (qcbench/pins.json and the tests), so
each float is summed from the same operands in the same order as the plain
definition: one np.vdot per unit pair, not a Gram matrix, whose matmul sums
in another order; and, in almostprime.recursion_residual, a left-to-right
np.add.accumulate, not builtin sum, which is compensated from Python 3.12
on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .almostprime import (
    CountMode,
    ResidueConstraint,
    count_almost_primes,
    ordered_tuple_count,
    recursion_residual,
)
from .characters import build_character_group, orthogonality_sum
from .quadratic import (
    QuadraticForm,
    _root_counts,
    count_roots_formula,
    has_max_root_count,
)
from .residues import class_count, residue_classes_constructive, residue_classes_direct
from .sieve import SpfTable, factorize, prime_count

ORTHOGONALITY_TOLERANCE = 1e-9
RESIDUAL_TOLERANCE = 1e-9

SUITES = ("orthogonality", "recursions", "residues", "quadratic", "sandwich")

RESIDUE_DISCRIMINANTS = (2, -2, 3, -3, 5, -5, 6, -7, 10, 13, 15, -20, 21)
# the residues suite checks the symbol at every prime up to this, where the
# table reaches
RESIDUE_PRIME_LIMIT = 10**5

# one form per discriminant in the oracle set {5, -3, 13, -20, 21, -7}
QUADRATIC_FORMS = (
    QuadraticForm(1, -1),
    QuadraticForm(1, 1),
    QuadraticForm(1, -3),
    QuadraticForm(0, 5),
    QuadraticForm(1, -5),
    QuadraticForm(1, 2),
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _units(modulus: int) -> list[int]:
    if modulus == 1:
        return [0]
    return [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]


def check_orthogonality(max_modulus: int = 60) -> list[CheckResult]:
    """Sum over characters of conj(chi(m)) chi(n) against phi(N) [m == n],
    for every modulus up to max_modulus and every unit pair.

    Each pair's sum is one np.vdot of two columns of the unit-value matrix,
    as orthogonality_sum takes it, never a Gram matrix (see above); a
    non-unit second argument goes through orthogonality_sum itself."""
    results = []
    for n_mod in range(1, max_modulus + 1):
        group = build_character_group(n_mod)
        phi = group.group_order
        matrix, units = group.unit_value_matrix()
        columns = list(matrix.T)
        worst = 0.0
        bad = None
        for i, (m, col_m) in enumerate(zip(units, columns)):
            sums = [complex(np.vdot(col_m, col_n)) for col_n in columns]
            sums[i] -= phi
            errors = [abs(s) for s in sums]
            # the first pair of the row at its largest error, as a scan
            # that keeps only strictly larger errors would report
            err = max(errors)
            if err > worst:
                worst, bad = err, (m, units[errors.index(err)])
            if n_mod > 1:
                # non-unit second argument must give exactly 0
                err = abs(orthogonality_sum(group, m, 0))
                if err > worst:
                    worst, bad = err, (m, 0)
        passed = worst < ORTHOGONALITY_TOLERANCE
        detail = f"phi={phi} max error {worst:.2e}"
        if not passed:
            detail += f" at pair {bad}"
        results.append(CheckResult("orthogonality", f"N={n_mod}", passed, detail))
    return results


def check_recursions(table: SpfTable, x_max: int = 10**4) -> list[CheckResult]:
    """Both sides of the three tuple-sum recursions evaluated independently;
    the identities are exact, so residuals must sit at float-noise level."""
    xs = [x for x in (100, 1000, 10**4) if x <= x_max]
    if not xs:
        raise ValueError("x_max must be at least 100 for the recursion grid")
    results = []
    for n_mod in (4, 5):
        units = _units(n_mod)
        for identity in ("log_sum", "reciprocal_sum", "error_term"):
            for k in (1, 2):
                size = k if identity == "reciprocal_sum" else k + 1
                worst = 0.0
                bad = None
                tuples = 0
                for ms in itertools.combinations_with_replacement(units, size):
                    constraint = ResidueConstraint(n_mod, ms)
                    for x in xs:
                        r = recursion_residual(table, identity, x, k, constraint)
                        tuples += 1
                        if r > worst:
                            worst, bad = r, (x, ms)
                passed = worst < RESIDUAL_TOLERANCE
                detail = f"max residual {worst:.2e} over {tuples} cases"
                if not passed:
                    detail += f" at x={bad[0]} m={bad[1]}"
                results.append(
                    CheckResult(
                        "recursions",
                        f"{identity} N={n_mod} k={k}",
                        passed,
                        detail,
                    )
                )
    return results


def _legendre_symbols(d: int, primes: np.ndarray) -> np.ndarray:
    """(d/p) at each odd prime p of the int64 array, by Euler's criterion:
    d^((p-1)/2) mod p, by square-and-multiply over the whole array at once,
    read as +1, -1 (that is, p - 1), or 0 where p divides d. Products stay
    below p^2, which fits int64 for every p < 2^31."""
    base = d % primes
    power = np.ones_like(primes)
    exponent = (primes - 1) // 2
    while exponent.any():
        power = np.where(exponent & 1, power * base % primes, power)
        base = base * base % primes
        exponent >>= 1
    return np.where(power == 1, 1, np.where(power == primes - 1, -1, 0))


def check_residues(table: SpfTable) -> list[CheckResult]:
    """Direct and constructive class sets must agree exactly, have size
    phi(Q)/2 each, partition the units mod Q, and predict (D/p) for every
    prime p up to RESIDUE_PRIME_LIMIT not dividing 2D. The symbol there
    comes from Euler's criterion, which shares no code with the
    kronecker-based class sets."""
    results = []
    p_max = min(RESIDUE_PRIME_LIMIT, table.limit)
    upto = prime_count(table, p_max)
    table_primes = table.primes[:upto].astype(np.int64)
    for d in RESIDUE_DISCRIMINANTS:
        problems = []
        plus = residue_classes_direct(d, 1)
        minus = residue_classes_direct(d, -1)
        if plus.classes != residue_classes_constructive(d, 1).classes:
            problems.append("constructive mismatch at eps=+1")
        if minus.classes != residue_classes_constructive(d, -1).classes:
            problems.append("constructive mismatch at eps=-1")
        expected = class_count(d)
        if len(plus.classes) != expected or len(minus.classes) != expected:
            problems.append(
                f"sizes {len(plus.classes)}/{len(minus.classes)} != {expected}"
            )
        q = plus.modulus
        plus_set, minus_set = set(plus.classes), set(minus.classes)
        if plus_set & minus_set:
            problems.append("sign sets overlap")
        if plus_set | minus_set != set(_units(q)):
            problems.append("sign sets do not cover the units")
        primes = table_primes[(table_primes != 2) & (d % table_primes != 0)]
        symbols = _legendre_symbols(d, primes)
        members = primes % q
        predicted = np.where(
            symbols == 1,
            np.isin(members, plus.classes),
            np.isin(members, minus.classes) & (symbols == -1),
        )
        wrong = np.flatnonzero(~predicted)
        if wrong.size:
            problems.append(f"periodicity fails at p={int(primes[wrong[0]])}")
        passed = not problems
        detail = (
            f"Q={q} size={expected}, {primes.size} primes checked"
            if passed
            else "; ".join(problems)
        )
        results.append(CheckResult("residues", f"D={d}", passed, detail))
    return results


def check_quadratic(table: SpfTable, n_max: int = 5000) -> list[CheckResult]:
    """Discriminant formula against the full scan on every odd squarefree
    modulus coprime to the discriminant, plus the full-root-count flag.
    Each form's scan evaluates f(x) once, for all of its moduli; the
    formula and the flag of every modulus read one cached (D/p) per
    prime."""
    n_max = min(n_max, table.limit)
    # each odd squarefree modulus is factored once, for every form
    squarefree = [
        fi for fi in (factorize(table, n) for n in range(1, n_max + 1, 2))
        if fi.is_squarefree()
    ]
    results = []
    for form in QUADRATIC_FORMS:
        d = form.discriminant
        moduli = [fi for fi in squarefree if math.gcd(d, fi.n) == 1]
        counts = _root_counts(form, [fi.n for fi in moduli])
        problem = None
        for fi, brute in zip(moduli, counts):
            formula = count_roots_formula(form, fi)
            if formula != brute:
                problem = f"count mismatch at n={fi.n}: {formula} != {brute}"
                break
            if has_max_root_count(form, fi) != (brute == 2 ** len(fi.factors)):
                problem = f"full-root flag wrong at n={fi.n}"
                break
        detail = problem or f"{len(moduli)} moduli <= {n_max} compared"
        results.append(CheckResult("quadratic", f"D={d}", not problem, detail))
    return results


def _prime_factor_counts(
    table: SpfTable, x_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct and the with-multiplicity prime factor counts of every
    n <= x_max, indexed by n, by direct factorization: the smallest prime
    factor of the table is divided out of every n at once until 1 is left;
    the primes come out in ascending order, so a new prime differs from the
    one before."""
    rest = np.arange(x_max + 1)
    rest[:2] = 1
    omega = np.zeros(x_max + 1, dtype=np.int64)
    big_omega = np.zeros(x_max + 1, dtype=np.int64)
    previous = np.zeros(x_max + 1, dtype=np.int64)
    while (left := np.flatnonzero(rest > 1)).size:
        p = table.spf[rest[left]].astype(np.int64)
        big_omega[left] += 1
        omega[left] += p != previous[left]
        previous[left] = p
        rest[left] //= p
    return omega, big_omega


def _coprime_almost_counts(
    factor_counts: tuple[np.ndarray, np.ndarray], x: int, modulus: int, k_max: int
) -> tuple[list[int], list[int]]:
    """(squarefree, with-multiplicity) k-almost-prime counts over n <= x
    coprime to the modulus, from _prime_factor_counts."""
    omega, big_omega = (counts[: x + 1] for counts in factor_counts)
    n = np.arange(x + 1)
    counted = (n >= 2) & (np.gcd(n, modulus) == 1) & (big_omega <= k_max)
    multiplicity = np.bincount(big_omega[counted], minlength=k_max + 1)
    squarefree = np.bincount(
        big_omega[counted & (big_omega == omega)], minlength=k_max + 1
    )
    return squarefree.tolist(), multiplicity.tolist()


def check_sandwich(table: SpfTable, x_max: int = 2000) -> list[CheckResult]:
    """For every constraint multiset: k! (squarefree count) <= ordered count
    <= k! (with-multiplicity count), with equality throughout when the
    residues are pairwise distinct; and the multiset counts partition the
    k-almost-primes coprime to N."""
    xs = [x for x in (100, 500, 2000) if x <= x_max]
    if not xs:
        raise ValueError("x_max must be at least 100 for the sandwich grid")
    results = []
    factor_counts = _prime_factor_counts(table, max(xs))
    for n_mod in (1, 3, 4, 5, 8, 12):
        units = _units(n_mod)
        reference = {x: _coprime_almost_counts(factor_counts, x, n_mod, 3) for x in xs}
        for k in (1, 2, 3):
            kf = math.factorial(k)
            problems = []
            cases = 0
            for x in xs:
                total_sf = 0
                total_wm = 0
                for ms in itertools.combinations_with_replacement(units, k):
                    constraint = ResidueConstraint(n_mod, ms)
                    sf = count_almost_primes(
                        table, x, k, constraint, CountMode.SQUAREFREE
                    )
                    wm = count_almost_primes(
                        table, x, k, constraint, CountMode.WITH_MULTIPLICITY
                    )
                    ordered = ordered_tuple_count(table, x, k, constraint)
                    cases += 1
                    total_sf += sf
                    total_wm += wm
                    if not kf * sf <= ordered <= kf * wm:
                        problems.append(f"sandwich fails at x={x} m={ms}")
                        break
                    if len(set(ms)) == k and not kf * sf == ordered == kf * wm:
                        problems.append(f"distinct-case equality fails at x={x} m={ms}")
                        break
                else:
                    sf_ref, wm_ref = reference[x]
                    if total_sf != sf_ref[k] or total_wm != wm_ref[k]:
                        problems.append(
                            f"partition fails at x={x}: "
                            f"{total_sf}/{sf_ref[k]} sf, {total_wm}/{wm_ref[k]} wm"
                        )
                if problems:
                    break
            passed = not problems
            detail = (
                f"{cases} multiset cases over x in {xs}"
                if passed
                else "; ".join(problems)
            )
            results.append(CheckResult("sandwich", f"N={n_mod} k={k}", passed, detail))
    return results


def run_suite(table: SpfTable, suite: str, x_max: int = 2000) -> list[CheckResult]:
    """Run one named suite (or all of them) against the given table."""
    if suite == "all":
        results = []
        for name in SUITES:
            results.extend(run_suite(table, name, x_max))
        return results
    if suite == "orthogonality":
        return check_orthogonality()
    if suite == "recursions":
        return check_recursions(table, x_max)
    if suite == "residues":
        return check_residues(table)
    if suite == "quadratic":
        return check_quadratic(table)
    if suite == "sandwich":
        return check_sandwich(table, x_max)
    raise ValueError(f"unknown suite {suite!r}")


def format_report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} [{r.suite}] {r.name}: {r.detail}"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
