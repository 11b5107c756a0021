"""Self-check suites behind the CLI verify subcommand.

Each suite re-derives a family of identities by two independent routes and
compares exactly (or within the stated float tolerance). One CheckResult is
emitted per family; when a family fails, the detail line carries the first
counterexample found.

Where the symbols come from: the residues suite reads (D/p) from Gauss's
lemma, a count of floor quotients by |D| taken for every prime at once in
numpy, so the symbol it checks the class sets against shares no code with
kronecker. The quadratic suite factors every odd modulus once, in one pass
of division by the table's smallest prime factors (_factor_rounds, which
the sandwich suite's reference counts share), and takes the squarefree and
coprime masks and the formula counts of all of a form's moduli as arrays:
the formula is one quadratic._formula_counts call, which calls kronecker
once per (D, p); the scan is one quadratic._root_count_grid call for all
six forms and every odd squarefree modulus, which evaluates f(x) once,
x-major, and divides each modulus's prefix by it once. Each form reports
its first modulus where the two counts disagree. The full 2^k root count
is the formula's count when every (D/p) is +1, so it needs no check of its
own.

The orthogonality errors and the recursion residuals printed here are
rounding noise, pinned byte for byte (qcbench/pins.json and the tests), so
each float is summed from the same operands in the same order as the plain
definition: one np.vdot per unit pair m <= n, not a Gram matrix, whose
matmul sums in another order (|vdot(b, a)| is |vdot(a, b)| bit for bit, so
the pair n < m would add nothing); and, in
almostprime._recursion_residuals, a left-to-right np.add.accumulate along
each multiset's row, not builtin sum, which is compensated from Python
3.12 on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .almostprime import (
    CountMode,
    ResidueConstraint,
    _recursion_residuals,
    count_almost_primes,
    ordered_tuple_count,
)
from .arith import _units
from .characters import build_character_group, orthogonality_sum
from .quadratic import QuadraticForm, _formula_counts, _root_count_grid
from .residues import class_count, residue_classes_constructive, residue_classes_direct
from .sieve import SpfTable, prime_count

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


def check_orthogonality(max_modulus: int = 60) -> list[CheckResult]:
    """Sum over characters of conj(chi(m)) chi(n) against phi(N) [m == n],
    for every modulus up to max_modulus and every unit pair.

    Each pair's sum is one np.vdot of two columns of the unit-value matrix,
    as orthogonality_sum takes it, never a Gram matrix (see above), and only
    for n at or after m: |vdot(b, a)| is |vdot(a, b)| bit for bit, and the
    pair before its mirror in the scan is the upper one. A non-unit second
    argument goes through orthogonality_sum itself."""
    # looked up once for the suite's 16,000 calls
    vdot = np.vdot
    results = []
    for n_mod in range(1, max_modulus + 1):
        group = build_character_group(n_mod)
        phi = group.group_order
        matrix, units = group.unit_value_matrix()
        columns = list(matrix.T)
        # row m, column n: the sum for units m <= n, less phi where m == n
        sums = np.zeros((phi, phi), dtype=complex)
        places = np.arange(phi)
        sums[places[:, None] <= places] = [
            vdot(col_m, col_n) for i, col_m in enumerate(columns) for col_n in columns[i:]
        ]
        sums[places, places] -= phi
        # row m: the errors at each unit n >= m (0 before it), then at the
        # non-unit 0; the first largest error in this order is the first a
        # scan of every pair that keeps only strictly larger errors would
        # report
        errors = np.zeros((phi, phi + 1))
        errors[:, :phi] = np.abs(sums)
        if n_mod > 1:
            errors[:, phi] = [abs(orthogonality_sum(group, m, 0)) for m in units]
        at = int(errors.argmax())
        worst = float(errors.flat[at])
        m, n = divmod(at, phi + 1)
        passed = worst < ORTHOGONALITY_TOLERANCE
        detail = f"phi={phi} max error {worst:.2e}"
        if not passed:
            detail += f" at pair {(units[m], units[n] if n < phi else 0)}"
        results.append(CheckResult("orthogonality", f"N={n_mod}", passed, detail))
    return results


def check_recursions(table: SpfTable, x_max: int = 10**4) -> list[CheckResult]:
    """Both sides of the three tuple-sum recursions evaluated independently;
    the identities are exact, so residuals must sit at float-noise level.
    Each (identity, N, k, x) takes the residuals of every multiset at once."""
    xs = [x for x in (100, 1000, 10**4) if x <= x_max]
    if not xs:
        raise ValueError("x_max must be at least 100 for the recursion grid")
    results = []
    for n_mod in (4, 5):
        units = _units(n_mod)
        for identity in ("log_sum", "reciprocal_sum", "error_term"):
            for k in (1, 2):
                size = k if identity == "reciprocal_sum" else k + 1
                multisets = list(itertools.combinations_with_replacement(units, size))
                # a row per multiset and a column per x, so that the first
                # largest residual is the first a multiset-major scan of the
                # cases that keeps only strictly larger ones would report
                residuals = np.column_stack([
                    _recursion_residuals(table, identity, x, k, n_mod, multisets)
                    for x in xs
                ])
                at = int(residuals.argmax())
                worst = float(residuals.flat[at])
                passed = worst < RESIDUAL_TOLERANCE
                detail = f"max residual {worst:.2e} over {residuals.size} cases"
                if not passed:
                    row, column = divmod(at, len(xs))
                    detail += f" at x={xs[column]} m={multisets[row]}"
                name = f"{identity} N={n_mod} k={k}"
                results.append(CheckResult("recursions", name, passed, detail))
    return results


def _legendre_symbols(d: int, primes: np.ndarray) -> np.ndarray:
    """(d/p) at each odd prime p of the int64 array, by Gauss's lemma, for
    the whole array at once: with a = |d| and h = (p-1)/2, (a/p) = (-1)^mu,
    mu the number of k in 1..h with ka mod p > h, that is with
    jp + h < ka < (j+1)p for some j >= 0. Each j counts its k by two floor
    divisions by a, and only j < a // 2 can count any, since
    jp + h < ka <= ah gives j < h(a-1)/p < (a-1)/2. (-1/p) = (-1)^h gives the
    sign of a negative d, and p dividing d gives 0."""
    a = abs(d)
    h = (primes - 1) // 2
    mu = np.zeros_like(primes)
    for j in range(a // 2):
        upper = np.minimum((j + 1) * primes - 1, a * h) // a
        lower = (j * primes + h) // a
        mu += np.maximum(upper - lower, 0)
    if d < 0:
        mu += h
    return np.where(a % primes == 0, 0, 1 - 2 * (mu & 1))


def check_residues(table: SpfTable) -> list[CheckResult]:
    """Direct and constructive class sets must agree exactly, have size
    phi(Q)/2 each, partition the units mod Q, and predict (D/p) for every
    prime p up to RESIDUE_PRIME_LIMIT not dividing 2D. The symbol there
    comes from Gauss's lemma, which shares no code with the kronecker-based
    class sets."""
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


def _factor_rounds(table: SpfTable, numbers: np.ndarray) -> np.ndarray:
    """The prime factors, with multiplicity, of every n >= 1 in numbers by
    one pass of division by the table's smallest prime factors: row r holds
    the prime divided out of each n in round r, or 1 once n is used up. So
    each column lists its n's primes in ascending order, padded with 1."""
    rest = numbers.astype(np.int64)
    rounds = []
    while (left := rest > 1).any():
        p = np.where(left, table.spf[rest], 1)
        rounds.append(p)
        rest //= p
    return np.array(rounds, dtype=np.int64).reshape(len(rounds), numbers.size)


def check_quadratic(table: SpfTable, n_max: int = 5000) -> list[CheckResult]:
    """Discriminant formula against the full scan on every odd squarefree
    modulus coprime to the discriminant. Every odd n <= n_max is factored
    once, for every form, by one pass of _factor_rounds. The scan is one
    _root_count_grid call for every form and odd squarefree modulus, and each
    form's formula one _formula_counts call over its moduli, which takes
    (D/p) once per prime."""
    n_max = min(n_max, table.limit)
    odd = np.arange(1, n_max + 1, 2)
    rounds = _factor_rounds(table, odd)
    squarefree = ~((rounds[1:] == rounds[:-1]) & (rounds[1:] > 1)).any(axis=0)
    scans = _root_count_grid(QUADRATIC_FORMS, odd[squarefree].tolist())
    results = []
    for column, form in enumerate(QUADRATIC_FORMS):
        d = form.discriminant
        coprime = np.gcd(odd[squarefree], d) == 1
        kept = np.flatnonzero(squarefree)[coprime]
        moduli = odd[kept]
        scan = scans[coprime, column]
        formula = _formula_counts(d, rounds[:, kept].T)
        problem = None
        if (bad := np.flatnonzero(formula != scan)).size:
            i = bad[0]
            problem = f"count mismatch at n={moduli[i]}: {formula[i]} != {scan[i]}"
        detail = problem or f"{moduli.size} moduli <= {n_max} compared"
        results.append(CheckResult("quadratic", f"D={d}", not problem, detail))
    return results


def _prime_factor_counts(
    table: SpfTable, x_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct and the with-multiplicity prime factor counts of every
    n <= x_max, indexed by n (0 counts as 1), by _factor_rounds: the primes
    of each n come out in ascending order, so a new prime differs from the
    one before."""
    numbers = np.arange(x_max + 1)
    numbers[0] = 1
    rounds = _factor_rounds(table, numbers)
    found = rounds > 1
    new = found.copy()
    new[1:] &= rounds[1:] != rounds[:-1]
    return new.sum(axis=0), found.sum(axis=0)


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
