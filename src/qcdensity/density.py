"""Densities of almost-primes whose prime factors carry prescribed
Kronecker-symbol signs, with the classical asymptotic yardsticks.

A sign constraint fixes epsilon_i in {+1, -1} per position of the sorted
prime tuple of n; each prime must satisfy (D/p_i) = epsilon_i. Primes
dividing D never match (their symbol is 0); p = 2 participates exactly when
D is odd, since (D/2) = 0 for even D.

Counting reads the one recorded walk of almostprime.py per (x, k, mode),
its rows keyed by the signs of their leading primes, each evaluated as
(D/p) once per prime and grouped by sieve._runs: _sign_counts is its
count table on _sign_oracle, a prime-count oracle for (x, D, odd_only),
and a sign count is its entry for the leading signs eps[:-1] and the
last sign eps[-1]. This module owns the one sign-label rule, _sign, and
builds the oracle's counts from it: a prime is labelled +1 or -1 by the
class B(+) or B(-) of p mod Q, that is by the real character chi mod Q,
except that each prime dividing 2D takes (D/p) itself (p = 2 takes 0
when odd_only). So the oracle's counts come from pi(v) and one prime sum
of chi (sieve._prime_sums), with the primes dividing 2D moved to their
own label by their steps (sieve._prime_steps); they need the table's
primes only up to isqrt(x). The primes dividing 2D are 2 and the primes
of D, so 2D is never factored, and D's factorization is the one memoised
in arith.py. The unconstrained reference counts read the same rows,
unlabelled, on the every-prime oracle. The residue-class rows of a
cross-check are positional counts on the class oracle of sieve.py, whose
counts come from class arithmetic alone, with no symbol and no chi: they
check the sign rows by an independent route and need the table only up
to isqrt(x), as the sign rows do, but their phi(Q) coupled rows face the
class budget of sieve._oracle_need (a sieve.BudgetError over it). Their
phi(Q)^k rows at one x are entries of one count table of the same walk,
keyed by the leading residues position by position
(almostprime._residue_counts); a lone `count --classes` reads another,
keyed by the sorted leading residues (almostprime._multiset_counts). So
a table costs one tuple walk per x, with or without the cross-check.
_density_rows builds the 2^k sign constraints, Q, phi(Q)^k and the
classes B(+) and B(-) once, then loops over x, sign tuple and residue
box, each box row taking its reference count from its sign row, and
yields each x's rows: density_table lists them all, and the CLI's table
reads them an x at a time, so it can stop between points. Once an x's
rows are made, it drops that x's oracles, walk and count tables from the
table's memo, so a grid holds the entries of one x at a time. The CSV
and JSON renderings read their columns from one list, _COLUMNS.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, kronecker, prime_divisors, squarefree_kernel
from .almostprime import (
    CountMode,
    _lookup,
    _tuple_counts,
    _tuple_rows,
    count_almost_primes,
    count_almost_primes_positional,
)
from .residues import _unit_symbols, kronecker_period, residue_classes_direct
from .sieve import (
    SpfTable,
    _PrimeCountOracle,
    _forget,
    _oracle_primes,
    _prime_count_grid,
    _prime_steps,
    _prime_sums,
    _runs,
    _table_memo,
)

MIN_ASYMPTOTIC_X = 16  # loglog x must be positive; e^e is just below 16


@dataclass(frozen=True)
class SignConstraint:
    """Non-square discriminant D plus one sign per sorted-prime position."""

    discriminant: int
    epsilons: tuple[int, ...]

    def __post_init__(self):
        if squarefree_kernel(self.discriminant).is_perfect_square:
            raise ValueError("discriminant must not be a perfect square")
        if not self.epsilons:
            raise ValueError("need at least one sign")
        for e in self.epsilons:
            if e not in (1, -1):
                raise ValueError("signs must be +1 or -1")

    @property
    def k(self) -> int:
        return len(self.epsilons)

    def label(self) -> str:
        return "eps=" + "".join("+" if e == 1 else "-" for e in self.epsilons)


def landau_asymptotic(x: float, k: int) -> float:
    """x * (loglog x)^(k-1) / ((k-1)! * log x), the leading-order size of
    the k-almost-prime counts. Requires x >= 16 so loglog x > 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x < MIN_ASYMPTOTIC_X:
        raise ValueError(f"x must be >= {MIN_ASYMPTOTIC_X}")
    lx = math.log(x)
    return x * math.log(lx) ** (k - 1) / (math.factorial(k - 1) * lx)


def class_constrained_asymptotic(x: float, k: int, modulus: int) -> float:
    """The per-residue-tuple version: the Landau size divided by phi(N)^k."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return landau_asymptotic(x, k) / euler_phi(modulus) ** k


def _sign(d: int, p: int, odd_only: bool) -> int:
    """The sign label of the prime p: (D/p), or 0 for p = 2 under odd_only."""
    return 0 if odd_only and p == 2 else kronecker(d, p)


@_table_memo
def _sign_oracle(table: SpfTable, x: int, d: int, odd_only: bool) -> _PrimeCountOracle:
    """Counts of the primes labelled +1 and -1 by _sign at every v in
    {x // m}. The character chi mod Q of residues._unit_symbols labels
    every prime not dividing 2D. With pi' and S' the count and the chi-sum
    over those primes, each with chi(p) = +-1, the ones labelled eps number
    (pi' + eps S') / 2. The primes dividing 2D are taken out of pi and of
    the chi-sum and added back under their own _sign label."""
    chi = _unit_symbols(d)
    pi = _prime_count_grid(table, x)
    chi_sums = _prime_sums(x, _oracle_primes(table, x), chi)
    # the primes dividing 2D, without factoring 2D, which may pass the
    # factor limit where D does not
    divisors = np.array(sorted({2, *prime_divisors(d)}), dtype=np.int64)
    labels = np.array([_sign(d, p, odd_only) for p in divisors.tolist()])
    steps = _prime_steps(x, divisors).astype(np.int64)
    pi = pi - steps.sum(axis=1)
    chi_sums -= steps @ chi[divisors % len(chi)]
    signed = [(pi + eps * chi_sums) // 2 + steps @ (labels == eps) for eps in (1, -1)]
    return _PrimeCountOracle(x, [((1,), signed[0]), ((-1,), signed[1])])


@_table_memo
def _sign_counts(table: SpfTable, x: int, k: int, d: int, odd_only: bool, strict):
    """almostprime._tuple_counts keyed by the _sign of the leading primes
    (sieve._runs), on _sign_oracle, built first so that a table short of
    isqrt(x) raises before the walk. Each distinct leading prime's sign is
    evaluated once, from the symbol, never from the oracle, so the
    residue-class rows of --cross-check stay an independent route."""
    oracle = _sign_oracle(table, x, d, odd_only)
    leading, _, _ = _tuple_rows(table, x, k, strict)
    # every leading prime is at most isqrt(x)
    present = np.zeros(math.isqrt(x) + 1, dtype=bool)
    present[leading] = True
    signs = np.zeros(len(present), dtype=np.int8)
    signs[present] = [_sign(d, p, odd_only) for p in np.flatnonzero(present).tolist()]
    return _tuple_counts(table, x, k, strict, _runs(signs[leading]), oracle)


def count_sign_constrained(
    table: SpfTable,
    x: int,
    k: int,
    constraint: SignConstraint,
    mode: CountMode = CountMode.SQUAREFREE,
    odd_only: bool = False,
) -> int:
    """Number of n <= x with exactly k prime factors (distinct or with
    multiplicity per mode) whose sorted primes satisfy (D/p_i) = eps_i.

    odd_only drops even n even when D is odd (used when comparing against
    residue-class counts, which only ever see odd primes).

    The count is one entry of the count table of the walk per (x, k,
    mode), labelled by sign, so a lone call walks about 2^(k-1) times the
    tuples that match; density_table's 2^k sign rows at one x read the same
    table, and share the walk with its reference count and cross-check
    rows.
    """
    if k < 1 or constraint.k != k:
        raise ValueError("constraint length must equal k >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    d = constraint.discriminant
    counts = _sign_counts(table, x, k, d, odd_only, mode is CountMode.SQUAREFREE)
    return _lookup(counts, _sign_oracle(table, x, d, odd_only), constraint.epsilons)


@dataclass(frozen=True)
class DensityRow:
    """One table entry: exact counts plus the density yardsticks."""

    x: int
    k: int
    discriminant: int
    constraint: str
    exact_count: int
    reference_count: int
    empirical_density: float | None
    predicted_density: float | None
    asymptotic_value: float | None


def _row(x, k, d, constraint, count, reference, cells) -> DensityRow:
    """A row whose prediction is one of `cells` equally likely cells: density
    1/cells, asymptotic count the Landau size over cells."""
    return DensityRow(
        x=x,
        k=k,
        discriminant=d,
        constraint=constraint,
        exact_count=count,
        reference_count=reference,
        empirical_density=count / reference if reference else None,
        predicted_density=1.0 / cells,
        asymptotic_value=landau_asymptotic(x, k) / cells
        if x >= MIN_ASYMPTOTIC_X
        else None,
    )


def empirical_sign_density(
    table: SpfTable, x: int, k: int, constraint: SignConstraint
) -> DensityRow:
    """Exact squarefree sign-constrained count against the unrestricted
    squarefree k-almost-prime count, with the 1/2^k prediction."""
    exact = count_sign_constrained(table, x, k, constraint)
    reference = count_almost_primes(table, x, k, None, CountMode.SQUAREFREE)
    d, label = constraint.discriminant, constraint.label()
    return _row(x, k, d, label, exact, reference, 2**k)


def density_table(
    table: SpfTable,
    x_grid: list[int],
    k: int,
    d: int,
    cross_check: bool = False,
) -> list[DensityRow]:
    """Rows for every sign tuple at every grid point, plus one "sum" row per
    x (the 2^k counts add up to the squarefree k-almost-primes all of whose
    primes have nonzero symbol, shown against the unrestricted reference).

    cross_check appends, per sign tuple, the positional residue-class rows
    over B(eps_1) x ... x B(eps_k); their counts sum to the odd-n sign count.
    """
    if not x_grid:
        raise ValueError("empty x grid")
    if list(x_grid) != sorted(x_grid):
        raise ValueError("x grid must be ascending")
    rows = _density_rows(table, x_grid, k, d, cross_check)
    return list(itertools.chain.from_iterable(rows))


def _density_rows(table, x_grid, k, d, cross_check):
    """density_table's rows, one list per x in x_grid, yielded as each x is
    done: the sign constraints, Q, phi(Q)^k and the classes B(+-) are made
    once, before the first x."""
    signs = itertools.product((1, -1), repeat=k)
    constraints = [SignConstraint(d, eps) for eps in signs]
    if cross_check:
        q_mod = kronecker_period(d)
        cells = euler_phi(q_mod) ** k
        classes = {eps: residue_classes_direct(d, eps).classes for eps in (1, -1)}
    for x in x_grid:
        rows: list[DensityRow] = []
        total = 0
        for constraint in constraints:
            row = empirical_sign_density(table, x, k, constraint)
            rows.append(row)
            total += row.exact_count
            if not cross_check:
                continue
            for combo in itertools.product(*map(classes.get, constraint.epsilons)):
                count = count_almost_primes_positional(table, x, k, combo, q_mod)
                # semicolon between positions keeps the CSV at nine fields per row
                label = "m=" + ";".join(map(str, combo)) + f" mod {q_mod}"
                rows.append(_row(x, k, d, label, count, row.reference_count, cells))
        # every sign row carries the reference; counting the signs first
        # builds their oracle before the walk, not while its rows are held
        rows.append(_row(x, k, d, "sum", total, row.reference_count, 1))
        # no later row reads this x's oracles, walks or counts
        _forget(table, x)
        yield rows


def _fmt(value: float | None) -> str:
    """A real at 6 significant digits, or empty where it is undefined."""
    return "" if value is None else format(value, ".6g")


# (output column, DensityRow field, CSV format), in output order: integers
# and labels bare, reals through _fmt
_COLUMNS = (
    ("x", "x", str),
    ("k", "k", str),
    ("D", "discriminant", str),
    ("constraint", "constraint", str),
    ("count", "exact_count", str),
    ("reference", "reference_count", str),
    ("empirical", "empirical_density", _fmt),
    ("predicted", "predicted_density", _fmt),
    ("asymptotic", "asymptotic_value", _fmt),
)
CSV_HEADER = ",".join(column for column, _, _ in _COLUMNS)


def rows_to_csv(rows: list[DensityRow]) -> str:
    """Deterministic CSV: integers and labels bare, reals at 6 significant
    digits, empty field where a density is undefined."""
    # formatted a column at a time, so each value costs one call
    columns = [map(fmt, map(operator.attrgetter(f), rows)) for _, f, fmt in _COLUMNS]
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def rows_to_json(rows: list[DensityRow]) -> str:
    """Canonical JSON (sorted keys, tight separators): parse and re-serialize
    reproduces the bytes."""
    payload = [{column: getattr(r, f) for column, f, _ in _COLUMNS} for r in rows]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
