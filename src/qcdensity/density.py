"""Densities of almost-primes whose prime factors carry prescribed
Kronecker-symbol signs, with the classical asymptotic yardsticks.

A sign constraint fixes epsilon_i in {+1, -1} per position of the sorted
prime tuple of n; each prime must satisfy (D/p_i) = epsilon_i. Primes
dividing D never match (their symbol is 0); p = 2 participates exactly when
D is odd, since (D/2) = 0 for even D. Counting is a step/leaf pair on the
prime-tuple walker of almostprime.py: the step keeps a leading prime when
its symbol equals the position's sign, and the leaf counts the last position
through the residue classes B(epsilon) mod Q, correcting for the finitely
many primes dividing D whose class would otherwise be counted, and for p = 2.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import kronecker, prime_divisors, squarefree_kernel
from .almostprime import (
    CountMode,
    _walk,
    count_almost_primes,
    count_almost_primes_positional,
)
from .residues import residue_classes_direct
from .sieve import SpfTable

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
    from .arith import euler_phi

    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return landau_asymptotic(x, k) / euler_phi(modulus) ** k


@lru_cache(maxsize=None)
def _sign_classes(d: int, epsilon: int):
    rcs = residue_classes_direct(d, epsilon)
    return rcs.modulus, rcs.classes, frozenset(rcs.classes)


@lru_cache(maxsize=None)
def _class_corrections(d: int):
    """Odd primes dividing D that are units mod Q (even-exponent primes):
    their Kronecker value is 0, but their residue class is in some B."""
    q = _sign_classes(d, 1)[0]
    return tuple(p for p in prime_divisors(d) if p != 2 and q % p != 0)


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
    """
    if k < 1 or constraint.k != k:
        raise ValueError("constraint length must equal k >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    d = constraint.discriminant
    eps = constraint.epsilons
    q_mod = _sign_classes(d, 1)[0]
    class_sets = {1: _sign_classes(d, 1)[2], -1: _sign_classes(d, -1)[2]}
    corrections = _class_corrections(d)
    cidx = table.class_index(q_mod)

    kron_cache: dict[int, int] = {}

    def kron(p: int) -> int:
        v = kron_cache.get(p)
        if v is None:
            v = kronecker(d, p)
            kron_cache[p] = v
        return v

    def step(st, pos, p):
        return st if (not odd_only or p != 2) and kron(p) == eps[pos] else None

    def leaf(st, lo, hi):
        want = eps[-1]
        members = class_sets[want]
        total = 0
        for a in sorted(members):
            total += cidx.count(a, lo, hi)
        for p in corrections:
            if lo < p <= hi and p % q_mod in members:
                total -= 1
        if not odd_only and d % 2 and lo < 2 <= hi and kron(2) == want:
            total += 1
        return total

    return _walk(table, x, k, mode is CountMode.SQUAREFREE, step, leaf, ())


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


def empirical_sign_density(
    table: SpfTable, x: int, k: int, constraint: SignConstraint
) -> DensityRow:
    """Exact squarefree sign-constrained count against the unrestricted
    squarefree k-almost-prime count, with the 1/2^k prediction."""
    exact = count_sign_constrained(table, x, k, constraint)
    reference = count_almost_primes(table, x, k, None, CountMode.SQUAREFREE)
    empirical = exact / reference if reference else None
    asym = landau_asymptotic(x, k) / 2**k if x >= MIN_ASYMPTOTIC_X else None
    return DensityRow(
        x=x,
        k=k,
        discriminant=constraint.discriminant,
        constraint=constraint.label(),
        exact_count=exact,
        reference_count=reference,
        empirical_density=empirical,
        predicted_density=0.5**k,
        asymptotic_value=asym,
    )


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
    rows: list[DensityRow] = []
    for x in x_grid:
        reference = count_almost_primes(table, x, k, None, CountMode.SQUAREFREE)
        total = 0
        for eps in itertools.product((1, -1), repeat=k):
            constraint = SignConstraint(d, eps)
            row = empirical_sign_density(table, x, k, constraint)
            rows.append(row)
            total += row.exact_count
            if cross_check:
                rows.extend(_residue_rows(table, x, k, constraint))
        rows.append(
            DensityRow(
                x=x,
                k=k,
                discriminant=d,
                constraint="sum",
                exact_count=total,
                reference_count=reference,
                empirical_density=total / reference if reference else None,
                predicted_density=1.0,
                asymptotic_value=landau_asymptotic(x, k)
                if x >= MIN_ASYMPTOTIC_X
                else None,
            )
        )
    return rows


def _residue_rows(
    table: SpfTable, x: int, k: int, constraint: SignConstraint
) -> list[DensityRow]:
    from .arith import euler_phi

    d = constraint.discriminant
    per_position = [
        _sign_classes(d, e)[1] for e in constraint.epsilons
    ]
    q_mod = _sign_classes(d, 1)[0]
    phi_q = euler_phi(q_mod)
    reference = count_almost_primes(table, x, k, None, CountMode.SQUAREFREE)
    rows = []
    for combo in itertools.product(*per_position):
        count = count_almost_primes_positional(table, x, k, combo, q_mod)
        # semicolon between positions keeps the CSV at nine fields per row
        label = "m=" + ";".join(str(m) for m in combo) + f" mod {q_mod}"
        rows.append(
            DensityRow(
                x=x,
                k=k,
                discriminant=d,
                constraint=label,
                exact_count=count,
                reference_count=reference,
                empirical_density=count / reference if reference else None,
                predicted_density=1.0 / phi_q**k,
                asymptotic_value=class_constrained_asymptotic(x, k, q_mod)
                if x >= MIN_ASYMPTOTIC_X
                else None,
            )
        )
    return rows


CSV_HEADER = "x,k,D,constraint,count,reference,empirical,predicted,asymptotic"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def rows_to_csv(rows: list[DensityRow]) -> str:
    """Deterministic CSV: integers bare, reals at 6 significant digits,
    empty field where a density is undefined."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.x),
                    str(r.k),
                    str(r.discriminant),
                    r.constraint,
                    str(r.exact_count),
                    str(r.reference_count),
                    _fmt(r.empirical_density),
                    _fmt(r.predicted_density),
                    _fmt(r.asymptotic_value),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[DensityRow]) -> str:
    """Canonical JSON (sorted keys, tight separators): parse and re-serialize
    reproduces the bytes."""
    payload = [
        {
            "x": r.x,
            "k": r.k,
            "D": r.discriminant,
            "constraint": r.constraint,
            "count": r.exact_count,
            "reference": r.reference_count,
            "empirical": r.empirical_density,
            "predicted": r.predicted_density,
            "asymptotic": r.asymptotic_value,
        }
        for r in rows
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
