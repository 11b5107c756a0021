"""Residue classes controlling the sign of the Kronecker symbol.

For a non-square integer D, the value of (D/p) for primes p not dividing 2D
depends only on p modulo Q = 4 * (product of the odd-exponent primes of D).
B(eps) collects the unit classes a mod Q on which the symbol equals eps.
Two independent constructions are provided: a direct filter over the units,
and a constructive assembly from quadratic-residue classes per prime with
reciprocity bookkeeping; they must agree exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import crt_combine, euler_phi, kronecker, squarefree_kernel
from .sieve import build_spf_table

_ENUMERATION_LIMIT = 10**6
# _unit_symbols keeps this many D: each caller reads one D at a time, and
# an array is about Q bytes, so a few stay bounded at Q near 10^6
_SYMBOL_CACHE_SIZE = 4


@dataclass(frozen=True)
class ResidueClassSet:
    """All residue classes a mod Q with (D/p) = epsilon for primes p = a (mod Q)."""

    discriminant: int
    modulus: int
    epsilon: int
    classes: tuple[int, ...]
    _member_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.classes))

    def covers(self, p: int) -> bool:
        return p % self.modulus in self._member_set


def kronecker_period(d: int) -> int:
    """Q = 4 * product of odd-exponent primes of d (8 * odd part when 2 is one).

    (d/p) is, for p not dividing 2d, a function of p mod Q. Perfect squares
    are rejected (their symbol is identically 1 on coprime arguments).
    """
    kernel = squarefree_kernel(d)
    if kernel.is_perfect_square:
        raise ValueError("d must not be a perfect square")
    q = 4
    for p in kernel.odd_exponent_primes:
        q *= p
    return q


def _enumerable_period(d: int) -> int:
    """kronecker_period(d), which every class-by-class scan mod Q runs over.
    Raises ValueError when Q is over the enumeration limit, before anything
    is allocated, so callers can refuse such a d before they do any work."""
    q = kronecker_period(d)
    if q > _ENUMERATION_LIMIT:
        raise ValueError(f"period {q} exceeds the enumeration limit")
    return q


@lru_cache(maxsize=_SYMBOL_CACHE_SIZE)
def _unit_symbols(d: int) -> np.ndarray:
    """The symbol of d's squarefree kernel at every a mod Q, as int8: +-1 on
    the units, 0 elsewhere; that is, the real character mod Q that gives
    (d/p) for every prime p not dividing 2d. Computed once per d while it is
    among the last _SYMBOL_CACHE_SIZE asked for, and read-only because
    every caller shares it.

    The symbol is completely multiplicative in a, so kronecker runs only at
    the primes below Q that do not divide it (the others take 0, and so
    does every non-unit). Each a then takes the symbol at its smallest
    prime factor p times the one at a // p <= a / 2, filled over doubling
    ranges of a, so each range reads only the ranges below it.
    """
    q = _enumerable_period(d)
    kval = squarefree_kernel(d).value()
    table = build_spf_table(q)
    at_prime = np.zeros(q + 1, dtype=np.int8)
    coprime = [p for p in table.primes_list if q % p]
    at_prime[coprime] = [kronecker(kval, p) for p in coprime]
    symbols = np.zeros(q, dtype=np.int8)
    symbols[1] = 1
    lo = 2
    while lo < q:
        hi = min(2 * lo, q)
        p = table.spf[lo:hi]
        symbols[lo:hi] = at_prime[p] * symbols[np.arange(lo, hi) // p]
        lo = hi
    symbols.setflags(write=False)
    return symbols


def residue_classes_direct(d: int, epsilon: int) -> ResidueClassSet:
    """B(epsilon) by filtering the units mod Q on the kernel's symbol."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    symbols = _unit_symbols(d)
    classes = tuple(np.flatnonzero(symbols == epsilon).tolist())
    return ResidueClassSet(d, len(symbols), epsilon, classes)


def sign_vectors(m: int, target: int) -> list[tuple[int, ...]]:
    """All +-1 vectors of length m whose product is target (2^(m-1) of them).

    For m = 0 the empty vector qualifies exactly when target is +1.
    """
    if target not in (1, -1):
        raise ValueError("target must be +1 or -1")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = []
    for vec in itertools.product((1, -1), repeat=m):
        if math.prod(vec) == target:
            out.append(vec)
    return out


def _quadratic_residue_classes(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(residue classes, non-residue classes) among the units mod an odd prime q."""
    squares = sorted({x * x % q for x in range(1, q)})
    non = sorted(set(range(1, q)) - set(squares))
    return tuple(squares), tuple(non)


def residue_classes_constructive(d: int, epsilon: int) -> ResidueClassSet:
    """B(epsilon) assembled from per-prime quadratic residue classes.

    Branch on p mod 4 (mod 8 when 2 has odd exponent in d); fold the sign of
    d, the (2/p) factor, and the reciprocity flips for q = 3 (mod 4) into a
    target product of Legendre symbols (p/q_i); enumerate the sign vectors
    hitting that target and CRT each choice of per-prime classes with the
    branch congruence.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    kernel = squarefree_kernel(d)
    q_total = _enumerable_period(d)
    has_two = 2 in kernel.odd_exponent_primes
    odd_primes = [p for p in kernel.odd_exponent_primes if p != 2]
    branch_mod = 8 if has_two else 4
    per_prime = [_quadratic_residue_classes(p) for p in odd_primes]

    classes = []
    for b in range(1, branch_mod, 2):
        sign_factor = 1 if kernel.sign == 1 or b % 4 == 1 else -1
        two_factor = 1
        if has_two:
            two_factor = 1 if b % 8 in (1, 7) else -1
        flips = 1
        if b % 4 == 3:
            for p in odd_primes:
                if p % 4 == 3:
                    flips = -flips
        target = epsilon * sign_factor * two_factor * flips
        for vec in sign_vectors(len(odd_primes), target):
            choices = [
                per_prime[i][0] if s == 1 else per_prime[i][1]
                for i, s in enumerate(vec)
            ]
            for combo in itertools.product(*choices):
                system = [(b, branch_mod)] + [
                    (r, p) for r, p in zip(combo, odd_primes)
                ]
                residue, modulus = crt_combine(system)
                assert modulus == q_total
                classes.append(residue)
    return ResidueClassSet(d, q_total, epsilon, tuple(sorted(classes)))


def class_count(d: int) -> int:
    """phi(Q)/2: the size each B(epsilon) must have."""
    return euler_phi(kronecker_period(d)) // 2
