"""Dirichlet characters modulo N with exact exponent arithmetic.

The unit group mod N is decomposed into cyclic components (a primitive root
for each odd prime power; -1 and 5 for powers of two). A character is an
exponent vector against that basis, ordered lexicographically, so index 0 is
always the principal character. Every value comes from one kernel,
CharacterGroup._columns: the phase of character i at a unit n is row i of
the integer weight matrix W times n's exponent vector, mod L (the lcm of
the generator orders), taken for a set of units in one matmul, and the one
float step is the lookup of those phases in a table of L-th roots of
unity. value reads one entry of the column at n, orthogonality_sum is one
np.vdot of the columns at m and n, and unit_value_matrix is the columns at
every unit, so a value is the same bits whichever route reads it.
unit_value_matrix, and only it, refuses a group of more than
_TABLE_UNIT_LIMIT units: the guard on the memory of a phi x phi complex
matrix.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arith import _trial_factorize, crt_combine, euler_phi

MAX_MODULUS = 10**4
_TABLE_UNIT_LIMIT = 2048


def _primitive_root_mod_prime(p: int) -> int:
    order_factors = [q for q, _ in _trial_factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


def _component_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (residue mod p^e, order) of the unit group mod p^e."""
    pe = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(pe - 1, 2), (5, 2 ** (e - 2))]
    g = _primitive_root_mod_prime(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % pe, (p - 1) * p ** (e - 1))]


class CharacterGroup:
    """All phi(N) Dirichlet characters mod N."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.group_order = euler_phi(modulus)
        generators: list[tuple[int, int]] = []
        for p, e in _trial_factorize(modulus):
            pe = p**e
            rest = modulus // pe
            for g, d in _component_generators(p, e):
                lifted, _ = crt_combine([(g, pe), (1 % rest, rest)])
                generators.append((lifted, d))

        self.generators = tuple(generators)
        self.orders = tuple(d for _, d in generators)
        # each unit is prod g_i^e_i for exactly one exponent vector e, the
        # same vectors that index the characters
        self.characters = tuple(
            itertools.product(*(range(d) for d in self.orders))
        )
        powers = [[pow(g, j, modulus) for j in range(d)] for g, d in generators]
        self._unit_logs: dict[int, tuple[int, ...]] = {}
        for vec in self.characters:
            u = 1 % modulus
            for row, j in zip(powers, vec):
                u = u * row[j] % modulus
            self._unit_logs[u] = vec

        # lcm of generator orders; every character value is an L-th root of unity
        self._L = math.lcm(*self.orders) if self.orders else 1
        angles = 2.0 * math.pi * np.arange(self._L) / self._L
        self._roots = np.cos(angles) + 1j * np.sin(angles)
        self._roots[0] = 1.0 + 0.0j
        # W[i, j]: character i's phase per unit of generator j's exponent,
        # in L-ths of a turn (phi x rank)
        self._W = np.array(self.characters, dtype=np.int64) * (
            self._L // np.array(self.orders, dtype=np.int64)
        )

    @property
    def num_characters(self) -> int:
        return len(self.characters)

    def _columns(self, units) -> np.ndarray:
        """The one kernel: every character's value (rows, by index) at each
        of the given units (columns), in one matmul of exponents."""
        logs = np.array(
            [self._unit_logs[u % self.modulus] for u in units], dtype=np.int64
        )
        return self._roots[(self._W @ logs.T) % self._L]

    def value(self, index: int, n: int) -> complex:
        """chi_index(n); 0 for non-units."""
        if n % self.modulus not in self._unit_logs:
            return 0j
        return complex(self._columns((n,))[index, 0])

    def unit_value_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(num_characters x num_units) value matrix and the unit ordering,
        ascending, made on each call."""
        if self.group_order > _TABLE_UNIT_LIMIT:
            raise ValueError("unit value matrix too large for this modulus")
        units = tuple(sorted(self._unit_logs))
        return self._columns(units), units


def build_character_group(modulus: int) -> CharacterGroup:
    """Construct the character group mod N. N above MAX_MODULUS is rejected."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds the configured cap {MAX_MODULUS}")
    return CharacterGroup(modulus)


def evaluate(group: CharacterGroup, index: int, n: int) -> complex:
    if not 0 <= index < group.num_characters:
        raise ValueError("character index out of range")
    return group.value(index, n)


def orthogonality_sum(group: CharacterGroup, m: int, n: int) -> complex:
    """Sum over all characters of conj(chi(m)) * chi(n); m must be a unit.

    The sum is one np.vdot of the two columns of a (phi x 2) value matrix:
    strided like the columns of unit_value_matrix, so it rounds as the
    vdot of those columns does (BLAS sums a contiguous vector in another
    order)."""
    if m % group.modulus not in group._unit_logs:
        raise ValueError(f"{m} is not a unit mod {group.modulus}")
    if n % group.modulus not in group._unit_logs:
        return 0j
    values = group._columns((m, n))
    return complex(np.vdot(values[:, 0], values[:, 1]))
