"""Dirichlet characters modulo N with exact exponent arithmetic.

The unit group mod N is decomposed into cyclic components (a primitive root
for each odd prime power; -1 and 5 for powers of two). A character is an
exponent vector against that basis, ordered lexicographically, so index 0 is
always the principal character. Evaluation stays in integer arithmetic until
the final lookup into a precomputed table of roots of unity.
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
        self._weights = tuple(
            tuple(t * (self._L // d) for t, d in zip(chi, self.orders))
            for chi in self.characters
        )
        self._units = tuple(sorted(self._unit_logs))
        self._unit_pos = {u: i for i, u in enumerate(self._units)}
        self._matrix: np.ndarray | None = None

    @property
    def num_characters(self) -> int:
        return len(self.characters)

    def value(self, index: int, n: int) -> complex:
        """chi_index(n); 0 for non-units."""
        u = n % self.modulus
        logs = self._unit_logs.get(u)
        if logs is None:
            return 0j
        w = self._weights[index]
        phase = 0
        for wj, lj in zip(w, logs):
            phase += wj * lj
        return complex(self._roots[phase % self._L])

    def unit_value_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(num_characters x num_units) value matrix and the unit ordering."""
        if self._matrix is None:
            if self.group_order > _TABLE_UNIT_LIMIT:
                raise ValueError("unit value matrix too large for this modulus")
            logmat = np.array(
                [self._unit_logs[u] for u in self._units], dtype=np.int64
            ).reshape(len(self._units), len(self.orders))
            wmat = np.array(self._weights, dtype=np.int64).reshape(
                len(self.characters), len(self.orders)
            )
            phases = (wmat @ logmat.T) % self._L
            self._matrix = self._roots[phases]
        return self._matrix, self._units


def build_character_group(modulus: int, max_modulus: int = MAX_MODULUS) -> CharacterGroup:
    """Construct the character group mod N. N above max_modulus is rejected."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus > max_modulus:
        raise ValueError(f"modulus {modulus} exceeds the configured cap {max_modulus}")
    return CharacterGroup(modulus)


def evaluate(group: CharacterGroup, index: int, n: int) -> complex:
    if not 0 <= index < group.num_characters:
        raise ValueError("character index out of range")
    return group.value(index, n)


def orthogonality_sum(group: CharacterGroup, m: int, n: int) -> complex:
    """Sum over all characters of conj(chi(m)) * chi(n); m must be a unit."""
    mu = m % group.modulus
    if mu not in group._unit_pos:
        raise ValueError(f"{m} is not a unit mod {group.modulus}")
    if group.group_order <= _TABLE_UNIT_LIMIT:
        matrix, _ = group.unit_value_matrix()
        col_m = matrix[:, group._unit_pos[mu]]
        nu = n % group.modulus
        pos = group._unit_pos.get(nu)
        if pos is None:
            return 0j
        return complex(np.vdot(col_m, matrix[:, pos]))
    total = 0j
    for idx in range(group.num_characters):
        total += group.value(idx, m).conjugate() * group.value(idx, n)
    return total
