"""Dirichlet character groups: sizes, multiplicativity, orthogonality."""

import cmath
import math
import random

import numpy as np
import pytest

import qcdensity as q
from qcdensity import characters


def _phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


@pytest.mark.parametrize("modulus", range(1, 61))
def test_group_has_phi_characters(modulus):
    group = q.build_character_group(modulus)
    assert group.num_characters == _phi(modulus)


def test_unit_logs_are_exponent_vectors_against_the_generators():
    # every unit mod N has one exponent vector within the generator orders,
    # and the generators raised to it give the unit back
    for modulus in range(1, 201):
        group = q.build_character_group(modulus)
        logs = group._unit_logs
        units = [a for a in range(modulus) if math.gcd(a, modulus) == 1]
        assert sorted(logs) == units
        assert len(set(logs.values())) == len(units)
        for u, vec in logs.items():
            assert len(vec) == len(group.orders)
            assert all(0 <= e < d for e, d in zip(vec, group.orders))
            product = 1
            for (g, _), e in zip(group.generators, vec):
                product = product * pow(g, e, modulus) % modulus
            assert product % modulus == u


@pytest.mark.parametrize("modulus", [1, 4, 5, 12, 40])
def test_index_zero_is_principal(modulus):
    group = q.build_character_group(modulus)
    for n in range(2 * modulus + 1):
        expected = 1 if math.gcd(n, modulus) == 1 else 0
        assert q.evaluate(group, 0, n) == expected


@pytest.mark.parametrize("modulus", [5, 8, 21, 35])
def test_characters_completely_multiplicative(modulus):
    group = q.build_character_group(modulus)
    rng = random.Random(7)
    units = [a for a in range(1, modulus + 1) if math.gcd(a, modulus) == 1]
    for index in range(group.num_characters):
        for _ in range(25):
            m, n = rng.choice(units), rng.choice(units)
            lhs = q.evaluate(group, index, m * n)
            rhs = q.evaluate(group, index, m) * q.evaluate(group, index, n)
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("modulus", [5, 12, 16, 35])
def test_values_are_roots_of_unity_on_units(modulus):
    group = q.build_character_group(modulus)
    for index in range(group.num_characters):
        for n in range(1, 2 * modulus + 1):
            value = q.evaluate(group, index, n)
            if math.gcd(n, modulus) == 1:
                assert abs(abs(value) - 1) < 1e-12
                # chi(n)^phi = chi(n^phi) = chi(1) = 1
                assert abs(value**group.num_characters - 1) < 1e-9
            else:
                assert value == 0


def test_values_periodic_mod_n():
    group = q.build_character_group(12)
    for index in range(group.num_characters):
        for n in range(1, 25):
            assert q.evaluate(group, index, n) == q.evaluate(group, index, n + 12)


def test_mod_five_group_is_cyclic_of_order_four():
    group = q.build_character_group(5)
    values = sorted(
        (q.evaluate(group, i, 2) for i in range(4)),
        key=lambda z: cmath.phase(z) % (2 * math.pi),
    )
    for got, want in zip(values, (1, 1j, -1, -1j)):
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("modulus", [8, 12])
def test_exponent_two_groups_are_real(modulus):
    group = q.build_character_group(modulus)
    for index in range(group.num_characters):
        for n in range(1, modulus + 1):
            value = q.evaluate(group, index, n)
            assert value.imag == pytest.approx(0.0, abs=1e-12)
            assert round(value.real) in (-1, 0, 1)


@pytest.mark.parametrize("modulus", [5, 12, 16, 23])
def test_orthogonality_sum(modulus):
    group = q.build_character_group(modulus)
    phi = group.num_characters
    units = [a for a in range(1, modulus + 1) if math.gcd(a, modulus) == 1]
    for m in units:
        for n in range(1, modulus + 1):
            expected = phi if (math.gcd(n, modulus) == 1 and m % modulus == n % modulus) else 0
            assert abs(q.orthogonality_sum(group, m, n) - expected) < 1e-9


def test_orthogonality_sum_requires_unit_reference():
    group = q.build_character_group(12)
    with pytest.raises(ValueError):
        q.orthogonality_sum(group, 4, 1)


@pytest.mark.parametrize("modulus", [5, 12, 16])
def test_unit_value_matrix_rows_are_orthogonal(modulus):
    group = q.build_character_group(modulus)
    matrix, units = group.unit_value_matrix()
    phi = group.num_characters
    assert matrix.shape == (phi, phi)
    assert len(units) == phi
    gram = matrix @ matrix.conj().T
    assert np.allclose(gram, phi * np.eye(phi), atol=1e-9)
    # columns follow the reported unit ordering, and each entry is the value
    # evaluate gives, bit for bit: both come from the one kernel
    for i in range(phi):
        for j, unit in enumerate(units):
            assert matrix[i, j] == q.evaluate(group, i, unit)


def test_orthogonality_sum_is_the_vdot_of_matrix_columns():
    # the orthogonality suite sums np.vdot over the unit value matrix's
    # columns; orthogonality_sum must give those sums exactly, not within a
    # tolerance, for every unit pair of every modulus the suite checks
    for modulus in range(1, 61):
        group = q.build_character_group(modulus)
        matrix, units = group.unit_value_matrix()
        for i, m in enumerate(units):
            for j, n in enumerate(units):
                want = complex(np.vdot(matrix[:, i], matrix[:, j]))
                assert q.orthogonality_sum(group, m, n) == want


def test_character_sum_over_group_detects_one():
    # second orthogonality: summing all characters at n kills non-1 units
    group = q.build_character_group(20)
    phi = group.num_characters
    for n in range(1, 21):
        total = sum(q.evaluate(group, i, n) for i in range(phi))
        expected = phi if n % 20 == 1 else 0
        assert abs(total - expected) < 1e-9


def test_orthogonality_over_the_matrix_limit():
    # order 2052 is over the value matrix's limit, which guards only
    # unit_value_matrix: the sum takes two columns of character values, as
    # at every order, with no matrix
    group = q.build_character_group(2053)
    phi = group.group_order
    assert phi == 2052 > characters._TABLE_UNIT_LIMIT
    for m, n in [(1, 1), (2, 2), (2, 3), (5, 2052), (2, 2055), (1234, 17)]:
        expected = phi if (m - n) % 2053 == 0 else 0
        assert abs(q.orthogonality_sum(group, m, n) - expected) < 1e-9
    for m in range(1, 2053):
        for n in (1, 2, 2052, 2053):
            expected = phi if m == n else 0
            assert abs(q.orthogonality_sum(group, m, n) - expected) < 1e-9
    # a non-unit n
    assert abs(q.orthogonality_sum(group, 3, 2053)) < 1e-9
    with pytest.raises(ValueError, match="too large"):
        group.unit_value_matrix()


def test_group_modulus_cap():
    q.build_character_group(10**4)
    with pytest.raises(ValueError):
        q.build_character_group(10**4 + 1)
