"""Sign-tuple and unconstrained counts to 10^6 against the factorization
scan of factor_scan.py, which shares only the SPF sieve with the counting
code."""

import itertools

import numpy as np
import pytest

import qcdensity as q
from qcdensity import CountMode, SignConstraint

from factor_scan import FactorScan, euler_signs

LIMIT = 10**6
X_GRID = (1000, LIMIT)
K_MAX = 3


@pytest.fixture(scope="module")
def scanned():
    table = q.build_spf_table(LIMIT)
    return table, FactorScan(table.spf, K_MAX)


def test_euler_signs_agree_with_kronecker():
    spf = q.build_spf_table(2000).spf
    for d in (5, -4, 8, 13, -20, 999977991602):
        signs = euler_signs(d, spf)
        for p in range(2, 2001):
            expected = q.kronecker(d, p) if spf[p] == p else 0
            assert signs[p] == expected, (d, p)


# 999977991602 = 2 * 707099^2: 2D is past the trial-factor limit, D is not
@pytest.mark.parametrize("d", [5, -4, 8, 13, 999977991602])
def test_every_sign_tuple_matches_the_scan(scanned, d):
    table, scan = scanned
    signs = euler_signs(d, table.spf)
    odd_signs = signs.copy()
    odd_signs[2] = 0
    for k, odd_only, x in itertools.product(range(1, K_MAX + 1), (False, True), X_GRID):
        expected = scan.sign_counts(x, k, odd_signs if odd_only else signs)
        for eps, count in expected.items():
            constraint = SignConstraint(d, eps)
            actual = q.count_sign_constrained(
                table, x, k, constraint, CountMode.SQUAREFREE, odd_only
            )
            assert actual == count, (k, odd_only, x, eps)


@pytest.mark.parametrize("mode", list(CountMode))
def test_unconstrained_counts_match_the_scan(scanned, mode):
    table, scan = scanned
    squarefree = mode is CountMode.SQUAREFREE
    for k, x in itertools.product(range(1, K_MAX + 1), X_GRID):
        expected = scan.almost_prime_count(x, k, squarefree)
        assert q.count_almost_primes(table, x, k, None, mode) == expected, (k, x)


def test_scan_factors_small_n_as_factorize_does():
    table = q.build_spf_table(5000)
    scan = FactorScan(table.spf, K_MAX)
    for n in range(2, 5001):
        factors = q.factorize(table, n).factors
        primes = [p for p, e in factors for _ in range(e)]
        assert scan.big_omega[n] == len(primes)
        assert scan.squarefree[n] == all(e == 1 for _, e in factors)
        padded = (primes + [0] * K_MAX)[:K_MAX]
        assert scan.leading[:, n].tolist() == padded, n
    assert not np.any(scan.big_omega[:2])
