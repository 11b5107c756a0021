"""Sign-tuple, residue-class and unconstrained counts to 10^7 against the
factorization scan of factor_scan.py, which shares only the SPF sieve with
the counting code."""

import collections
import itertools

import numpy as np
import pytest

import qcdensity as q
from qcdensity import CountMode, ResidueConstraint, SignConstraint

from factor_scan import FactorScan, euler_signs, scan_blocks, sign_digits, tuple_counts

LIMIT = 10**6
X_GRID = (1000, LIMIT)
K_MAX = 3
# the block scan's x, its discriminants and its class modulus
BIG = 10**7
BIG_DISCRIMINANTS = (5, -4, 8, 13)
MODULUS = 20
# the squarefree k-almost-primes up to 10^7, the references the benchmark's
# table workloads check their reports against
SQUAREFREE_AT_BIG = {2: 1903878, 3: 2086746}


@pytest.fixture(scope="module")
def scanned():
    table = q.build_spf_table(LIMIT)
    return table, FactorScan(table.spf, K_MAX)


def test_euler_signs_agree_with_kronecker():
    table = q.build_spf_table(2000)
    for d in (5, -4, 8, 13, -20, 999977991602):
        signs = euler_signs(d, table.primes, 2001)
        for p in range(2, 2001):
            expected = q.kronecker(d, p) if table.spf[p] == p else 0
            assert signs[p] == expected, (d, p)


# 999977991602 = 2 * 707099^2: 2D is past the trial-factor limit, D is not
@pytest.mark.parametrize("d", [5, -4, 8, 13, 999977991602])
def test_every_sign_tuple_matches_the_scan(scanned, d):
    table, scan = scanned
    signs = euler_signs(d, table.primes, LIMIT + 1)
    for k, odd_only, x in itertools.product(range(1, K_MAX + 1), (False, True), X_GRID):
        expected = scan.sign_counts(x, k, signs, odd_only)
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


def assert_residue_tuples_match(table, x, k, modulus, expected, mode):
    """Every positional tuple mod modulus against expected (its counts in
    the order of itertools.product), and every multiset of units, whose
    count sums the positional counts of its arrangements."""
    tuples = list(itertools.product(range(modulus), repeat=k))
    actual = [
        q.count_almost_primes_positional(table, x, k, combo, modulus, mode)
        for combo in tuples
    ]
    assert actual == expected, k
    by_multiset = collections.defaultdict(int)
    for combo, count in zip(tuples, expected):
        by_multiset[tuple(sorted(combo))] += count
    units = [a for a in range(modulus) if np.gcd(a, modulus) == 1]
    for multiset in itertools.combinations_with_replacement(units, k):
        constraint = ResidueConstraint(modulus, multiset)
        got = q.count_almost_primes(table, x, k, constraint, mode)
        assert got == by_multiset[multiset], multiset


@pytest.mark.parametrize("mode", list(CountMode))
def test_every_residue_tuple_mod_twelve_matches_the_scan(scanned, mode):
    # mod 12 the classes of 2 and 3 hold one prime each and six classes none
    table, scan = scanned
    squarefree = mode is CountMode.SQUAREFREE
    for k in range(1, K_MAX + 1):
        expected = tuple_counts(scan.tuples(LIMIT, k, squarefree) % 12, 12).tolist()
        assert_residue_tuples_match(table, LIMIT, k, 12, expected, mode)


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


@pytest.fixture(scope="module")
def scanned_big():
    """The table to 10^7 and, from one block scan of it, every count the
    comparisons at 10^7 read: unconstrained counts by (k, squarefree); sign
    tuple counts by (D, odd_only, k), indexed by the codes of tuple_counts;
    and the positional residue tuples mod MODULUS by k, as codes too."""
    table = q.build_spf_table(BIG)
    labels = {
        d: sign_digits(euler_signs(d, table.primes, BIG + 1)) for d in BIG_DISCRIMINANTS
    }
    counts = collections.defaultdict(int)
    for scan in scan_blocks(table.spf, K_MAX, BIG + 1):
        for k in range(1, K_MAX + 1):
            counts["all", k, False] += scan.almost_prime_count(BIG, k, False)
            tuples = scan.tuples(BIG, k)
            counts["all", k, True] += tuples.shape[1]
            counts["mod", k] += tuple_counts(tuples % MODULUS, MODULUS)
            # odd_only drops the even n, the tuples that start at 2
            by_parity = {False: tuples, True: tuples[:, tuples[0] != 2]}
            for d, odd_only in itertools.product(BIG_DISCRIMINANTS, (False, True)):
                digits = labels[d][by_parity[odd_only]]
                counts["signs", d, odd_only, k] += tuple_counts(digits, 2)
    return table, counts


def test_the_scan_at_ten_million_gives_the_pinned_squarefree_counts(scanned_big):
    table, counts = scanned_big
    for k, expected in SQUAREFREE_AT_BIG.items():
        assert counts["all", k, True] == expected
        assert q.count_almost_primes(table, BIG, k) == expected


@pytest.mark.parametrize("d", BIG_DISCRIMINANTS)
def test_every_sign_tuple_at_ten_million_matches_the_scan(scanned_big, d):
    table, counts = scanned_big
    for k, odd_only in itertools.product(range(1, K_MAX + 1), (False, True)):
        expected = counts["signs", d, odd_only, k].tolist()
        signs = itertools.product((1, -1), repeat=k)
        actual = [
            q.count_sign_constrained(
                table, BIG, k, SignConstraint(d, eps), CountMode.SQUAREFREE, odd_only
            )
            for eps in signs
        ]
        assert actual == expected, (k, odd_only)


@pytest.mark.parametrize("mode", list(CountMode))
def test_unconstrained_counts_at_ten_million_match_the_scan(scanned_big, mode):
    table, counts = scanned_big
    squarefree = mode is CountMode.SQUAREFREE
    for k in range(1, K_MAX + 1):
        expected = counts["all", k, squarefree]
        assert q.count_almost_primes(table, BIG, k, None, mode) == expected, k


def test_every_residue_tuple_at_ten_million_matches_the_scan(scanned_big):
    table, counts = scanned_big
    for k in range(1, K_MAX + 1):
        expected = counts["mod", k].tolist()
        mode = CountMode.SQUAREFREE
        assert_residue_tuples_match(table, BIG, k, MODULUS, expected, mode)
