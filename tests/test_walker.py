"""Differential property test on random small inputs: every count built on
the prime-tuple walker against a factorize-and-filter scan (positional
counts for every residue tuple), the prime-count oracle against the class
index, and the two ordered-tuple walks against each other."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcdensity as q
from qcdensity import CountMode, ResidueConstraint, SignConstraint

from test_almostprime import _positional_histogram, _scan_count
from test_density import _scan_signs


def _units(modulus):
    return [u for u in range(modulus) if math.gcd(u, modulus) == 1]


@st.composite
def _cases(draw):
    k = draw(st.integers(1, 3))
    modulus = draw(st.integers(1, 12))
    units = _units(modulus)
    residues = tuple(draw(st.sampled_from(units)) for _ in range(k))
    # the fixed D have primes of 2D outside Q (45, -9, 18) or are odd with
    # (D/2) != 0 (-1, 7, 45)
    d = draw(
        st.one_of(
            st.sampled_from((45, -9, 18, 20, -1, 7)),
            st.integers(-30, 30).filter(lambda d: d != 0),
        )
    )
    assume(not q.squarefree_kernel(d).is_perfect_square)
    eps = tuple(draw(st.sampled_from((1, -1))) for _ in range(k))
    return dict(
        x=draw(st.integers(1, 2000)),
        k=k,
        mode=draw(st.sampled_from(list(CountMode))),
        odd_only=draw(st.booleans()),
        constraint=ResidueConstraint(modulus, residues),
        signs=SignConstraint(d, eps),
    )


@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_walker_counts_match_scans(table, case):
    x, k, mode = case["x"], case["k"], case["mode"]
    constraint, signs = case["constraint"], case["signs"]
    modulus = constraint.modulus

    assert q.count_almost_primes(table, x, k, constraint, mode) == _scan_count(
        table, x, k, constraint, mode
    )
    # the oracle's every-prime count against the modulus-1 class index
    assert q.count_almost_primes(table, x, k, None, mode) == q.count_almost_primes(
        table, x, k, ResidueConstraint(1, (0,) * k), mode
    )
    # every residue tuple, units or not (p = 2 under even N), from one walk
    hist = _positional_histogram(table, x, k, modulus, mode)
    positional = {
        res: q.count_almost_primes_positional(table, x, k, res, modulus, mode)
        for res in itertools.product(range(modulus), repeat=k)
    }
    assert positional == {res: hist[res] for res in positional}
    assert sum(positional.values()) == q.count_almost_primes(table, x, k, None, mode)
    expected = _scan_signs(table, x, k, signs, mode, case["odd_only"])
    assert (
        q.count_sign_constrained(table, x, k, signs, mode, case["odd_only"])
        == expected
    )
    # sign counts need only the primes up to isqrt(x)
    short = q.build_spf_table(max(math.isqrt(x), 2))
    assert (
        q.count_sign_constrained(short, x, k, signs, mode, case["odd_only"])
        == expected
    )
    # the two ordered-tuple walks: run-length weights and the literal
    # character sum over every ordering
    assert q.ordered_tuple_count_via_characters(
        table, x, k, constraint
    ) == pytest.approx(q.ordered_tuple_count(table, x, k, constraint), abs=1e-6)


def test_prime_count_at_ten_to_the_ten(table):
    # pi(10^10) from the primes up to 10^5 = isqrt(10^10)
    assert q.count_almost_primes(table, 10**10, 1) == 455052511


def test_prime_counts_over_the_work_budget_raise():
    # r * isqrt(r) = 10^6 * 10^3 updates, r = isqrt(10^12), over 10^8
    with pytest.raises(ValueError, match="exceeds the budget"):
        q.count_almost_primes(q.build_spf_table(10**6), 10**12, 1)
