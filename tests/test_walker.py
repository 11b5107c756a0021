"""Differential property test on random small inputs: every count built on
the prime-tuple walker against a factorize-and-filter scan, and the two
ordered-tuple walks against each other."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcdensity as q
from qcdensity import CountMode, ResidueConstraint, SignConstraint

from test_almostprime import _scan_count, _scan_positional
from test_density import _scan_signs


def _units(modulus):
    return [u for u in range(modulus) if math.gcd(u, modulus) == 1]


@st.composite
def _cases(draw):
    k = draw(st.integers(1, 3))
    modulus = draw(st.integers(1, 12))
    units = _units(modulus)
    residues = tuple(draw(st.sampled_from(units)) for _ in range(k))
    d = draw(st.integers(-30, 30).filter(lambda d: d != 0))
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
    residues, modulus = constraint.residues, constraint.modulus

    assert q.count_almost_primes(table, x, k, constraint, mode) == _scan_count(
        table, x, k, constraint, mode
    )
    assert q.count_almost_primes_positional(
        table, x, k, residues, modulus, mode
    ) == _scan_positional(table, x, k, residues, modulus, mode)
    assert q.count_sign_constrained(
        table, x, k, signs, mode, case["odd_only"]
    ) == _scan_signs(table, x, k, signs, mode, case["odd_only"])
    # the two ordered-tuple walks: run-length weights and the literal
    # character sum over every ordering
    assert q.ordered_tuple_count_via_characters(
        table, x, k, constraint
    ) == pytest.approx(q.ordered_tuple_count(table, x, k, constraint), abs=1e-6)
