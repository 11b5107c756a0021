"""Differential property test on random small inputs: every count built on
the recorded prime-tuple walk against a factorize-and-filter scan
(positional counts for every residue tuple, and every entry of the residue
and sign count tables), the prime-count oracle against
the class index, and the two ordered-tuple routes against each other. Then
the coverage rule at every public counting entry point."""

import collections
import dataclasses
import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcdensity as q
from qcdensity import (
    CountMode,
    ResidueConstraint,
    SignConstraint,
    almostprime,
    density,
    sieve,
)

from test_almostprime import _positional_histogram, _scan_count, _scan_positional
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
    # the two ordered-tuple routes: run-length weights and the literal
    # character sum over every ordering
    assert q.ordered_tuple_count_via_characters(
        table, x, k, constraint
    ) == pytest.approx(q.ordered_tuple_count(table, x, k, constraint), abs=1e-6)


def _label_histogram(table, x, k, mode, label):
    """How many n <= x with k prime factors have each tuple of labels of
    their sorted primes (with multiplicity in that mode)."""
    hist = collections.Counter()
    for n in range(2, x + 1):
        factors = q.factorize(table, n).factors
        if mode is CountMode.SQUAREFREE:
            if len(factors) != k or any(e > 1 for _, e in factors):
                continue
        elif sum(e for _, e in factors) != k:
            continue
        hist[tuple(label(p) for p, e in factors for _ in range(e))] += 1
    return hist


def _check_count_table(counts, oracle, hist):
    """Every entry of a count table (leading labels, last label) equals the
    scan, and every scanned tuple whose last label has a column is one."""
    for leading, row in counts.items():
        for label, column in oracle.columns.items():
            assert row[column] == hist[(*leading, label)], (leading, label)
    for labels, n in hist.items():
        if labels[-1] in oracle.columns:
            assert almostprime._lookup(counts, oracle, labels) == n, labels


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(1, 3000),
    k=st.integers(1, 3),
    modulus=st.sampled_from((1, 3, 4, 5, 8, 12, 20, 24)),
    mode=st.sampled_from(list(CountMode)),
    d=st.sampled_from((5, -3, 13, -4, 8, 12, -20, 45)),
    odd_only=st.booleans(),
)
def test_count_tables_match_scans(table, x, k, modulus, mode, d, odd_only):
    """The positional and the multiset residue count tables mod N, and the
    sign count table for D, against a factorization scan; the entries of
    each residue table, non-unit classes included, add up to the
    unconstrained count."""
    strict = mode is CountMode.SQUAREFREE
    oracle = sieve._class_oracle(table, x, modulus)
    hist = _label_histogram(table, x, k, mode, lambda p: p % modulus)
    # the multiset table is keyed by the sorted leading residues
    multiset_hist = collections.Counter()
    for labels, n in hist.items():
        multiset_hist[(*sorted(labels[:-1]), labels[-1])] += n
    for counts, expected in (
        (almostprime._residue_counts(table, x, k, modulus, strict), hist),
        (almostprime._multiset_counts(table, x, k, modulus, strict), multiset_hist),
    ):
        _check_count_table(counts, oracle, expected)
        total = sum(int(row.sum()) for row in counts.values())
        assert total == sum(hist.values())
        assert total == q.count_almost_primes(table, x, k, None, mode)

    counts = density._sign_counts(table, x, k, d, odd_only, strict)
    oracle = density._sign_oracle(table, x, d, odd_only)
    hist = _label_histogram(
        table, x, k, mode, lambda p: 0 if odd_only and p == 2 else q.kronecker(d, p)
    )
    _check_count_table(counts, oracle, hist)


def test_prime_count_at_ten_to_the_ten(table):
    # pi(10^10) from the primes up to 10^5 = isqrt(10^10)
    assert q.count_almost_primes(table, 10**10, 1) == 455052511


def test_prime_counts_over_the_work_budget_raise():
    # r * isqrt(r) = 10^6 * 10^3 updates, r = isqrt(10^12), over 10^8
    with pytest.raises(ValueError, match="exceeds the budget"):
        q.count_almost_primes(q.build_spf_table(10**6), 10**12, 1)


def test_the_walk_refuses_a_table_short_of_its_leading_primes():
    # 31 = isqrt(1000) leads the tuples (2, 31) and (31, 31) at k = 2
    short = q.build_spf_table(30)
    with pytest.raises(ValueError, match="exceeds table limit"):
        almostprime._tuple_rows(short, 1000, 2, False)
    assert short.memo == {}
    assert almostprime._tuple_rows(q.build_spf_table(31), 1000, 2, False)[0].max() == 31


def _recursive_rows(table, x, k, strict):
    """The walk as a recursive descent, one call per row, recorded in array
    buffers: the reference for _tuple_rows."""
    top = math.isqrt(x >> (k - 2)) if k > 1 else 1
    primes = table.primes[: sieve.prime_count(table, top)].tolist()
    leading, los, his = array("i"), array("q"), array("q")
    path = []
    skip = int(strict)

    def descend(budget, depth, lo_idx, lo_val):
        if depth == 1:
            leading.extend(path)
            los.append(lo_val)
            his.append(budget)
            return
        for i in range(lo_idx, len(primes)):
            p = primes[i]
            if p**depth > budget:
                break
            path.append(p)
            descend(budget // p, depth - 1, i + skip, p - 1 + skip)
            path.pop()

    descend(x, k, 0, 1)
    lo, hi = np.frombuffer(los, dtype=np.int64), np.frombuffer(his, dtype=np.int64)
    return np.frombuffer(leading, dtype=np.int32).reshape(len(lo), k - 1), lo, hi


def _check_rows(rows, expected):
    for got, want in zip(rows, expected, strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 10**5), k=st.integers(1, 4), strict=st.booleans())
def test_the_walk_matches_the_recursive_descent(table, x, k, strict):
    """Rows equal in value, enumeration order, shape and dtype, on a table
    exactly at the walk's need and on a larger one."""
    need = math.isqrt(x >> (k - 2)) if k > 1 else 1
    expected = _recursive_rows(table, x, k, strict)
    _check_rows(almostprime._tuple_rows(table, x, k, strict), expected)
    at_need = q.build_spf_table(max(need, 2))
    _check_rows(almostprime._tuple_rows(at_need, x, k, strict), expected)


@pytest.mark.parametrize("strict", [False, True])
def test_the_walk_matches_the_recursive_descent_at_ten_to_the_ten(table, strict):
    # about 6 * 10^5 rows; p^4 <= 10^10 bounds the first prime by 316
    rows = almostprime._tuple_rows.__wrapped__(table, 10**10, 4, strict)
    _check_rows(rows, _recursive_rows(table, 10**10, 4, strict))


def test_an_empty_frontier_ends_the_walk(table, monkeypatch):
    # no prime p has p^1000 <= 1000: the first position has no children
    assert q.count_almost_primes(table, 1000, 1000) == 0
    leading, lo, hi = almostprime._tuple_rows(table, 1000, 1000, True)
    assert leading.shape == (0, 999) and lo.shape == hi.shape == (0,)
    # the walk stops when no row has a child: strict at k = 9, only 2 has
    # p^9 <= 1000 and no prime past 2 has p^8 <= 500, so two of the eight
    # expansions (np.column_stack) run, the second with no rows; from k =
    # 10 = (1000).bit_length() on, none runs and no power with k bits is
    # built (2^(10^11) would not return)
    passes = []
    column_stack = np.column_stack

    def counted(arrays):
        passes.append(len(arrays[0]))
        return column_stack(arrays)

    monkeypatch.setattr(np, "column_stack", counted)
    for k, strict, expected in ((9, True, [1, 0]), (10, False, []), (10**11, False, [])):
        passes.clear()
        leading, lo, hi = almostprime._tuple_rows.__wrapped__(table, 1000, k, strict)
        assert leading.shape == (0, k - 1) and lo.shape == hi.shape == (0,)
        assert lo.dtype == hi.dtype == np.int64 and leading.dtype == np.int32
        assert passes == expected
    assert q.count_almost_primes(table, 1000, 10**11) == 0


def _scan_ordered(table, x, k, constraint):
    """(ordered count, sum of log n, sum of 1/n) over the ordered prime
    tuples with product <= x matching the constraint, from the factorization
    of every n <= x: each n counts once per distinct ordering of its primes."""
    count, logs, recips = 0, 0.0, 0.0
    for n in range(2, x + 1):
        slots = [p for p, e in q.factorize(table, n).factors for _ in range(e)]
        residues = sorted(p % constraint.modulus for p in slots)
        if len(slots) != k or tuple(residues) != constraint.multiset():
            continue
        orderings = len(set(itertools.permutations(slots)))
        count += orderings
        logs += orderings * math.log(n)
        recips += orderings / n
    return count, logs, recips


_X = 1000
_SQUAREFREE = CountMode.SQUAREFREE
_RESIDUES = (3, 1, 3)


def _classes(k):
    return ResidueConstraint(4, _RESIDUES[:k])


def _signs(k):
    return SignConstraint(5, (-1, 1, -1)[:k])


def _oracle_need(x, k):
    return math.isqrt(x)


def _reduced_level_need(x, k):
    return almostprime._coverage_need(x, max(k - 1, 1))


# entry point: (the table limit it needs, its value, the scan's value)
_ENTRY_POINTS = {
    "unconstrained": (
        _oracle_need,
        lambda t, k: q.count_almost_primes(t, _X, k),
        lambda t, k: _scan_count(t, _X, k, ResidueConstraint(1, (0,) * k), _SQUAREFREE),
    ),
    "classes": (
        _oracle_need,
        lambda t, k: q.count_almost_primes(t, _X, k, _classes(k)),
        lambda t, k: _scan_count(t, _X, k, _classes(k), _SQUAREFREE),
    ),
    "positional": (
        _oracle_need,
        lambda t, k: q.count_almost_primes_positional(t, _X, k, _RESIDUES[:k], 4),
        lambda t, k: _scan_positional(t, _X, k, _RESIDUES[:k], 4, _SQUAREFREE),
    ),
    "ordered": (
        almostprime._coverage_need,
        lambda t, k: q.ordered_tuple_count(t, _X, k, _classes(k)),
        lambda t, k: _scan_ordered(t, _X, k, _classes(k))[0],
    ),
    "characters": (
        almostprime._coverage_need,
        lambda t, k: round(
            q.ordered_tuple_count_via_characters(t, _X, k, _classes(k)), 6
        ),
        lambda t, k: _scan_ordered(t, _X, k, _classes(k))[0],
    ),
    "tuple_sums": (
        _reduced_level_need,
        lambda t, k: pytest.approx(
            dataclasses.astuple(q.tuple_sums(t, _X, k, _classes(k)))[:3], rel=1e-9
        ),
        lambda t, k: _scan_ordered(t, _X, k, _classes(k)),
    ),
    "signs": (
        _oracle_need,
        lambda t, k: q.count_sign_constrained(t, _X, k, _signs(k)),
        lambda t, k: _scan_signs(t, _X, k, _signs(k), _SQUAREFREE),
    ),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_keeps_the_coverage_rule(table, entry, k):
    """A table one entry short of the need is refused before any walk is
    memoised; a table exactly at the need gives the scan's value."""
    need_of, value, scan = _ENTRY_POINTS[entry]
    need = need_of(_X, k)
    short = q.build_spf_table(need - 1)
    with pytest.raises(ValueError, match="too small"):
        value(short, k)
    assert [args for fn, args in short.memo if fn.__name__ == "_tuple_rows"] == []
    assert value(q.build_spf_table(need), k) == scan(table, k)
