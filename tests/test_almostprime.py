"""Almost-prime counting under residue constraints, tuple sums, recursions.

Every counter is checked against a direct factorize-and-filter scan, so the
fast enumeration and the scan must agree number by number.
"""

import collections
import gc
import itertools
import math
import weakref

import pytest

import qcdensity as q
from qcdensity import CountMode, ResidueConstraint, almostprime, sieve


def _scan_count(table, x, k, constraint, mode):
    want = sorted(r % constraint.modulus for r in constraint.residues)
    hits = 0
    for n in range(2, x + 1):
        factors = q.factorize(table, n).factors
        if mode is CountMode.SQUAREFREE:
            if len(factors) != k or any(e > 1 for _, e in factors):
                continue
            sig = sorted(p % constraint.modulus for p, _ in factors)
        else:
            if sum(e for _, e in factors) != k:
                continue
            sig = sorted(p % constraint.modulus for p, e in factors for _ in range(e))
        hits += sig == want
    return hits


def _positional_histogram(table, x, k, modulus, mode):
    """How many n <= x with k prime factors have each tuple of residues mod
    modulus, the i-th entry the residue of the i-th smallest prime."""
    hist = collections.Counter()
    for n in range(2, x + 1):
        factors = q.factorize(table, n).factors
        if mode is CountMode.SQUAREFREE:
            if len(factors) != k or any(e > 1 for _, e in factors):
                continue
            slots = [p for p, _ in factors]
        else:
            if sum(e for _, e in factors) != k:
                continue
            slots = [p for p, e in factors for _ in range(e)]
        hist[tuple(p % modulus for p in slots)] += 1
    return hist


def _scan_positional(table, x, k, residues, modulus, mode):
    return _positional_histogram(table, x, k, modulus, mode)[tuple(residues)]


_GRID = [
    (200, 1, ResidueConstraint(4, (1,))),
    (200, 1, ResidueConstraint(4, (3,))),
    (500, 2, ResidueConstraint(4, (1, 3))),
    (500, 2, ResidueConstraint(4, (3, 3))),
    (500, 2, ResidueConstraint(5, (2, 3))),
    (500, 2, ResidueConstraint(1, (1, 1))),
    (300, 3, ResidueConstraint(4, (1, 3, 3))),
    (300, 3, ResidueConstraint(3, (1, 1, 2))),
]


@pytest.mark.parametrize("x,k,constraint", _GRID)
@pytest.mark.parametrize("mode", list(CountMode))
def test_count_matches_scan(table, x, k, constraint, mode):
    expected = _scan_count(table, x, k, constraint, mode)
    assert q.count_almost_primes(table, x, k, constraint, mode) == expected


def test_count_frozen_examples(table):
    assert q.count_almost_primes(table, 50, 2, ResidueConstraint(4, (1, 3))) == 3
    assert q.count_almost_primes(table, 50, 2, ResidueConstraint(4, (3, 3))) == 2
    assert q.count_almost_primes(table, 50, 2, ResidueConstraint(4, (1, 1))) == 0
    assert (
        q.count_almost_primes(
            table, 50, 2, ResidueConstraint(4, (3, 3)), CountMode.WITH_MULTIPLICITY
        )
        == 4
    )


@pytest.mark.parametrize("residues,expected", [((1, 9), 0), ((3, 7), 8)])
def test_positional_frozen_examples(table, residues, expected):
    assert q.count_almost_primes_positional(table, 1000, 2, residues, 20) == expected


@pytest.mark.parametrize("mode", list(CountMode))
def test_positional_matches_scan(table, mode):
    for residues in itertools.product((1, 2, 3, 4), repeat=2):
        expected = _scan_positional(table, 500, 2, residues, 5, mode)
        got = q.count_almost_primes_positional(table, 500, 2, residues, 5, mode)
        assert got == expected, residues


def test_positional_rejects_modulus_below_one(table):
    with pytest.raises(ValueError, match="modulus"):
        q.count_almost_primes_positional(table, 100, 1, (1,), 0)


def test_positional_with_multiplicity_example(table):
    # 9, 21, 33, 49, 57, 69, 77, 93
    got = q.count_almost_primes_positional(
        table, 100, 2, (3, 3), 4, CountMode.WITH_MULTIPLICITY
    )
    assert got == 8


def test_residue_constraint_validation():
    with pytest.raises(ValueError):
        ResidueConstraint(4, (2,))
    with pytest.raises(ValueError):
        ResidueConstraint(0, (1,))
    with pytest.raises(ValueError):
        ResidueConstraint(4, ())


def _matches_some_arrangement(combo, constraint):
    return any(
        all(p % constraint.modulus == r for p, r in zip(combo, arrangement))
        for arrangement in set(itertools.permutations(constraint.residues))
    )


def _scan_ordered_direct(table, x, k, constraint):
    """Plain nested loop over prime tuples; slow but unambiguous."""
    primes = [p for p in table.primes_list if p <= x]
    hits = 0
    for combo in itertools.product(primes, repeat=k):
        if math.prod(combo) > x:
            continue
        hits += _matches_some_arrangement(combo, constraint)
    return hits


@pytest.mark.parametrize("x,k,constraint", [
    (50, 2, ResidueConstraint(4, (1, 3))),
    (50, 2, ResidueConstraint(4, (3, 3))),
    (100, 2, ResidueConstraint(5, (2, 3))),
    (60, 3, ResidueConstraint(4, (1, 3, 3))),
])
def test_ordered_count_matches_nested_loops(table, x, k, constraint):
    expected = _scan_ordered_direct(table, x, k, constraint)
    assert q.ordered_tuple_count(table, x, k, constraint) == expected


def test_ordered_count_frozen_examples(table):
    assert q.ordered_tuple_count(table, 50, 2, ResidueConstraint(4, (1, 3))) == 6
    assert q.ordered_tuple_count(table, 50, 2, ResidueConstraint(4, (3, 3))) == 6


def test_distinct_permutation_count():
    assert q.distinct_permutation_count(ResidueConstraint(4, (1, 3))) == 2
    assert q.distinct_permutation_count(ResidueConstraint(4, (3, 3))) == 1
    assert q.distinct_permutation_count(ResidueConstraint(5, (1, 2, 2))) == 3
    assert q.distinct_permutation_count(ResidueConstraint(5, (1, 2, 3))) == 6


def test_tuple_sums_single_matching_prime(table):
    """At x = 10 the only prime that is 1 mod 4 is 5."""
    sums = q.tuple_sums(table, 10, 1, ResidueConstraint(4, (1,)))
    assert sums.ordered_count == 1
    assert sums.arrangement_count == 1
    assert math.isclose(sums.log_sum, math.log(5), rel_tol=1e-12)
    assert sums.reciprocal_sum == pytest.approx(0.2, rel=1e-12)
    assert math.isclose(sums.error_term, 2 * math.log(5) - 10, rel_tol=1e-12)


def test_tuple_sums_match_bruteforce(table):
    x, k = 200, 2
    constraint = ResidueConstraint(4, (1, 3))
    primes = [p for p in table.primes_list if p <= x]
    logs = recips = 0.0
    count = 0
    for combo in itertools.product(primes, repeat=k):
        if math.prod(combo) > x:
            continue
        if not _matches_some_arrangement(combo, constraint):
            continue
        count += 1
        logs += sum(math.log(p) for p in combo)
        recips += 1 / math.prod(combo)
    sums = q.tuple_sums(table, x, k, constraint)
    assert sums.ordered_count == count
    assert sums.arrangement_count == 2
    assert math.isclose(sums.log_sum, logs, rel_tol=1e-9)
    assert math.isclose(sums.reciprocal_sum, recips, rel_tol=1e-9)


def test_tuple_sums_require_coverage_of_the_reduced_level():
    """The error term reads level-(k-1) reciprocal sums, whose last position
    reaches x / 2^(k-2); a table that covers only level k must refuse."""
    constraint = ResidueConstraint(4, (1, 3))
    with pytest.raises(ValueError, match="too small"):
        q.tuple_sums(q.build_spf_table(500), 1000, 2, constraint)
    sums = q.tuple_sums(q.build_spf_table(2000), 1000, 2, constraint)
    assert sums.error_term == pytest.approx(-2152.6, abs=0.05)


def test_memoized_counts_do_not_keep_the_table_alive():
    table = q.build_spf_table(1000)
    constraint = ResidueConstraint(4, (1, 3))
    assert q.count_almost_primes(table, 1000, 2) > 0
    assert q.tuple_sums(table, 1000, 2, constraint).ordered_count > 0
    assert q.count_almost_primes_positional(table, 1000, 2, (1, 3), 4) > 0
    assert q.count_sign_constrained(table, 1000, 2, q.SignConstraint(5, (-1, -1))) > 0
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("x,k,constraint,expected", [
    (50, 2, ResidueConstraint(4, (1, 3)), 6),
    (100, 1, ResidueConstraint(3, (2,)), 13),
    (30, 2, ResidueConstraint(1, (1, 1)), 17),
])
def test_character_route_frozen_examples(table, x, k, constraint, expected):
    got = q.ordered_tuple_count_via_characters(table, x, k, constraint)
    assert got == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("modulus", [1, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("x", [100, 300])
def test_character_route_collapses_to_direct_count(table, modulus, k, x):
    units = [a for a in range(modulus) if math.gcd(a, modulus) == 1] or [0]
    for residues in itertools.combinations_with_replacement(units, k):
        constraint = ResidueConstraint(modulus, residues)
        direct = q.ordered_tuple_count(table, x, k, constraint)
        via = q.ordered_tuple_count_via_characters(table, x, k, constraint)
        assert via == pytest.approx(direct, abs=1e-6), residues


@pytest.mark.parametrize("identity", ["log_sum", "reciprocal_sum", "error_term"])
@pytest.mark.parametrize("modulus", [4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_recursion_residuals_vanish(table, identity, modulus, k):
    units = [a for a in range(modulus) if math.gcd(a, modulus) == 1]
    size = k if identity == "reciprocal_sum" else k + 1
    for residues in itertools.combinations_with_replacement(units, size):
        constraint = ResidueConstraint(modulus, residues)
        for x in (100, 1000):
            residual = q.recursion_residual(table, identity, x, k, constraint)
            assert residual < 1e-9, (identity, residues, x)


def _error_term(table, x, k, constraint):
    """f_k at x spelled out from tuple_sums' log and reciprocal sums:
    phi^k log_sum - x k phi^(k-1) reduced, where reduced adds the level-(k-1)
    reciprocal sums of the multiset less each distinct class, left to right
    in ascending class, and is 1.0 at k = 1."""
    n_mod = constraint.modulus
    phi = q.euler_phi(n_mod)
    ms = constraint.multiset()
    reduced = 1.0
    if k > 1:
        reduced = 0.0
        for v in sorted(set(ms)):
            rest = list(ms)
            rest.remove(v)
            child = ResidueConstraint(n_mod, tuple(rest))
            reduced += q.tuple_sums(table, x, k - 1, child).reciprocal_sum
    log_sum = q.tuple_sums(table, x, k, constraint).log_sum
    return phi**k * log_sum - x * k * phi ** (k - 1) * reduced


def _reference_residual(table, identity, x, k, constraint):
    """recursion_residual as public tuple_sums calls per prime p <= x, with
    the error term spelled out (_error_term)."""
    n_mod = constraint.modulus
    phi = q.euler_phi(n_mod)
    ms = constraint.multiset()
    if identity == "log_sum":
        lhs = k * q.tuple_sums(table, x, k + 1, constraint).log_sum
    elif identity == "reciprocal_sum":
        lhs = q.tuple_sums(table, x, k, constraint).reciprocal_sum
    else:
        lhs = k * _error_term(table, x, k + 1, constraint)
    rhs = 0.0
    for p in table.primes_list[: q.prime_count(table, math.floor(x))]:
        if p % n_mod not in ms:
            continue
        reduced = list(ms)
        reduced.remove(p % n_mod)
        child = ResidueConstraint(n_mod, tuple(reduced)) if reduced else None
        if identity == "log_sum":
            rhs += q.tuple_sums(table, x / p, k, child).log_sum
        elif identity == "reciprocal_sum":
            inner = 1.0
            if k > 1:
                inner = q.tuple_sums(table, x / p, k - 1, child).reciprocal_sum
            rhs += inner / p
        else:
            rhs += _error_term(table, x / p, k, child)
    if identity == "log_sum":
        rhs *= k + 1
    elif identity == "error_term":
        rhs *= (k + 1) * phi
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@pytest.mark.parametrize("identity", ["log_sum", "reciprocal_sum", "error_term"])
@pytest.mark.parametrize("modulus", [4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_recursion_residual_is_bitwise_the_per_prime_tuple_sums(
    table, identity, modulus, k
):
    """The residual adds the same floats in the same order as one tuple_sums
    per prime would; the non-integer x keeps x/p exact in the error term. At
    k <= 2 every factor k * phi^(k-1) is a power of two, so regrouping the
    error term's product changes no bit there; at k = 3 it does."""
    units = [a for a in range(modulus) if math.gcd(a, modulus) == 1]
    size = k if identity == "reciprocal_sum" else k + 1
    for residues in itertools.combinations_with_replacement(units, size):
        constraint = ResidueConstraint(modulus, residues)
        for x in (100, 1000, 1000.5, 10**4):
            got = q.recursion_residual(table, identity, x, k, constraint)
            want = _reference_residual(table, identity, x, k, constraint)
            assert got == want, (residues, x)


def test_error_term_adds_the_reduced_sums_in_ascending_class(table):
    """The error term's level-(k-1) reciprocal sums, one per distinct class
    taken out of the multiset, add left to right in ascending class: with
    three or more terms float addition depends on that order, and verify
    prints what it gives."""
    modulus = 5
    for k, x in itertools.product((3, 4), (1000, 10**4)):
        for residues in itertools.combinations_with_replacement(range(1, modulus), k):
            reduced = 0.0
            for v in sorted(set(residues)):
                rest = list(residues)
                rest.remove(v)
                child = ResidueConstraint(modulus, tuple(rest))
                reduced += q.tuple_sums(table, x, k - 1, child).reciprocal_sum
            sums = q.tuple_sums(table, x, k, ResidueConstraint(modulus, residues))
            want = 4**k * sums.log_sum - x * k * 4 ** (k - 1) * reduced
            assert sums.error_term == want, (residues, x)


# _ClassIndex.stats calls of one lone public call on a fresh table, at
# N = 1009, x = 10^4 and the classes of the smallest primes, counted before
# the recursion grids were batched: a pass over every class would make
# about phi(1009) = 1008 of them per row
LONE_CALL_STATS = {
    ("ordered_tuple_count", 2): 2,
    ("tuple_sums", 2): 4,
    ("log_sum", 2): 15,
    ("reciprocal_sum", 2): 6,
    ("error_term", 2): 21,
    ("ordered_tuple_count", 3): 3,
    ("tuple_sums", 3): 9,
    ("log_sum", 3): 28,
    ("reciprocal_sum", 3): 15,
    ("error_term", 3): 52,
}


@pytest.mark.parametrize("call,k", sorted(LONE_CALL_STATS))
def test_lone_calls_read_no_more_class_ranges(monkeypatch, call, k):
    """A lone call's work does not grow with phi(N): it reads no more class
    ranges than it did before the batching, whose shared row data is built
    per (x, k, N), not per class."""
    calls = []
    stats = sieve._ClassIndex.stats

    def counted(self, label, lo, hi):
        calls.append(label)
        return stats(self, label, lo, hi)

    monkeypatch.setattr(sieve._ClassIndex, "stats", counted)
    table = q.build_spf_table(10**4)
    classes = (2, 3, 5, 7)
    if call in ("ordered_tuple_count", "tuple_sums"):
        getattr(q, call)(table, 10**4, k, ResidueConstraint(1009, classes[:k]))
    else:
        size = k if call == "reciprocal_sum" else k + 1
        constraint = ResidueConstraint(1009, classes[:size])
        q.recursion_residual(table, call, 10**4, k, constraint)
    assert 0 < len(calls) <= LONE_CALL_STATS[call, k]


def test_multiset_counts_and_ordered_sums_share_one_grouping(monkeypatch):
    """The multiset counts and the ordered sums at the same (x, k, N) read
    one grouping of the sorted leading residues: the rows are grouped once."""
    calls = []
    runs = almostprime._runs

    def counted(keys):
        calls.append(keys.shape)
        return runs(keys)

    monkeypatch.setattr(almostprime, "_runs", counted)
    table = q.build_spf_table(10**4)
    constraint = ResidueConstraint(4, (1, 3, 3))
    q.count_almost_primes(table, 1000, 3, constraint, CountMode.WITH_MULTIPLICITY)
    q.ordered_tuple_count(table, 1000, 3, constraint)
    assert len(calls) == 1


def _ordered_multiset_sums(primes, x, k):
    """(count, sum of log n, sum of 1/n) over the ordered k-tuples of primes
    with product n <= x: a recursive enumeration of the prime multisets,
    each weighted by its number of distinct orderings."""
    count, log_sum, recip_sum = 0, 0.0, 0.0

    def extend(start, chosen, n):
        nonlocal count, log_sum, recip_sum
        if len(chosen) == k:
            weight = math.factorial(k)
            for p in set(chosen):
                weight //= math.factorial(chosen.count(p))
            count += weight
            log_sum += weight * math.log(n)
            recip_sum += weight / n
            return
        for i in range(start, len(primes)):
            if n * primes[i] ** (k - len(chosen)) > x:
                break
            extend(i, chosen + [primes[i]], n * primes[i])

    extend(0, [], 1)
    return count, log_sum, recip_sum


@pytest.mark.parametrize("k,expected", [(20, 10646), (21, 12671), (22, 14972), (23, 17573)])
def test_ordered_sums_past_two_to_the_sixty_four(k, expected):
    """The weights k! / prod(run length!) stay exact up to and past
    k! = 2^64 (20! < 2^64 < 21!): the ordered count, and the log and
    reciprocal sums, match a recursive enumeration of the prime multisets."""
    table = q.build_spf_table(100)
    x = 15 * 2 ** (k - 1)
    constraint = ResidueConstraint(1, (0,) * k)
    count, log_sum, recip_sum = _ordered_multiset_sums(table.primes_list, x, k)
    assert count == expected
    assert q.ordered_tuple_count(table, x, k, constraint) == expected
    sums = q.tuple_sums(table, x, k, constraint)
    assert sums.ordered_count == expected
    assert math.isclose(sums.log_sum, log_sum)
    assert math.isclose(sums.reciprocal_sum, recip_sum)


def test_recursion_requires_known_identity(table):
    with pytest.raises(ValueError):
        q.recursion_residual(table, "nope", 100, 1, ResidueConstraint(4, (1, 3)))


def test_recursion_checks_constraint_size(table):
    with pytest.raises(ValueError):
        q.recursion_residual(table, "log_sum", 100, 1, ResidueConstraint(4, (1,)))
    with pytest.raises(ValueError):
        q.recursion_residual(table, "reciprocal_sum", 100, 1, ResidueConstraint(4, (1, 3)))


def test_scale_guards(table):
    constraint = ResidueConstraint(4, (1, 3))
    with pytest.raises(ValueError):
        q.ordered_tuple_count_via_characters(table, 2001, 2, constraint)
    with pytest.raises(ValueError):
        q.recursion_residual(table, "log_sum", 10**4 + 1, 1, constraint)
    with pytest.raises(ValueError):
        q.ordered_tuple_count_via_characters(
            table, 100, 4, ResidueConstraint(4, (1, 1, 3, 3))
        )


_ONE_CLASS, _TWO_CLASSES = ResidueConstraint(4, (1,)), ResidueConstraint(4, (1, 3))
_SIGN = q.SignConstraint(5, (1,))

# public call on a table -> the refusal it must raise before reading anything
_BAD_ARGUMENTS = {
    "count k < 1": (lambda t: q.count_almost_primes(t, 100, 0), "k must be"),
    "count x < 1": (lambda t: q.count_almost_primes(t, 0, 1), "x must be"),
    "count length": (lambda t: q.count_almost_primes(t, 100, 2, _ONE_CLASS), "length"),
    "positional length": (
        lambda t: q.count_almost_primes_positional(t, 100, 2, (1,), 4),
        "one residue per position",
    ),
    "positional x < 1": (
        lambda t: q.count_almost_primes_positional(t, 0, 1, (1,), 4),
        "x must be",
    ),
    "ordered length": (lambda t: q.ordered_tuple_count(t, 100, 2, _ONE_CLASS), "length"),
    "ordered x < 1": (lambda t: q.ordered_tuple_count(t, 0, 1, _ONE_CLASS), "x must be"),
    "signs length": (lambda t: q.count_sign_constrained(t, 100, 2, _SIGN), "length"),
    "signs x < 1": (lambda t: q.count_sign_constrained(t, 0, 1, _SIGN), "x must be"),
    "tuple_sums length": (lambda t: q.tuple_sums(t, 100, 2, _ONE_CLASS), "length"),
    "tuple_sums x < 0": (lambda t: q.tuple_sums(t, -0.5, 1, _ONE_CLASS), "x must be"),
    "characters length": (
        lambda t: q.ordered_tuple_count_via_characters(t, 100, 1, _TWO_CLASSES),
        "length",
    ),
    "recursion k < 1": (
        lambda t: q.recursion_residual(t, "reciprocal_sum", 100, 0, _ONE_CLASS),
        "k must be",
    ),
    "recursion k > 3": (
        lambda t: q.recursion_residual(
            t, "reciprocal_sum", 100, 4, ResidueConstraint(4, (1, 1, 3, 3))
        ),
        "k must be",
    ),
    "trend x < 16": (lambda t: q.trend_ratios(t, 15, 1, _ONE_CLASS), "x must be"),
    "asymptotic modulus < 1": (
        lambda t: q.class_constrained_asymptotic(100, 1, 0),
        "modulus must be",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_public_calls_refuse_bad_arguments_before_any_work(case):
    call, message = _BAD_ARGUMENTS[case]
    fresh = q.build_spf_table(100)
    with pytest.raises(ValueError, match=message):
        call(fresh)
    assert fresh.memo == {}


def test_ordered_count_sandwiched_by_set_counts(table):
    """k! * squarefree <= ordered <= k! * with-multiplicity, per multiset."""
    x, k = 500, 2
    for residues in itertools.combinations_with_replacement((1, 3), k):
        constraint = ResidueConstraint(4, residues)
        kf = math.factorial(k)
        sf = q.count_almost_primes(table, x, k, constraint)
        wm = q.count_almost_primes(table, x, k, constraint, CountMode.WITH_MULTIPLICITY)
        ordered = q.ordered_tuple_count(table, x, k, constraint)
        assert kf * sf <= ordered <= kf * wm
        if len(set(residues)) == k:
            # distinct residues force distinct primes, so both ends collapse
            assert kf * sf == ordered == kf * wm


def test_multiset_counts_partition_odd_semiprimes(table):
    """Summing over all residue multisets recovers the unconstrained count."""
    x, k = 2000, 2
    total = sum(
        q.count_almost_primes(table, x, k, ResidueConstraint(4, residues))
        for residues in itertools.combinations_with_replacement((1, 3), k)
    )
    everything = q.count_almost_primes(table, x, k, ResidueConstraint(1, (1, 1)))
    evens = q.prime_count(table, x // 2) - 1
    assert total == everything - evens


def test_mod_four_multisets_add_up_at_ten_to_the_ten():
    """At x = 10^10, on a table to isqrt(x) only: the squarefree semiprimes
    are the 2 q with q an odd prime up to x / 2, and the products of two
    odd primes, each 1 or 3 mod 4."""
    x = 10**10
    table = q.build_spf_table(math.isqrt(x))
    multisets = [
        q.count_almost_primes(table, x, 2, ResidueConstraint(4, residues))
        for residues in ((1, 1), (1, 3), (3, 3))
    ]
    assert multisets[1] == 629404051
    evens = q.count_almost_primes(table, x // 2, 1) - 1
    assert sum(multisets) + evens == q.count_almost_primes(table, x, 2)
