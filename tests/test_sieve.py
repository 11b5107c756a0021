"""Smallest-prime-factor table, factorization, and the binary cache."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcdensity as q
from qcdensity import residues, sieve


def _smallest_factor(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(2, limit + 1) if flags[i]]


def test_spf_matches_trial_division(small_table):
    for n in range(2, 2001):
        assert int(small_table.spf[n]) == _smallest_factor(n), n


def test_prime_list_matches_bruteforce_sieve(small_table):
    assert small_table.primes_list == _sieve(10**4)


def _masked_sieve(limit):
    """The sieve in its plainest numpy form: each prime's pass, smallest
    first, fills only the entries still 0, and the primes are the entries
    left at 0."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    n = np.arange(limit + 1, dtype=np.uint32)
    primes = (spf == 0) & (n >= 2)
    spf[primes] = n[primes]
    return spf


def _check_primes(table):
    primes = table.primes
    assert primes.dtype == np.int64
    assert (np.diff(primes) > 0).all()
    n = np.arange(2, table.limit + 1)
    assert np.array_equal(primes, n[table.spf[2:] == n])


def test_table_at_every_small_limit_matches_trial_division():
    expected = [0, 0] + [_smallest_factor(n) for n in range(2, 2001)]
    for limit in range(2, 2001):
        table = q.build_spf_table(limit)
        assert table.spf.dtype == np.uint32
        assert table.spf.tolist() == expected[: limit + 1], limit
        _check_primes(table)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2 * 10**5))
def test_table_matches_the_masked_sieve(limit):
    table = q.build_spf_table(limit)
    assert np.array_equal(table.spf, _masked_sieve(limit))
    _check_primes(table)


def test_build_makes_no_full_length_temporary():
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = q.build_spf_table(5 * 10**6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    # the table holds 21.7 MiB; a full-length uint32 temporary is 19 MiB
    assert peak <= table.spf.nbytes + table.primes.nbytes + 3 * 2**20


def test_prime_count_frozen_values(table):
    assert q.prime_count(table, 100) == 25
    assert q.prime_count(table, 1000) == 168
    assert q.prime_count(table, 10**4) == 1229
    assert q.prime_count(table, 10**5) == 9592
    assert q.prime_count(table, 1) == 0
    assert q.prime_count(table, 2) == 1


def test_prime_count_rejects_out_of_range(small_table):
    with pytest.raises(ValueError):
        q.prime_count(small_table, 10**5)


@pytest.mark.parametrize("modulus", [3, 4, 5, 12])
def test_class_counts_match_bruteforce(small_table, modulus):
    x = 10**4
    primes = _sieve(x)
    for a in range(modulus):
        if math.gcd(a, modulus) != 1:
            continue
        expected = sum(1 for p in primes if p % modulus == a)
        assert q.prime_count_in_class(small_table, x, a, modulus) == expected


@pytest.mark.parametrize("modulus", [3, 4, 5, 8, 12])
def test_unit_classes_partition_the_primes(table, modulus):
    """Unit classes cover every prime except the divisors of the modulus."""
    x = 10**5
    covered = sum(
        q.prime_count_in_class(table, x, a, modulus)
        for a in range(modulus)
        if math.gcd(a, modulus) == 1
    )
    divisor_primes = sum(1 for p in q.prime_divisors(modulus) if p <= x)
    assert covered + divisor_primes == q.prime_count(table, x)


@settings(max_examples=300)
@given(st.integers(1, 10**5))
def test_factorize_roundtrip(table, n):
    fact = q.factorize(table, n)
    assert fact.n == n
    assert math.prod(p**e for p, e in fact.factors) == n
    primes = [p for p, _ in fact.factors]
    assert primes == sorted(set(primes))
    assert all(e >= 1 for _, e in fact.factors)
    assert all(int(table.spf[p]) == p for p in primes)


def test_factorize_bounds(small_table):
    assert q.factorize(small_table, 1).factors == ()
    with pytest.raises(ValueError):
        q.factorize(small_table, 0)
    with pytest.raises(ValueError):
        q.factorize(small_table, 10**4 + 1)


def test_cache_roundtrip(tmp_path):
    table = q.build_spf_table(5000)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    # 4-byte magic, 8-byte limit, one 4-byte entry per n in [2, limit]
    assert path.stat().st_size == 12 + 4 * (5000 - 1)
    loaded = q.load_spf_cache(str(path))
    assert loaded.limit == table.limit
    assert (loaded.spf == table.spf).all()
    assert loaded.primes_list == table.primes_list


def test_failed_cache_write_keeps_the_earlier_cache(tmp_path):
    path = tmp_path / "spf.bin"
    q.save_spf_cache(q.build_spf_table(500), str(path))
    before = path.read_bytes()

    class FailingSpf:
        # the header is written by then: the write fails midway
        def __getitem__(self, key):
            raise OSError("disk full")

    broken = SimpleNamespace(limit=1000, spf=FailingSpf())
    with pytest.raises(OSError):
        q.save_spf_cache(broken, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spf.bin"]


def test_cache_rejects_bad_magic(tmp_path):
    table = q.build_spf_table(500)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path))


def test_cache_rejects_truncation(tmp_path):
    table = q.build_spf_table(500)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:20])
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path))


def test_cache_rejects_an_over_long_payload(tmp_path):
    table = q.build_spf_table(500)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="payload length"):
        q.load_spf_cache(str(path))


def _corrupt_entry(path, n, value):
    # entry n sits after the 12-byte header, 4 bytes per n from 2
    raw = bytearray(path.read_bytes())
    raw[12 + 4 * (n - 2) : 12 + 4 * (n - 1)] = value.to_bytes(4, "little")
    path.write_bytes(bytes(raw))


def test_cache_content_checks(tmp_path):
    limit = 20000
    table = q.build_spf_table(limit)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    assert (q.load_spf_cache(str(path)).spf == table.spf).all()
    sampled = [int(n) for n in sieve._sample_points(limit)]
    assert len(sampled) > 4000 and sampled[0] == 2 and sampled[-1] == limit
    # a sampled n divisible by the square of its smallest prime factor
    composite = next(n for n in sampled if q.factorize(table, n).factors[0][1] > 1)
    prime = next(n for n in sampled if table.spf[n] == n)
    # a prime below 10^4 that only the pi(10^j) checks see
    unsampled = next(p for p in reversed(_sieve(10**4)) if p not in sampled)
    spf = int(table.spf[composite])
    for n, value in [
        (composite, spf ^ (1 << 30)),  # one flipped bit: no longer divides n
        (composite, 0),
        (composite, spf * spf),  # a divisor that is not a prime
        (prime, 1),
        (unsampled, 0),  # pi(10^4) = 1228
        (unsampled, 2),
    ]:
        q.save_spf_cache(table, str(path))
        _corrupt_entry(path, n, value)
        with pytest.raises(ValueError):
            q.load_spf_cache(str(path))


def test_cache_honors_entry_budget(tmp_path):
    table = q.build_spf_table(500)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path), max_entries=10)


def test_class_index_range_queries(table):
    idx = table.class_index(4)
    assert idx.stats(1, 0, 100)[0] == 11
    assert idx.stats(3, 0, 100)[0] == 13
    # half-open on the left: (lo, hi]
    assert idx.stats(1, 5, 5)[0] == 0
    assert idx.stats(1, 4, 5)[0] == 1
    primes = table.primes_list
    for a in (1, 3):
        expected = sum(1 for p in primes if p <= 10**4 and p % 4 == a)
        assert idx.stats(a, 0, 10**4)[0] == expected
        assert q.prime_count_in_class(table, 10**4, a, 4) == expected


@pytest.mark.parametrize("modulus", [1, 2, 97, 65537, 10**5])
def test_prime_count_in_class_matches_the_primes(table, modulus):
    # one bincount of the residues, at every size of modulus the CLI takes
    residues = table.primes % modulus
    for x in (1, 2, 1000, 65537, 10**5):
        upto = residues[table.primes <= x]
        for a in sorted({a % modulus for a in (0, 1, 2, -1, int(residues[-1]))}):
            expected = int(np.count_nonzero(upto == a))
            assert q.prime_count_in_class(table, x, a, modulus) == expected, (x, a)


def test_prime_count_in_class_refuses_bad_arguments(small_table):
    with pytest.raises(ValueError, match="too small"):
        q.prime_count_in_class(small_table, 10**4 + 1, 1, 4)
    for modulus in (0, 10**5 + 1):
        with pytest.raises(ValueError, match="class modulus"):
            q.prime_count_in_class(small_table, 100, 0, modulus)
    with pytest.raises(ValueError, match="class must satisfy"):
        q.prime_count_in_class(small_table, 100, 4, 4)


def test_class_index_stats_match_direct_sums(table):
    idx = table.class_index(4)
    primes = [p for p in _sieve(2000) if p % 4 == 1 and 100 < p <= 2000]
    count, log_sum, recip_sum = idx.stats(1, 100, 2000)
    assert count == len(primes)
    assert math.isclose(log_sum, sum(math.log(p) for p in primes), rel_tol=1e-12)
    assert math.isclose(recip_sum, sum(1 / p for p in primes), rel_tol=1e-12)


def _quotient_bounds(x):
    """Range bounds an oracle for x answers: every x // m, which includes
    every v <= isqrt(x), and so every prime up to it."""
    return np.array(sorted({x // m for m in range(1, x + 1)}), dtype=np.int64)


def _count_between(primes, lo, hi):
    """The primes p with lo[i] < p <= hi[i], summed over i."""
    upto_hi = np.searchsorted(primes, hi, side="right")
    return int((upto_hi - np.searchsorted(primes, lo, side="right")).sum())


@pytest.mark.parametrize("x", [1, 2, 3, 10, 97, 1000, 4099, 65536, 10**5])
def test_oracle_range_counts_match_the_class_index(table, x):
    oracle = sieve._PrimeCountOracle(x, [((None,), sieve._prime_count_grid(table, x))])
    column = oracle.columns[None]
    every = table.class_index(1)
    bounds = _quotient_bounds(x)
    r = math.isqrt(x)
    primes = [p for p in table.primes_list if p <= r]
    # lo == hi, lo = 1, the primes up to r, and both sides of r
    special = {1, r, x, *primes, *bounds[bounds <= r][-2:], *bounds[bounds > r][:2]}
    special = sorted(v for v in special if v >= 1)
    pairs = [(lo, hi) for lo in special for hi in special if lo <= hi]
    for lo, hi in pairs:
        lo_a, hi_a = np.array([lo]), np.array([hi])
        expected = every.stats(0, lo, hi)[0]
        assert oracle.count_ranges(lo_a, hi_a)[column] == expected, (lo, hi)
    # every pair of bounds in one query, against the table's primes
    lo_all, hi_all = np.meshgrid(bounds, bounds)
    keep = lo_all <= hi_all
    lo_all, hi_all = lo_all[keep], hi_all[keep]
    expected = _count_between(table.primes, lo_all, hi_all)
    assert oracle.count_ranges(lo_all, hi_all)[column] == expected
    empty = np.array([], dtype=np.int64)
    assert oracle.count_ranges(empty, empty)[column] == 0


# 97 is prime: at 97^3 its step is the last of the head, one below it the
# first of the batch of the primes above x^(1/3)
@pytest.mark.parametrize("x", [97**3 - 1, 97**3, 10**6 + 3, 3 * 10**6, 5 * 10**6])
@pytest.mark.parametrize("d", [1, 5, -4, 13])
def test_prime_sums_match_direct_sums_over_the_primes(big_table, x, d):
    # pi (d = 1) and the chi sums of density.py's sign oracle, at every grid
    # value, against the primes themselves; from 3 * 10^6 on, the batch of
    # the primes above x^(1/3) runs in more than one chunk
    f = np.ones(1, dtype=np.int64) if d == 1 else residues._unit_symbols(d)
    primes = big_table.primes
    grid = sieve._grid_values(x)
    values = np.concatenate(([0], np.cumsum(f[primes % len(f)])))
    expected = values[np.searchsorted(primes, grid, side="right")]
    got = sieve._prime_sums(x, primes[primes <= math.isqrt(x)], f)
    assert (got == expected).all()


# 2 and 6 have one and two unit classes, and a prime dividing them
_CLASS_MODULI = (1, 2, 3, 4, 5, 6, 8, 12, 20, 24)


def _check_class_oracle(table, x, modulus):
    """Every class a mod modulus (units, and the non-units that hold a
    prime dividing modulus or none) counts on the class oracle as the
    table's primes of that class number, at every grid value v >= 1, each
    the bound of one range (1, v]; the classes add up to pi."""
    oracle = sieve._class_oracle(table, x, modulus)
    residues = table.primes % modulus
    grid = sieve._grid_values(x)[1:]
    one = np.ones(1, dtype=np.int64)
    # one query per grid value, for every class's column at once
    upto = np.array([oracle.count_ranges(one, v * one) for v in grid.tolist()])
    total = np.zeros(len(grid), dtype=np.int64)
    for a in range(modulus):
        in_class = table.primes[residues == a]
        expected = np.searchsorted(in_class, grid, side="right").tolist()
        column = oracle.columns.get(a)
        got = [0] * len(grid) if column is None else upto[:, column].tolist()
        assert got == expected, (x, modulus, a)
        total += got
    assert (total == sieve._prime_count_grid(table, x)[1:]).all()


@settings(max_examples=40, deadline=None)
@given(x=st.integers(1, 10**6), modulus=st.sampled_from(_CLASS_MODULI))
def test_class_oracle_matches_the_primes_by_class(big_table, x, modulus):
    _check_class_oracle(big_table, x, modulus)


@pytest.mark.parametrize("modulus", _CLASS_MODULI)
def test_class_oracle_at_a_million(big_table, modulus):
    _check_class_oracle(big_table, 10**6, modulus)


def test_class_oracle_refuses_a_short_table_and_an_over_budget_modulus():
    with pytest.raises(ValueError, match="too small"):
        sieve._class_oracle(q.build_spf_table(99), 10**4, 20)
    # phi(99991) = 99990 rows of 2001 counts at x = 10^6
    with pytest.raises(ValueError, match="exceeds the budget"):
        sieve._class_oracle(q.build_spf_table(1000), 10**6, 99991)
    with pytest.raises(ValueError, match="class modulus"):
        sieve._class_oracle(q.build_spf_table(1000), 10**6, 10**5 + 1)


def test_class_oracle_checks_prime_counts_before_classes():
    # one need check, in the order the CLI refuses in: the prime counts'
    # budget is over at 10^16 before the two class rows are
    with pytest.raises(sieve.BudgetError, match="^prime counts to x = "):
        sieve._class_oracle(q.build_spf_table(100), 10**16, 4)


@pytest.mark.parametrize("refused", [
    lambda table: q.build_spf_table(10**8),
    lambda table: q.count_almost_primes(table, 10**12, 1),
    lambda table: sieve._class_oracle(table, 10**6, 99991),
])
def test_every_budget_refusal_is_a_budget_error(refused):
    table = q.build_spf_table(1000)
    with pytest.raises(sieve.BudgetError, match="exceeds the budget") as info:
        refused(table)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("modulus", [1, 255, 256, 257, 65536, 65537, 10**5])
def test_class_index_labels_every_residue(table, modulus):
    # labels are stored in the narrowest integer type that holds modulus - 1
    idx = table.class_index(modulus)
    residues = table.primes % modulus
    for a in sorted({a % modulus for a in (1, 2, modulus - 1, int(residues[-1]))}):
        expected = int(np.count_nonzero(residues == a))
        assert idx.stats(a, 0, table.limit)[0] == expected, a


def _saved(tmp_path, limit):
    table = q.build_spf_table(limit)
    path = tmp_path / "spf.bin"
    q.save_spf_cache(table, str(path))
    return table, path


@pytest.mark.parametrize("limit", [2, 3, 100, 4999, 5000, 19999, 20000])
def test_cache_prefix_equals_a_fresh_table(tmp_path, limit):
    _, path = _saved(tmp_path, 20000)
    loaded = q.load_spf_cache(str(path), limit=limit)
    fresh = q.build_spf_table(limit)
    assert loaded.limit == limit
    assert (loaded.spf == fresh.spf).all()
    assert loaded.primes_list == fresh.primes_list


def test_cache_limit_past_the_file_gives_the_whole_file(tmp_path):
    table, path = _saved(tmp_path, 5000)
    loaded = q.load_spf_cache(str(path), limit=10**6)
    assert loaded.limit == 5000
    assert (loaded.spf == table.spf).all()


def test_cache_checks_only_the_slice_it_reads(tmp_path):
    table, path = _saved(tmp_path, 20000)
    limit = 5000
    # a composite the whole-file check samples, past the slice
    past = next(
        int(n) for n in sieve._sample_points(20000)
        if n > limit and table.spf[n] != n
    )
    _corrupt_entry(path, past, int(table.spf[past]) ^ (1 << 30))
    assert (q.load_spf_cache(str(path), limit=limit).spf == table.spf[: limit + 1]).all()
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path))
    # a composite inside the slice, sampled there
    inside = next(
        int(n) for n in reversed(sieve._sample_points(limit)) if table.spf[n] != n
    )
    q.save_spf_cache(table, str(path))
    _corrupt_entry(path, inside, int(table.spf[inside]) ^ (1 << 30))
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path), limit=limit)


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:-4],
    lambda raw: raw + b"\x00\x00\x00\x00",
], ids=["truncated", "over-long"])
def test_cache_length_is_checked_at_any_limit(tmp_path, edit):
    _, path = _saved(tmp_path, 20000)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match="payload length"):
        q.load_spf_cache(str(path), limit=100)
    with pytest.raises(ValueError, match="payload length"):
        sieve.spf_cache_limit(str(path))


def test_cache_header_gives_the_limit_and_the_load_errors(tmp_path):
    _, path = _saved(tmp_path, 20000)
    assert sieve.spf_cache_limit(str(path)) == 20000
    with pytest.raises(sieve.BudgetError, match="exceeds the budget"):
        sieve.spf_cache_limit(str(path), max_entries=20000)
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(ValueError, match="bad cache magic"):
        sieve.spf_cache_limit(str(path))


def test_cache_refuses_a_limit_below_two(tmp_path):
    _, path = _saved(tmp_path, 500)
    with pytest.raises(ValueError):
        q.load_spf_cache(str(path), limit=1)
