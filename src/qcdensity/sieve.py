"""Smallest-prime-factor sieve and prime counting.

An SpfTable stores the smallest prime factor of every n in 2..limit and
derives from it: the sorted prime list, prime counts, and factorizations.
Range queries have two backends with one interface, count_ranges(label,
lo, hi): the primes with that label over the ranges lo[i] < p <= hi[i].

- _ClassIndex, the labelled prime index: the table's primes grouped by one
  integer label each (class_index(N) labels by p mod N), also summing log p
  and 1/p. It reads the primes themselves, so it answers any hi up to the
  table's limit.
- _PrimeCountOracle, for one x: a plain lookup. It holds, for each label,
  the count of the primes up to v with that label at every v = x // m, in
  the layout _grid_values gives; queries must have lo and hi on that grid,
  and hi may be as large as x. The caller builds the counts and decides
  what a label means. Lucy_Hedgehog's recurrence (_prime_sums) sums a
  periodic completely multiplicative f over the primes up to every grid
  value, reading only the primes up to isqrt(x) (_oracle_primes). With
  f = 1 it gives pi(v) (_prime_count_grid), the counts of the one label
  None behind almostprime.py's unconstrained counts; density.py builds its
  sign labels from pi and one more sum. The recurrence makes on the order
  of x^(3/4) updates, and _oracle_need refuses x when that is over the
  entry budget, as build_spf_table refuses a table of more entries.

Indexes, oracles, recorded walks and counts are memoised in the table's
memo dict, so they are freed with the table, or earlier by _forget.

Tables round-trip through a small binary cache format: magic "SPF1", the
limit as an 8-byte little-endian integer, then one 4-byte little-endian
entry per n = 2..limit. The cache is written from the table's array,
with no copy, to a temporary file that then replaces the old one, so a
failed write never leaves a torn cache. Loading reads only the entries up
to the limit the caller needs, straight into the table's array, so a warm
cache costs what the command needs rather than what the file holds. It
rejects a file whose length does not match its header limit, at any
limit, and a slice whose content fails cheap sieve checks (sampled
smallest prime factors, pinned prime counts), so every load checks what
it reads and a corrupt cache is rebuilt rather than trusted.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

DEFAULT_MAX_ENTRIES = 10**8
_MAGIC = b"SPF1"
_CLASS_MODULUS_LIMIT = 10**5
# the sieve marks, and SpfTable finds, its primes this many entries at a time
_PRIME_SCAN_CHUNK = 1 << 16
# a loaded cache's smallest prime factors are checked at this many points
_CHECK_SAMPLES = 4096
# pi(10^j) for j = 1..8, checked on a loaded cache up to its limit
_PRIME_COUNTS_AT_POWERS_OF_TEN = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its prime factorization, ascending (prime, exponent)."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _table_memo(fn):
    """Cache fn(table, *args) in table.memo, so results live as long as the
    table and no longer."""

    @wraps(fn)
    def cached(table: SpfTable, *args):
        key = (fn, args)
        if key not in table.memo:
            table.memo[key] = fn(table, *args)
        return table.memo[key]

    return cached


def _forget(table: SpfTable, x: int) -> None:
    """Drop the memo entries of the calls whose first argument is x: the
    oracles, recorded walks and counts made for one x all take x first. An
    entry of another call that equals x by chance is only built again."""
    for key in [key for key in table.memo if key[1][:1] == (x,)]:
        del table.memo[key]


class _ClassIndex:
    """The primes grouped by an integer label, ascending within each group,
    with log/recip arrays built on first use (only the tuple sums read them).

    Range sums are computed by summing the group slice directly; prefix-sum
    differences would carry absolute error on the order of the full prefix
    magnitude, which matters for the identity checks downstream.
    """

    def __init__(self, primes: np.ndarray, labels: np.ndarray):
        order = np.argsort(labels, kind="stable")
        self._primes = primes[order]
        grouped = labels[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        # label -> (first, one past last) position of its group
        self._groups = {
            int(grouped[i0]): (i0, i1)
            for i0, i1 in zip([0] + cuts, cuts + [len(grouped)])
        }

    @cached_property
    def _logs(self) -> np.ndarray:
        return np.log(self._primes.astype(np.float64))

    @cached_property
    def _recips(self) -> np.ndarray:
        return 1.0 / self._primes.astype(np.float64)

    def count_ranges(self, label: int, lo: np.ndarray, hi: np.ndarray) -> int:
        """Primes with this label summed over the ranges lo[i] < p <= hi[i];
        scalar lo and hi are one range."""
        i0, i1 = self._groups.get(label, (0, 0))
        seg = self._primes[i0:i1]
        upto_hi = np.searchsorted(seg, hi, side="right")
        upto_lo = np.searchsorted(seg, lo, side="right")
        return int(upto_hi.sum() - upto_lo.sum())

    def stats(self, label: int, lo: int, hi: int) -> tuple[int, float, float]:
        """(count, sum of log p, sum of 1/p) over labelled primes in (lo, hi]."""
        i0, i1 = self._groups.get(label, (0, 0))
        seg = self._primes[i0:i1]
        j0 = i0 + int(np.searchsorted(seg, lo, side="right"))
        j1 = i0 + int(np.searchsorted(seg, hi, side="right"))
        if j1 <= j0:
            return 0, 0.0, 0.0
        return (
            j1 - j0,
            float(np.sum(self._logs[j0:j1])),
            float(np.sum(self._recips[j0:j1])),
        )


def _grid_values(x: int) -> np.ndarray:
    """The v = x // m at each position of the layout the prime sums and the
    oracle share: position v for v <= r = isqrt(x), then position r + i for
    v = x // i, i = 1..r."""
    r = math.isqrt(x)
    return np.concatenate((np.arange(r + 1), x // np.arange(1, r + 1)))


def _prime_sums(x: int, primes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sum of f(p) over the primes p <= v at every v in {x // m}, laid out
    as _grid_values, for f completely multiplicative with period len(f)
    (f(n) = f[n % len(f)]).

    Lucy_Hedgehog's recurrence: start from the sums of f(n) over 2 <= n <= v
    and, for each prime p <= isqrt(x) (the given primes, ascending), take out
    f(p) * (S(v // p) - S(p - 1)) at every v >= p^2.
    """
    r = math.isqrt(x)
    period = len(f)
    f = f.astype(np.int64)
    cumulative = np.concatenate(([0], np.cumsum(f[1:])))
    per_period = int(f.sum())
    grid = _grid_values(x)
    # sum of f(n) over 2 <= n <= v
    sums = (grid // period) * per_period + cumulative[grid % period] - f[1 % period]
    sums[:2] = 0
    # views: small[v] is the sum at v <= r, large[i] the sum at x // i (i >= 1)
    small, large = sums[: r + 1], sums[r:]
    for p in primes.tolist():
        fp = int(f[p % period])
        if fp == 0:
            continue
        below = int(small[p - 1])
        top = min(r, x // (p * p))
        # x // (i p) is large[i p] while i p <= r, and small[...] beyond
        split = min(top, r // p)
        large[1 : split + 1] -= fp * (large[p : split * p + 1 : p] - below)
        i = np.arange(split + 1, top + 1, dtype=np.int64)
        large[split + 1 : top + 1] -= fp * (small[x // (i * p)] - below)
        if p * p <= r:
            v = np.arange(p * p, r + 1, dtype=np.int64)
            small[p * p :] -= fp * (small[v // p] - below)
    return sums


class _PrimeCountOracle:
    """Prime counts at every v in {x // m}, the only values the walker's
    last position asks for when the product is at most x: hi is x over the
    leading product, and lo, a leading prime or one less, is at most
    isqrt(x).

    cumulative maps each label to the count of the primes up to v with that
    label, laid out as _grid_values; the caller builds it.
    """

    def __init__(self, x: int, cumulative: dict):
        self._x = x
        self._r = math.isqrt(x)
        self._cumulative = cumulative

    def count_ranges(self, label, lo: np.ndarray, hi: np.ndarray) -> int:
        """Primes with this label summed over the ranges lo[i] < p <= hi[i],
        every bound in {x // m}, so at least 1."""
        cumulative, r, x = self._cumulative[label], self._r, self._x
        upto_hi, upto_lo = (
            int(cumulative[np.where(v <= r, v, r + x // v)].sum()) for v in (hi, lo)
        )
        return upto_hi - upto_lo


def _oracle_need(x: int) -> int:
    """The table limit a prime-count oracle for x needs: isqrt(x).

    Raises ValueError when r * isqrt(r), r = isqrt(x), exceeds the entry
    budget: that is about x^(3/4), and about twice the updates
    Lucy_Hedgehog's recurrence makes (measured at x = 10^8 to 10^11).
    """
    r = math.isqrt(x)
    work = r * math.isqrt(r)
    if work > DEFAULT_MAX_ENTRIES:
        raise ValueError(
            f"prime counts to x = {x} need about x^(3/4) = {work} updates,"
            f" which exceeds the budget of {DEFAULT_MAX_ENTRIES}"
        )
    return r


def _oracle_primes(table: SpfTable, x: int) -> np.ndarray:
    """The table's primes up to isqrt(x), all that _prime_sums reads for x.
    Raises ValueError when x is over the work budget (_oracle_need) or the
    table stops short of isqrt(x)."""
    r = _oracle_need(x)
    if r > table.limit:
        raise ValueError(
            f"table limit {table.limit} too small for prime counts to x = {x}"
            f" (need {r})"
        )
    return table.primes[: np.searchsorted(table.primes, r, side="right")]


@_table_memo
def _prime_count_grid(table: SpfTable, x: int) -> np.ndarray:
    """pi(v) at every v in {x // m}, laid out as _grid_values. Read-only,
    since the memo hands the one array to every caller."""
    pi = _prime_sums(x, _oracle_primes(table, x), np.ones(1, dtype=np.int64))
    pi.setflags(write=False)
    return pi


def _fixed_points(spf: np.ndarray) -> np.ndarray:
    """The n >= 2 with spf[n] == n, ascending, as int64. The comparison runs
    a chunk at a time, so no temporary as long as the table is made."""
    found = []
    for start in range(2, len(spf), _PRIME_SCAN_CHUNK):
        chunk = spf[start : start + _PRIME_SCAN_CHUNK]
        n = np.arange(start, start + len(chunk), dtype=spf.dtype)
        found.append(np.flatnonzero(chunk == n) + start)
    return np.concatenate(found).astype(np.int64, copy=False)


class SpfTable:
    """Smallest prime factors for 2..limit (spf[0] = spf[1] = 0)."""

    def __init__(self, limit: int, spf: np.ndarray):
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if spf.shape != (limit + 1,):
            raise ValueError("spf array does not match limit")
        self.limit = int(limit)
        self.spf = spf
        self.spf.setflags(write=False)
        self.primes = _fixed_points(spf)
        self._primes_list: list[int] | None = None
        # indexes and counts over this table, keyed by the call (_table_memo)
        self.memo: dict = {}

    @property
    def primes_list(self) -> list[int]:
        if self._primes_list is None:
            self._primes_list = self.primes.tolist()
        return self._primes_list

    @_table_memo
    def class_index(self, modulus: int) -> _ClassIndex:
        """The primes labelled by their residue mod modulus."""
        if not 1 <= modulus <= _CLASS_MODULUS_LIMIT:
            raise ValueError(f"class modulus must be in 1..{_CLASS_MODULUS_LIMIT}")
        # the narrowest label type: numpy radix-sorts 8- and 16-bit keys
        labels = (self.primes % modulus).astype(np.min_scalar_type(modulus - 1))
        return _ClassIndex(self.primes, labels)


def build_spf_table(limit: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SpfTable:
    """Sieve smallest prime factors for 2..limit.

    Raises ValueError when limit + 1 exceeds the entry budget; pass a larger
    max_entries to opt in to bigger tables.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit + 1 > max_entries:
        raise ValueError(
            f"table of {limit + 1} entries exceeds the budget of {max_entries}"
        )
    if limit >= 2**32:
        raise ValueError("limit must fit in 32 bits")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    # the entries still 0 are the primes, their own smallest factor; filled
    # a chunk at a time, as _fixed_points reads them
    for start in range(2, limit + 1, _PRIME_SCAN_CHUNK):
        chunk = spf[start : start + _PRIME_SCAN_CHUNK]
        n = np.arange(start, start + len(chunk), dtype=spf.dtype)
        np.copyto(chunk, n, where=chunk == 0)
    return SpfTable(limit, spf)


def prime_count(table: SpfTable, x: int) -> int:
    """pi(x): number of primes <= x. Requires x <= table.limit."""
    if x > table.limit:
        raise ValueError(f"x = {x} exceeds table limit {table.limit}")
    if x < 2:
        return 0
    return int(np.searchsorted(table.primes, x, side="right"))


def prime_count_in_class(table: SpfTable, x: int, a: int, modulus: int) -> int:
    """Number of primes p <= x with p = a (mod modulus)."""
    if x > table.limit:
        raise ValueError(f"x = {x} exceeds table limit {table.limit}")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= a < modulus:
        raise ValueError("class must satisfy 0 <= a < modulus")
    if x < 2:
        return 0
    return table.class_index(modulus).count_ranges(a, 0, x)


def factorize(table: SpfTable, n: int) -> FactoredInteger:
    """Factor n by walking the spf table. Requires 1 <= n <= table.limit."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n = {n} outside 1..{table.limit}")
    factors = []
    m = n
    while m > 1:
        p = int(table.spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return FactoredInteger(n, tuple(factors))


def save_spf_cache(table: SpfTable, path: str) -> None:
    """Write the table in the binary cache format, atomically: the bytes go
    to a temporary file in the same directory, which then replaces path, so
    a failed write leaves any earlier cache as it was."""
    # one writer per process id, so concurrent writers never share the file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", table.limit))
            # written from the array itself: a view, not a copy, on a
            # little-endian host
            fh.write(np.ascontiguousarray(table.spf[2:], dtype="<u4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sample_points(limit: int) -> np.ndarray:
    """The n at which _check_content tests a table: evenly spaced in
    2..limit, ascending, with repeats when the limit is small (a repeat
    only checks the same n twice)."""
    return np.linspace(2, limit, _CHECK_SAMPLES).astype(np.int64)


def _check_content(table: SpfTable) -> None:
    """Raise ValueError unless the table looks like a sieve: at each sampled
    n, spf[n] >= 2 divides n and is its own smallest prime factor, and pi
    matches its known values at every power of ten up to the limit."""
    n = _sample_points(table.limit)
    s = table.spf[n].astype(np.int64)
    # s >= 2 is checked before the division, and s | n before s indexes
    if (s < 2).any() or (n % s).any() or (table.spf[s] != s).any():
        raise ValueError("cache content is not a smallest-prime-factor table")
    for j, expected in enumerate(_PRIME_COUNTS_AT_POWERS_OF_TEN, start=1):
        if 10**j > table.limit:
            break
        got = prime_count(table, 10**j)
        if got != expected:
            raise ValueError(f"cache gives pi(10^{j}) = {got}, not {expected}")


def load_spf_cache(
    path: str, max_entries: int = DEFAULT_MAX_ENTRIES, limit: int | None = None
) -> SpfTable:
    """Load a table written by save_spf_cache, reading only its entries up
    to limit: the table's limit is the smaller of limit and the file's, and
    the whole file when limit is None.

    Raises ValueError on a bad magic or header limit, a header limit over
    the entry budget, a file whose length does not match its header limit
    (whatever limit is asked for), or a slice that fails _check_content.
    """
    if limit is not None and limit < 2:
        raise ValueError("limit must be >= 2")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise ValueError("truncated cache header")
        (file_limit,) = struct.unpack("<Q", raw)
        if file_limit < 2:
            raise ValueError(f"bad cache limit {file_limit}")
        if file_limit + 1 > max_entries:
            raise ValueError(
                f"cached table of {file_limit + 1} entries exceeds the budget"
                f" of {max_entries}"
            )
        # the 12-byte header and the whole payload, however much is read
        if os.fstat(fh.fileno()).st_size != 12 + 4 * (file_limit - 1):
            raise ValueError("cache payload length does not match limit")
        if limit is None or limit > file_limit:
            limit = file_limit
        spf = np.zeros(limit + 1, dtype="<u4")
        # the slice goes straight into the table's array
        if fh.readinto(spf[2:].view(np.uint8)) != 4 * (limit - 1):
            raise ValueError("cache payload length does not match limit")
    table = SpfTable(int(limit), spf)
    _check_content(table)
    return table
