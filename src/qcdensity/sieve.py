"""Smallest-prime-factor sieve and prime counting.

An SpfTable stores the smallest prime factor of every n in 2..limit and
derives from it: the sorted prime list, prime counts, and factorizations.
Range queries go through a labelled prime index, _ClassIndex: the primes
grouped by one integer label each, counting (or summing log p and 1/p over)
the primes with a given label in lo < p <= hi. class_index(N) labels by
p mod N; density.py labels by Kronecker sign. Indexes and counts are
memoised in the table's memo dict, so they are freed with the table.

Tables round-trip through a small binary cache format: magic "SPF1", the
limit as an 8-byte little-endian integer, then one 4-byte little-endian
entry per n = 2..limit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

DEFAULT_MAX_ENTRIES = 10**8
_MAGIC = b"SPF1"
_CLASS_MODULUS_LIMIT = 10**5


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

    def _bounds(self, label: int, lo: int, hi: int) -> tuple[int, int]:
        # primes p with this label and lo < p <= hi
        i0, i1 = self._groups.get(label, (0, 0))
        seg = self._primes[i0:i1]
        j0 = i0 + int(np.searchsorted(seg, lo, side="right"))
        j1 = i0 + int(np.searchsorted(seg, hi, side="right"))
        return j0, j1

    def count(self, label: int, lo: int, hi: int) -> int:
        j0, j1 = self._bounds(label, lo, hi)
        return j1 - j0

    def stats(self, label: int, lo: int, hi: int) -> tuple[int, float, float]:
        """(count, sum of log p, sum of 1/p) over labelled primes in (lo, hi]."""
        j0, j1 = self._bounds(label, lo, hi)
        if j1 <= j0:
            return 0, 0.0, 0.0
        return (
            j1 - j0,
            float(np.sum(self._logs[j0:j1])),
            float(np.sum(self._recips[j0:j1])),
        )


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
        width = np.arange(2, limit + 1, dtype=spf.dtype)
        self.primes = (np.nonzero(spf[2:] == width)[0] + 2).astype(np.int64)
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
        return _ClassIndex(self.primes, self.primes % modulus)


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
    remaining = np.nonzero(spf[2:] == 0)[0] + 2
    spf[remaining] = remaining
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
    return table.class_index(modulus).count(a, 0, x)


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
    """Write the table in the binary cache format."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", table.limit))
        fh.write(np.ascontiguousarray(table.spf[2:], dtype="<u4").tobytes())


def load_spf_cache(path: str, max_entries: int = DEFAULT_MAX_ENTRIES) -> SpfTable:
    """Load a table written by save_spf_cache, validating magic and limit."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise ValueError("truncated cache header")
        (limit,) = struct.unpack("<Q", raw)
        if limit < 2:
            raise ValueError(f"bad cache limit {limit}")
        if limit + 1 > max_entries:
            raise ValueError(
                f"cached table of {limit + 1} entries exceeds the budget of {max_entries}"
            )
        payload = fh.read()
    expected = 4 * (limit - 1)
    if len(payload) != expected:
        raise ValueError("cache payload length does not match limit")
    entries = np.frombuffer(payload, dtype="<u4")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[2:] = entries
    return SpfTable(int(limit), spf)
