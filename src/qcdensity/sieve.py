"""Smallest-prime-factor sieve and prime counting.

An SpfTable stores the smallest prime factor of every n in 2..limit and
derives from it: the sorted prime list, prime counts (optionally restricted
to a residue class), factorizations, and per-class log / reciprocal range
sums used by the tuple-sum machinery. Tables round-trip through a small
binary cache format: magic "SPF1", the limit as an 8-byte little-endian
integer, then one 4-byte little-endian entry per n = 2..limit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

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


class _ClassIndex:
    """Primes grouped by residue class mod N, with per-class log/recip arrays
    built on first use (only the tuple sums read them).

    Range sums are computed by summing the class slice directly; prefix-sum
    differences would carry absolute error on the order of the full prefix
    magnitude, which matters for the identity checks downstream.
    """

    def __init__(self, primes: np.ndarray, modulus: int):
        self.modulus = modulus
        residues = (primes % modulus).astype(np.int64)
        order = np.argsort(residues, kind="stable")
        self._starts = np.searchsorted(residues[order], np.arange(modulus + 1))
        self._primes = primes[order]

    @cached_property
    def _logs(self) -> np.ndarray:
        return np.log(self._primes.astype(np.float64))

    @cached_property
    def _recips(self) -> np.ndarray:
        return 1.0 / self._primes.astype(np.float64)

    def _bounds(self, residue: int, lo: int, hi: int) -> tuple[int, int]:
        # primes p in the class with lo < p <= hi
        i0 = int(self._starts[residue])
        i1 = int(self._starts[residue + 1])
        seg = self._primes[i0:i1]
        j0 = i0 + int(np.searchsorted(seg, lo, side="right"))
        j1 = i0 + int(np.searchsorted(seg, hi, side="right"))
        return j0, j1

    def count(self, residue: int, lo: int, hi: int) -> int:
        j0, j1 = self._bounds(residue, lo, hi)
        return j1 - j0

    def stats(self, residue: int, lo: int, hi: int) -> tuple[int, float, float]:
        """(count, sum of log p, sum of 1/p) over class primes in (lo, hi]."""
        j0, j1 = self._bounds(residue, lo, hi)
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
        self._class_indexes: dict[int, _ClassIndex] = {}
        # results of counts over this table, keyed by the call; owned here so
        # they are freed with the table
        self.memo: dict = {}

    @property
    def primes_list(self) -> list[int]:
        if self._primes_list is None:
            self._primes_list = self.primes.tolist()
        return self._primes_list

    def class_index(self, modulus: int) -> _ClassIndex:
        if not 1 <= modulus <= _CLASS_MODULUS_LIMIT:
            raise ValueError(f"class modulus must be in 1..{_CLASS_MODULUS_LIMIT}")
        idx = self._class_indexes.get(modulus)
        if idx is None:
            idx = _ClassIndex(self.primes, modulus)
            self._class_indexes[modulus] = idx
        return idx


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
