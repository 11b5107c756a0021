"""A factorization scan for tests: the sorted prime factors of every n in a
block start..stop - 1, by repeated division by the smallest prime factor,
held as numpy arrays. scan_blocks walks 0..stop - 1 a block at a time, so a
scan to 10^7 holds one block's arrays rather than 10^7 entries of each.
Under tracemalloc, the scan behind the 10^7 comparisons of
tests/test_factor_scan.py peaks at about 25 MB, and that fixture as a
whole, with its four sign-label arrays of 10 MB each, at about 74 MB,
besides the SPF table (40 MB).

It shares only the SPF sieve with the counting code: no walk, oracle, count
table or symbol table. euler_signs gives (D/p) by Euler's criterion, so a
test can label the primes without qcdensity.arith either.
"""

import itertools

import numpy as np

# entries of n a block of scan_blocks holds
BLOCK = 1 << 18


class FactorScan:
    """Omega, squarefreeness and the first k_max sorted primes of every n in
    start..stop - 1 (the whole table by default), from one SPF array (spf[n]
    the smallest prime of n >= 2). The arrays are indexed by n - start."""

    def __init__(
        self, spf: np.ndarray, k_max: int, start: int = 0, stop: int | None = None
    ):
        stop = len(spf) if stop is None else stop
        size = stop - start
        self.start = start
        rest = np.arange(start, stop, dtype=np.int64)
        last = np.zeros(size, dtype=np.int64)
        self.big_omega = np.zeros(size, dtype=np.int8)
        self.squarefree = np.ones(size, dtype=bool)
        # leading[i, n - start]: the (i+1)-th smallest prime of n with multiplicity
        self.leading = np.zeros((k_max, size), dtype=np.int64)
        position = 0
        active = np.flatnonzero(rest > 1)
        while active.size:
            p = spf[rest[active]].astype(np.int64)
            self.squarefree[active[p == last[active]]] = False
            if position < k_max:
                self.leading[position, active] = p
            self.big_omega[active] += 1
            last[active] = p
            rest[active] //= p
            active = active[rest[active] > 1]
            position += 1

    def _upto(self, x: int, k: int) -> np.ndarray:
        """Mask of the n <= x in the block with k prime factors."""
        return self.big_omega[: max(x + 1 - self.start, 0)] == k

    def almost_prime_count(self, x: int, k: int, squarefree: bool) -> int:
        """The n <= x in the block with k prime factors (with multiplicity),
        squarefree ones only when squarefree is set."""
        mask = self._upto(x, k)
        if squarefree:
            mask &= self.squarefree[: len(mask)]
        return int(np.count_nonzero(mask))

    def tuples(self, x: int, k: int, squarefree: bool = True) -> np.ndarray:
        """The sorted primes (with multiplicity), one column per n, of the n
        <= x in the block with k primes, squarefree ones only when squarefree
        is set."""
        mask = self._upto(x, k)
        if squarefree:
            mask &= self.squarefree[: len(mask)]
        return self.leading[:k, : len(mask)][:, mask]

    def sign_counts(
        self, x: int, k: int, signs: np.ndarray, odd_only: bool = False
    ) -> dict:
        """Per sign tuple eps in itertools.product((1, -1), repeat=k), the
        squarefree n <= x in the block with k primes whose sorted primes p_i
        carry signs[p_i] = eps_i, odd n only when odd_only is set; a prime
        labelled 0 matches no tuple."""
        tuples = self.tuples(x, k)
        if odd_only:
            # the odd n are the tuples that do not start at 2
            tuples = tuples[:, tuples[0] != 2]
        digits = sign_digits(signs)[tuples]
        counts = tuple_counts(digits, 2).tolist()
        return dict(zip(itertools.product((1, -1), repeat=k), counts))


def tuple_counts(digits: np.ndarray, base: int) -> np.ndarray:
    """Per code, the columns of digits (the labels c_i in 0..base - 1 of
    the sorted primes of FactorScan.tuples) with that code, the sum of c_i
    base^(k - 1 - i): the first position is the most significant digit. A
    column with a digit -1 matches no code."""
    digits = digits[:, (digits >= 0).all(axis=0)]
    codes = np.zeros(digits.shape[1], dtype=np.int64)
    for row in digits:
        codes *= base
        codes += row
    return np.bincount(codes, minlength=base ** len(digits))


def sign_digits(signs: np.ndarray) -> np.ndarray:
    """signs as the digits of tuple_counts, indexed by p: +1 is digit 0 and -1
    digit 1, so a code is the sign tuple's index in the order of
    itertools.product((1, -1), repeat=k); 0 is -1, no digit."""
    return np.array([1, -1, 0], dtype=np.int8)[signs + 1]


def scan_blocks(spf: np.ndarray, k_max: int, stop: int, block: int = BLOCK):
    """FactorScans of 0..stop - 1, block entries of n at a time, in order."""
    for start in range(0, stop, block):
        yield FactorScan(spf, k_max, start, min(start + block, stop))


def euler_signs(d: int, primes: np.ndarray, size: int) -> np.ndarray:
    """(d/p) at every p of primes (all the primes below size), indexed by
    p, 0 elsewhere: Euler's criterion d^((p-1)/2) mod p at the odd primes,
    the mod-8 rule at 2."""
    signs = np.zeros(size, dtype=np.int8)
    if size > 2:
        signs[2] = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    p = primes[primes > 2].astype(np.int64)
    base, power, e = d % p, np.ones_like(p), (p - 1) // 2
    while e.any():
        power = np.where(e & 1, power * base % p, power)
        base = base * base % p
        e >>= 1
    signs[p] = np.where(power == 1, 1, np.where(power == p - 1, -1, 0))
    return signs
