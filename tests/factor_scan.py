"""A factorization scan for tests: the sorted prime factors of every n up to
an SPF table's limit, by repeated division by the smallest prime factor,
held as numpy arrays.

It shares only the SPF sieve with the counting code: no walk, oracle, count
table or symbol table. euler_signs gives (D/p) by Euler's criterion, so a
test can label the primes without qcdensity.arith either.
"""

import itertools

import numpy as np


class FactorScan:
    """Omega, squarefreeness and the first k_max sorted primes of every
    n <= limit, from one SPF array (spf[n] the smallest prime of n >= 2)."""

    def __init__(self, spf: np.ndarray, k_max: int):
        size = len(spf)
        spf = spf.astype(np.int64)
        rest = np.arange(size, dtype=np.int64)
        last = np.zeros(size, dtype=np.int64)
        self.big_omega = np.zeros(size, dtype=np.int8)
        self.squarefree = np.ones(size, dtype=bool)
        # leading[i, n]: the (i+1)-th smallest prime of n with multiplicity
        self.leading = np.zeros((k_max, size), dtype=np.int64)
        position = 0
        active = np.flatnonzero(rest > 1)
        while active.size:
            p = spf[rest[active]]
            self.squarefree[active[p == last[active]]] = False
            if position < k_max:
                self.leading[position, active] = p
            self.big_omega[active] += 1
            last[active] = p
            rest[active] //= p
            active = active[rest[active] > 1]
            position += 1

    def almost_prime_count(self, x: int, k: int, squarefree: bool) -> int:
        """The n <= x with k prime factors (with multiplicity), squarefree
        ones only when squarefree is set."""
        mask = self.big_omega[: x + 1] == k
        if squarefree:
            mask &= self.squarefree[: x + 1]
        return int(np.count_nonzero(mask))

    def sign_counts(self, x: int, k: int, signs: np.ndarray) -> dict:
        """Per sign tuple eps in itertools.product((1, -1), repeat=k), the
        squarefree n <= x with k primes whose sorted primes p_i carry
        signs[p_i] = eps_i; a prime labelled 0 matches no tuple."""
        mask = (self.big_omega[: x + 1] == k) & self.squarefree[: x + 1]
        labels = signs[self.leading[:k, : x + 1][:, mask]]
        labels = labels[:, (labels != 0).all(axis=0)]
        # the first position is the most significant bit, -1 the set one,
        # so a code is the tuple's index in the product order
        weights = 1 << np.arange(k - 1, -1, -1)
        codes = ((labels == -1) * weights[:, None]).sum(axis=0)
        counts = np.bincount(codes, minlength=2**k).tolist()
        return dict(zip(itertools.product((1, -1), repeat=k), counts))


def euler_signs(d: int, spf: np.ndarray) -> np.ndarray:
    """(d/p) at every prime p < len(spf), indexed by p, 0 elsewhere: Euler's
    criterion d^((p-1)/2) mod p at the odd primes, the mod-8 rule at 2."""
    n = np.arange(len(spf))
    primes = n[(n >= 2) & (spf == n)].astype(np.int64)
    signs = np.zeros(len(spf), dtype=np.int8)
    if len(spf) > 2:
        signs[2] = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    p = primes[primes > 2]
    base, power, e = d % p, np.ones_like(p), (p - 1) // 2
    while e.any():
        power = np.where(e & 1, power * base % p, power)
        base = base * base % p
        e >>= 1
    signs[p] = np.where(power == 1, 1, np.where(power == p - 1, -1, 0))
    return signs
