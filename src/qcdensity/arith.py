"""Exact integer arithmetic primitives.

Kronecker symbol, chinese remaindering over not-necessarily-coprime moduli,
Euler's totient, and squarefree-kernel extraction. Everything here is pure
Python integer arithmetic; inputs are checked against a 63-bit magnitude cap
so the counting layers above stay inside their documented range.

Euler's totient, the squarefree kernel and the prime divisors all read one
factorization, _trial_factorize, memoised for the last few n (a bounded
lru_cache), so a discriminant is factored once however many sign
constraints, periods and oracles ask for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

MAX_MAGNITUDE = 2**63

# Trial factorization above this would be unreasonably slow; callers that
# need larger inputs are outside the supported desk scale.
_FACTOR_LIMIT = 10**12
# _trial_factorize keeps this many n: a run asks again and again for the
# factors of its few discriminants, their periods and its small moduli
_FACTOR_CACHE_SIZE = 32


class InconsistentSystem(ValueError):
    """A congruence system with no simultaneous solution."""


def _check_magnitude(*values: int) -> None:
    for v in values:
        if abs(v) >= MAX_MAGNITUDE:
            raise ValueError("input magnitude exceeds the 63-bit supported range")


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1.

    Agrees with the Legendre symbol when n is an odd prime not dividing d,
    is completely multiplicative in n, and is 0 exactly when gcd(d, n) > 1.
    The n = 2 factor is the standard one: 0 for even d, +1 for d = +-1 mod 8,
    -1 for d = +-3 mod 8.
    """
    _check_magnitude(d, n)
    if n < 1:
        raise ValueError("kronecker requires n >= 1")
    result = 1
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if d % 8 in (3, 5):
                result = -result
    # n is odd now; the symbol depends on d only mod n, so Python's
    # nonnegative remainder also takes care of negative d.
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt_combine(system: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) into (r, lcm(m_i)).

    Moduli need not be pairwise coprime. Raises InconsistentSystem when two
    congruences disagree modulo the gcd of their moduli.
    """
    if not system:
        raise ValueError("empty congruence system")
    for r_i, m_i in system:
        _check_magnitude(r_i, m_i)
        if m_i < 1:
            raise ValueError("moduli must be >= 1")
        if not 0 <= r_i < m_i:
            raise ValueError("residues must satisfy 0 <= r < m")
    r, m = system[0]
    for r2, m2 in system[1:]:
        g = math.gcd(m, m2)
        if (r2 - r) % g:
            raise InconsistentSystem(
                f"x = {r} (mod {m}) conflicts with x = {r2} (mod {m2})"
            )
        lcm = m // g * m2
        _check_magnitude(lcm)
        m2g = m2 // g
        t = ((r2 - r) // g * pow(m // g, -1, m2g)) % m2g
        r = (r + m * t) % lcm
        m = lcm
    return r, m


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _trial_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division, ascending. Each n
    is factored once while it is among the last _FACTOR_CACHE_SIZE asked
    for; a tuple, since every caller shares it."""
    if n > _FACTOR_LIMIT:
        raise ValueError(f"factorization supported only up to {_FACTOR_LIMIT}")
    factors = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    # remaining factors are of the form 6k +- 1
    p, step = 5, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def euler_phi(n: int) -> int:
    """Euler's totient: number of units modulo n."""
    _check_magnitude(n)
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in _trial_factorize(n):
        result -= result // p
    return result


@dataclass(frozen=True)
class SquarefreeKernel:
    """Sign and odd-exponent primes of an integer d != 0.

    value() is the squarefree integer whose Kronecker symbol agrees with
    d's at every prime not dividing 2d.
    """

    sign: int
    odd_exponent_primes: tuple[int, ...]
    is_perfect_square: bool

    def value(self) -> int:
        v = self.sign
        for p in self.odd_exponent_primes:
            v *= p
        return v


def squarefree_kernel(d: int) -> SquarefreeKernel:
    """Extract the squarefree kernel of d (sign plus odd-exponent primes)."""
    _check_magnitude(d)
    if d == 0:
        raise ValueError("d = 0 has no squarefree kernel")
    sign = 1 if d > 0 else -1
    primes = tuple(p for p, e in _trial_factorize(abs(d)) if e % 2 == 1)
    return SquarefreeKernel(sign, primes, sign == 1 and not primes)


def prime_divisors(n: int) -> tuple[int, ...]:
    """Ascending distinct primes dividing |n| (n != 0)."""
    if n == 0:
        raise ValueError("0 has no prime divisor set")
    return tuple(p for p, _ in _trial_factorize(abs(n)))
