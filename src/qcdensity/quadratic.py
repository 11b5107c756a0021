"""Root counting for monic quadratics x^2 + bx + c modulo n.

Two independent routes: a direct scan over all residues, and the
multiplicative formula prod(1 + (D/p)) over the primes of n, which is valid
exactly when n is odd, squarefree and coprime to the discriminant D. The
scan has one kernel, _root_counts, which evaluates f(x) once for many
moduli and finds the roots of each modulus n by one floor division by n;
count_roots_bruteforce calls it for a single n. The formula reads (D/p)
from _symbol, a bounded lru_cache over kronecker, so a caller that runs the
formula over many moduli of one form (verify's quadratic suite) computes
each symbol once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import _check_magnitude, kronecker
from .sieve import FactoredInteger

BRUTE_FORCE_LIMIT = 10**6
# _symbol keeps this many (D, p): more than the odd primes up to 5000 (668),
# so a form's symbols stay cached while verify compares its moduli
_SYMBOL_CACHE_SIZE = 1024


@dataclass(frozen=True)
class QuadraticForm:
    b: int
    c: int

    def __post_init__(self):
        _check_magnitude(self.b, self.c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.c


def _root_counts(form: QuadraticForm, moduli: list[int]) -> list[int]:
    """For each n in moduli, the number of x in 0..n-1 with
    x^2 + bx + c = 0 (mod n), by full scan.

    f(x) is evaluated once, exactly, for 0 <= x < max(moduli), and each n
    scans its prefix: v = f(x) is a root when q * n == v for q = v // n, a
    floor division by the scalar n, which numpy does by multiplication. The
    values take int32 when they fit and int64 otherwise; a form and moduli
    whose values would not fit int64 raise ValueError rather than wrap.
    """
    if not moduli or min(moduli) < 1:
        raise ValueError("moduli must be positive")
    m = max(moduli)
    # bounds |x + b|, |x + b| * x and |(x + b) * x + c| for every scanned x;
    # below a negative f(x) it leaves m (m - 1) spare, more than the n - 1
    # by which q * n can fall below f(x), so q * n is exact too
    bound = m * (m - 1 + abs(form.b)) + abs(form.c)
    if bound >= 2**63:
        raise ValueError("f(x) over the scanned range exceeds int64")
    dtype = np.int32 if bound < 2**31 else np.int64
    x = np.arange(m, dtype=dtype)
    vals = x + dtype(form.b)
    vals *= x
    vals += dtype(form.c)
    quotients = np.empty_like(vals)
    counts = []
    for n in moduli:
        v, q = vals[:n], quotients[:n]
        np.floor_divide(v, n, out=q)
        q *= n
        counts.append(int(np.count_nonzero(q == v)))
    return counts


def count_roots_bruteforce(form: QuadraticForm, n: int) -> int:
    """Number of x in 0..n-1 with x^2 + bx + c = 0 (mod n), by full scan."""
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"n must be in 1..{BRUTE_FORCE_LIMIT}")
    return _root_counts(QuadraticForm(form.b % n, form.c % n), [n])[0]


@lru_cache(maxsize=_SYMBOL_CACHE_SIZE)
def _symbol(d: int, p: int) -> int:
    """(d/p), memoised for the formula's repeated primes."""
    return kronecker(d, p)


def count_roots_formula(form: QuadraticForm, n: FactoredInteger) -> int:
    """Root count as prod(1 + (D/p)) over the primes p of n.

    Requires n odd, squarefree, coprime to D = b^2 - 4c; rejects anything
    else rather than guessing (no lifting to prime powers, no special
    handling of shared factors). Every prime of n is checked, whatever the
    product already is.
    """
    d = form.discriminant
    count = 1
    for p, e in n.factors:
        if p == 2:
            raise ValueError("formula requires odd n")
        if e > 1:
            raise ValueError("formula requires squarefree n")
        symbol = _symbol(d, p)
        if symbol == 0:
            raise ValueError("formula requires gcd(n, discriminant) = 1")
        count *= 1 + symbol
    return count


def has_max_root_count(form: QuadraticForm, n: FactoredInteger) -> bool:
    """True iff the congruence has the full 2^k roots (k = number of primes).

    Equivalent to (D/p) = +1 for every prime p of n, since each prime adds
    a factor 1 + (D/p) of 0 or 2; vacuously true for n = 1.
    """
    return count_roots_formula(form, n) == 2 ** len(n.factors)
